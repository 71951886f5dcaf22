"""Client-side local training: mini-batch SGD over one user's partition.

Shuffling is reseeded per (round_seed, user_id, epoch), so a client's
result does not depend on which other clients train or in what order. The
centralized baseline draws its batches from the same generator.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Final

import numpy as np

from . import model
from .data import ClientPartition
from .errors import ConfigError
from .model import ModelSpec
from .seeding import derive_seed

# Sentinel batch size: one batch covers the whole partition.
FULL_BATCH: Final = None


@dataclass(frozen=True)
class LocalTrainingConfig:
    epochs: int = 1
    batch_size: int | None = FULL_BATCH
    eta_local: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size is not FULL_BATCH and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1 or FULL_BATCH")
        if self.eta_local < 0:
            raise ConfigError("eta_local must be nonnegative")


@dataclass(frozen=True)
class ClientUpdate:
    """Locally trained weights sent back to the server."""

    user_id: int
    weights: np.ndarray
    example_count: int


def local_step_count(n_k: int, batch_size: int | None, epochs: int) -> int:
    """Gradient steps a client performs: epochs * max(ceil(n_k / batch), 1)."""
    if n_k < 1:
        raise ValueError("n_k must be >= 1")
    b = n_k if batch_size is FULL_BATCH else batch_size
    return epochs * max(math.ceil(n_k / b), 1)


def minibatches(n: int, batch_size: int | None, *seed_parts) -> Iterator[np.ndarray]:
    """Endless index arrays of shuffled mini-batches over n examples.

    Each epoch is a fresh permutation seeded by derive_seed(*seed_parts,
    epoch); its final partial batch is yielded as-is.
    """
    batch = n if batch_size is FULL_BATCH else batch_size
    for epoch in itertools.count():
        order = np.random.default_rng(derive_seed(*seed_parts, epoch)).permutation(n)
        for start in range(0, n, batch):
            yield order[start : start + batch]


def train_local(
    w_start: np.ndarray,
    partition: ClientPartition,
    cfg: LocalTrainingConfig,
    spec: ModelSpec,
    round_seed: int,
) -> ClientUpdate:
    """Run local SGD from the broadcast weights and package the update.

    Data is reshuffled once per epoch; the final partial batch is used as-is.
    w_start is never mutated.
    """
    X, y = model.batch_arrays(spec, partition.examples)
    n = X.shape[0]
    w = np.array(w_start, dtype=np.float64, copy=True)
    if w.shape != (spec.param_count,):
        raise ValueError(f"weights have shape {w.shape}, expected ({spec.param_count},)")

    batches = minibatches(n, cfg.batch_size, round_seed, partition.user_id)
    for idx in itertools.islice(batches, local_step_count(n, cfg.batch_size, cfg.epochs)):
        w -= cfg.eta_local * model.gradient_from_arrays(spec, w, X[idx], y[idx])

    if not np.all(np.isfinite(w)):
        raise FloatingPointError(f"user {partition.user_id}: local training diverged")
    return ClientUpdate(user_id=partition.user_id, weights=w, example_count=n)
