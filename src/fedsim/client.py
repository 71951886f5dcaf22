"""Client-side local training: mini-batch SGD over one user's rows of a Federation.

Each epoch's batches (epoch_batches) are reshuffled per (round_seed, user_id,
epoch), so a client's result depends only on its own rows: not on the
federation's other users, nor on which other clients train or in what order.
A batch that covers every row takes them in stored order and draws no seed.
The centralized baseline takes its batches from the same function, one epoch
at a time. Clients that each take one step train stacked, a block of them per
gradient pass (train_one_step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

import numpy as np

from . import model
from .data import Federation
from .errors import ConfigError, check_fields
from .model import ModelSpec
from .seeding import derive_seed

# Sentinel batch size: one batch covers all of a user's rows.
FULL_BATCH: Final = None


@dataclass(frozen=True)
class LocalTrainingConfig:
    epochs: int = 1
    batch_size: int | None = FULL_BATCH
    eta_local: float = 0.01

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size is not FULL_BATCH and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1 or FULL_BATCH")
        if self.eta_local < 0:
            raise ConfigError("eta_local must be nonnegative")


def local_step_count(n_k: int | np.ndarray, batch_size: int | None, epochs: int) -> int | np.ndarray:
    """Gradient steps a client performs: epochs * ceil(n_k / batch), at least one
    batch an epoch as n_k >= 1; given an array of sizes, each client's steps."""
    if (np.asarray(n_k) < 1).any():
        raise ValueError("n_k must be >= 1")
    b = n_k if batch_size is FULL_BATCH else batch_size
    return epochs * -(-n_k // b)


def epoch_batches(n: int, batch_size: int | None, *seed_parts) -> list[np.ndarray]:
    """Index arrays of one epoch's mini-batches over n examples: slices of
    epoch_order(n, *seed_parts), the epoch last in seed_parts, and the final
    partial batch as-is. A batch that covers every row is the rows in stored
    order, and no seed is drawn.
    """
    batch = n if batch_size is FULL_BATCH else batch_size
    if batch >= n:  # shuffling one whole batch would change only how the gradient's sums round
        return [np.arange(n)]
    order = epoch_order(n, *seed_parts)
    return [order[start : start + batch] for start in range(0, n, batch)]


def epoch_order(n: int, *seed_parts) -> np.ndarray:
    """The shuffled order of n examples in the epoch that the seed parts, the epoch last, name."""
    return np.random.default_rng(derive_seed(*seed_parts)).permutation(n)


def train_local(
    w_start: np.ndarray,
    federation: Federation,
    user_id: int,
    cfg: LocalTrainingConfig,
    spec: ModelSpec,
    round_seed: int,
) -> np.ndarray:
    """Run local SGD on user_id's rows from the broadcast weights; return the trained weights.

    Each of cfg.epochs epochs takes epoch_batches(n, cfg.batch_size, round_seed, user_id, epoch).
    w_start is never mutated. An unknown user id raises ValueError.
    """
    k = federation.segments([user_id])[0]
    rows = slice(federation.offsets[k], federation.offsets[k + 1])
    X, y = federation.X[rows], federation.y[rows]
    n = len(y)
    w = np.array(w_start, dtype=np.float64, copy=True)
    if w.shape != (spec.param_count,):
        raise ValueError(f"weights have shape {w.shape}, expected ({spec.param_count},)")

    # built once per update; the views of w stay valid because w changes only in place
    buffer = np.empty_like(w)
    workspace = dict(out=buffer, layers=model._layer_views(spec, w), out_layers=model._layer_views(spec, buffer))
    try:
        for epoch in range(cfg.epochs):
            for idx in epoch_batches(n, cfg.batch_size, round_seed, user_id, epoch):
                grad = model.gradient_from_arrays(spec, w, X[idx], y[idx], **workspace)
                grad *= cfg.eta_local
                w -= grad
        # once per update: a non-finite coordinate never turns finite again
        if not np.isfinite(w).all():
            raise FloatingPointError
    except FloatingPointError:
        raise FloatingPointError(f"user {user_id}: local training diverged") from None
    return w


def train_one_step(w_start, federation: Federation, user_ids, cfg: LocalTrainingConfig, spec: ModelSpec,
                   round_seed: int) -> np.ndarray:
    """train_local's results, bit for bit, as rows of a (k, P) matrix, for users
    that each take one local step: the users of one size in one stacked gradient
    pass, each on its rows in stored order, the one batch that train_local takes.
    If a pass raises FloatingPointError or leaves a weight non-finite, they train
    one by one, and train_local names the first."""
    w_start = model._check_params(spec, w_start)
    by_size = np.argsort(federation.sizes(user_ids), kind="stable")  # a size's users consecutive
    rows, sizes = federation.rows(np.asarray(user_ids)[by_size].tolist())
    X, y = federation.X[rows], federation.y[rows]
    cuts = np.flatnonzero(np.diff(sizes, prepend=0)).tolist() + [len(user_ids)]
    first_rows = (np.cumsum(sizes) - sizes).tolist()
    G, layers = np.empty((len(user_ids), spec.param_count)), model._layer_views(spec, w_start)
    try:
        for a, b in zip(cuts, cuts[1:]):
            k, n, r = b - a, int(sizes[a]), first_rows[a]
            Xk, yk = X[r : r + k * n].reshape(k, n, -1), y[r : r + k * n].reshape(k, n)
            model.gradient_from_arrays(spec, w_start, Xk, yk, out=G[a:b], layers=layers)
        G *= cfg.eta_local
        np.subtract(w_start, G, out=G)
        diverged = not np.isfinite(G).all()
    except FloatingPointError:
        diverged = True
    if diverged:
        return np.stack([train_local(w_start, federation, u, cfg, spec, round_seed) for u in user_ids])
    W = np.empty_like(G)
    W[by_size] = G
    return W
