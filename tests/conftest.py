from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from fedsim import ClientPartition, Federation, ModelSpec, gradient_from_arrays, loss_from_arrays
from fedsim.model import batch_probs


class LabeledExample(NamedTuple):
    """One example as a test spells it out; fedsim stores examples column-wise."""

    features: np.ndarray
    label: int
    duration_s: float = 0.0


def stack(examples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, y, duration) arrays holding the examples as rows, in order."""
    X = np.array([np.asarray(ex.features, dtype=np.float64) for ex in examples]).reshape(len(examples), -1)
    y = np.array([ex.label for ex in examples], dtype=np.intp)
    duration = np.array([ex.duration_s for ex in examples], dtype=np.float64)
    return X, y, duration


def make_partition(user_id: int, examples) -> ClientPartition:
    return ClientPartition(user_id, *stack(examples))


def make_federation(partitions: dict, class_count: int = 2) -> Federation:
    """Federation of {user_id: [LabeledExample, ...]}, users in dict order."""
    examples = [ex for exs in partitions.values() for ex in exs]
    X, y, duration = stack(examples)
    offsets = np.concatenate(([0], np.cumsum([len(exs) for exs in partitions.values()])))
    return Federation(
        X=X,
        y=y,
        duration=duration,
        user_ids=np.array(list(partitions), dtype=np.intp),
        offsets=offsets,
        class_count=class_count,
    )


def gaussian_batch(rng: np.random.Generator, spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random labeled batch (X, y, duration) matching a model spec."""
    return stack(
        [
            LabeledExample(
                features=rng.standard_normal(spec.feature_dim),
                label=int(rng.integers(0, spec.class_count)),
                duration_s=float(rng.uniform(0.5, 3.0)),
            )
            for _ in range(n)
        ]
    )


def forward(spec: ModelSpec, w: np.ndarray, features) -> np.ndarray:
    """Class probabilities for one feature vector: the row-by-row reference
    for the batched passes."""
    return batch_probs(spec, w, np.asarray(features, dtype=np.float64)[None, :])[0]


def finite_difference_check(
    spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray, h: float = 1e-5
) -> float:
    """Max relative error between the analytic gradient and central differences.

    Per coordinate the relative error uses denominator max(|analytic|, |fd|, 1e-8),
    so coordinates with a true zero gradient are compared absolutely.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    w = np.asarray(w, dtype=np.float64)
    analytic = gradient_from_arrays(spec, w, X, y)
    worst = 0.0
    for j in range(w.shape[0]):
        bumped = w.copy()
        bumped[j] = w[j] + h
        up = loss_from_arrays(spec, bumped, X, y)
        bumped[j] = w[j] - h
        down = loss_from_arrays(spec, bumped, X, y)
        fd = (up - down) / (2.0 * h)
        denom = max(abs(analytic[j]), abs(fd), 1e-8)
        worst = max(worst, abs(analytic[j] - fd) / denom)
    return worst


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240613)
