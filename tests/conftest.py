from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from fedsim import ClientPartition, Federation, ModelSpec


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240613)
