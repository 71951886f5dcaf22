from __future__ import annotations

import contextlib
import functools
import math
import operator
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

import fedsim.model
from fedsim import POSITIVE_LABEL, Federation, ModelSpec, gradient_from_arrays, loss_from_arrays
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


def gaussian_examples(rng: np.random.Generator, spec: ModelSpec, n: int) -> list[LabeledExample]:
    """Random labeled examples matching a model spec."""
    return [
        LabeledExample(
            features=rng.standard_normal(spec.feature_dim),
            label=int(rng.integers(0, spec.class_count)),
            duration_s=float(rng.uniform(0.5, 3.0)),
        )
        for _ in range(n)
    ]


def gaussian_batch(rng: np.random.Generator, spec: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random labeled batch (X, y, duration) matching a model spec."""
    return stack(gaussian_examples(rng, spec, n))


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


def reference_gradient(spec, w, X, y) -> np.ndarray:
    """Reference for `gradient_from_arrays`: the same float operations in the
    same order, written plainly (views sliced afresh, fresh products copied
    into place), so the lean version must equal it bit for bit."""
    def views(vector):
        out, offset = [], 0
        for fi, fo in zip(spec.layer_dims, spec.layer_dims[1:]):
            out.append((vector[offset : offset + fi * fo].reshape(fi, fo),
                        vector[offset + fi * fo : offset + fi * fo + fo]))
            offset += fi * fo + fo
        return out

    layers = views(w)
    a, caches = X, []
    for weight, bias in layers[:-1]:
        z = a @ weight + bias
        caches.append((a, z))
        a = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
    logits = a @ layers[-1][0] + layers[-1][1]
    caches.append((a, None))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    delta = e / left_to_right_class_sum(e)[..., None]
    delta[np.arange(X.shape[0]), y] -= 1.0
    delta /= X.shape[0]
    grad = np.empty_like(w)
    grad_views = views(grad)
    for idx in range(len(layers) - 1, -1, -1):
        a_in, _ = caches[idx]
        grad_views[idx][0][...] = a_in.T @ delta
        grad_views[idx][1][...] = delta.sum(axis=0)
        if idx > 0:
            z_prev = caches[idx - 1][1]
            act_grad = (z_prev > 0.0).astype(np.float64) if spec.activation == "relu" else 1.0 - a_in * a_in
            delta = (delta @ layers[idx][0].T) * act_grad
    return grad


def left_to_right_sum(values) -> float:
    """The floats added in order, as on every Python version; the builtin sum()
    compensates its rounding from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def left_to_right_class_sum(e: np.ndarray) -> np.ndarray:
    """e's class columns added in order, ((e0 + e1) + e2) + ...: the class sums' fixed order,
    which a reduce over the class axis need not keep."""
    return functools.reduce(operator.add, [e[..., c] for c in range(e.shape[-1])])


@contextlib.contextmanager
def eval_rows_patched(eval_rows: int):
    """fedsim.model.EVAL_ROWS set to eval_rows. Yields a list that gains, for every model
    pass made meanwhile (model._logits), the row counts of the blocks it ran through the
    layers (model._run_layers), in order."""
    passes = []
    real_logits, real_run_layers = fedsim.model._logits, fedsim.model._run_layers

    def logits(*args):
        passes.append([])
        return real_logits(*args)

    def run_layers(spec, layers, biases, a, out):
        passes[-1].append(len(a))
        return real_run_layers(spec, layers, biases, a, out)

    with mock.patch.multiple(fedsim.model, EVAL_ROWS=eval_rows, _logits=logits, _run_layers=run_layers):
        yield passes


def brute_force_operating_point(scores, labels, durations, targets):
    """Exhaustive reference: evaluate every candidate threshold by direct counting."""
    scored = list(zip(scores.tolist(), labels.tolist(), durations.tolist()))
    pos = [s for s, label, _ in scored if label == POSITIVE_LABEL]
    neg = [(s, d) for s, label, d in scored if label != POSITIVE_LABEL]
    neg_hours = left_to_right_sum(d for _, d in neg) / 3600.0
    candidates = sorted(set(s for s, _, _ in scored))
    candidates.append(math.nextafter(1.0, 2.0))
    best = None
    for tau in candidates:
        hits = sum(1 for s in pos if s >= tau)
        false_alarms = sum(1 for s, _ in neg if s >= tau)
        recall = hits / len(pos)
        fah = false_alarms / neg_hours
        if fah > targets.fah_budget:
            continue
        if best is None or recall > best[1] or (recall == best[1] and tau > best[0]):
            best = (tau, recall, fah)
    return best


def scored(examples):
    """(scores, labels, durations) arrays of (score, label, duration) triples."""
    scores, labels, durations = zip(*examples)
    return np.array(scores, dtype=np.float64), np.array(labels, dtype=np.intp), np.array(durations)


def scored_set(rng, n, duration_low=0.5, duration_high=5.0):
    out = []
    for _ in range(n):
        out.append(
            (float(rng.random()), int(rng.integers(0, 2)), float(rng.uniform(duration_low, duration_high)))
        )
    # ensure both classes exist
    out.append((float(rng.random()), 1, 1.0))
    out.append((float(rng.random()), 0, 1.0))
    return scored(out)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240613)
