"""Fully-connected softmax classifier on a flat float64 parameter vector.

Parameters live in a single 1-D array laid out layer by layer, weight
matrix first (fan_in x fan_out, row-major) then bias. All public
operations are pure functions of their inputs; everything is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: layer_dims = (input dim, hidden dims..., class count)."""

    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ConfigError("layer_dims needs at least an input dim and a class count")
        if any(d < 1 for d in dims):
            raise ConfigError(f"layer_dims must be positive, got {dims}")
        if dims[-1] < 2:
            raise ConfigError("final layer must have at least 2 classes")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def class_count(self) -> int:
        return self.layer_dims[-1]

    @property
    def param_count(self) -> int:
        """Total scalar parameters: sum over layers of fan_in*fan_out + fan_out."""
        return sum(fi * fo + fo for fi, fo in zip(self.layer_dims, self.layer_dims[1:]))


def _layer_views(spec: ModelSpec, w: np.ndarray):
    """Yield (W, b) views into the flat vector, one pair per layer."""
    offset = 0
    for fi, fo in zip(spec.layer_dims, spec.layer_dims[1:]):
        weight = w[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        bias = w[offset : offset + fo]
        offset += fo
        yield weight, bias


def _check_params(spec: ModelSpec, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != spec.param_count:
        raise ValueError(f"parameter vector has length {w.shape}, expected ({spec.param_count},)")
    return w


def _activate(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(spec: ModelSpec, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        # subgradient 0 at exactly 0
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _forward_cached(spec: ModelSpec, w: np.ndarray, X: np.ndarray):
    """Run the net on a batch, keeping pre-activations for backprop.

    Returns (logits, caches) where caches[l] = (input activation, z) per
    hidden layer.
    """
    layers = list(_layer_views(spec, w))
    a = X
    caches = []
    for weight, bias in layers[:-1]:
        z = a @ weight + bias
        caches.append((a, z))
        a = _activate(spec, z)
    weight, bias = layers[-1]
    logits = a @ weight + bias
    caches.append((a, None))
    return logits, caches


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def xavier_init(spec: ModelSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)) per layer, zero biases."""
    rng = np.random.default_rng(seed)
    pieces = []
    for fi, fo in zip(spec.layer_dims, spec.layer_dims[1:]):
        limit = np.sqrt(6.0 / (fi + fo))
        pieces.append(rng.uniform(-limit, limit, size=fi * fo))
        pieces.append(np.zeros(fo))
    return np.concatenate(pieces)


def forward(spec: ModelSpec, w: np.ndarray, features) -> np.ndarray:
    """Class probability vector for a single feature vector."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != spec.feature_dim:
        raise ValueError(f"features have shape {x.shape}, expected ({spec.feature_dim},)")
    return batch_probs(spec, w, x[None, :])[0]


def batch_probs(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Probabilities for a stacked (n, feature_dim) batch."""
    w = _check_params(spec, w)
    logits, _ = _forward_cached(spec, w, X)
    probs = _softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("forward pass produced non-finite probabilities")
    return probs


def loss_from_arrays(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the batch (X, y) under the current parameters."""
    if len(y) == 0:
        raise ValueError("batch must be nonempty")
    w = _check_params(spec, w)
    logits, _ = _forward_cached(spec, w, X)
    logp = _log_softmax(logits)
    return float(-logp[np.arange(len(y)), y].mean())


def gradient_from_arrays(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Analytic gradient of `loss_from_arrays` with respect to every parameter coordinate."""
    w = _check_params(spec, w)
    n = X.shape[0]
    logits, caches = _forward_cached(spec, w, X)
    delta = _softmax(logits)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    layers = list(_layer_views(spec, w))
    grad = np.empty_like(w)
    views = list(_layer_views(spec, grad))
    for idx in range(len(layers) - 1, -1, -1):
        a_in, _ = caches[idx]
        g_w, g_b = views[idx]
        g_w[...] = a_in.T @ delta
        g_b[...] = delta.sum(axis=0)
        if idx > 0:
            weight, _ = layers[idx]
            _, z_prev = caches[idx - 1]
            delta = (delta @ weight.T) * _activate_grad(spec, z_prev, a_in)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("gradient produced non-finite values")
    return grad


def finite_difference_check(
    spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray, h: float = 1e-5
) -> float:
    """Max relative error between the analytic gradient and central differences.

    Per coordinate the relative error uses denominator max(|analytic|, |fd|, 1e-8),
    so coordinates with a true zero gradient are compared absolutely.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    w = _check_params(spec, w)
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
