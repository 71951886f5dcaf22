"""Fully-connected softmax classifier on a flat float64 parameter vector.

Parameters live in a single 1-D array laid out layer by layer, weight
matrix first (fan_in x fan_out, row-major) then bias. All public
operations are pure functions of their inputs; everything is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, is_integer

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: layer_dims = (input dim, hidden dims..., class count)."""

    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if not all(is_integer(d) and d >= 1 for d in self.layer_dims):
            raise ConfigError(f"layer_dims must be positive integers, got {tuple(self.layer_dims)}")
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ConfigError("layer_dims needs at least an input dim and a class count")
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

    @cached_property
    def layer_plan(self) -> tuple[tuple[int, int, int, tuple[int, int]], ...]:
        """Per layer (weight start, bias start, bias end, weight shape) in the flat vector."""
        plan, offset = [], 0
        for fi, fo in zip(self.layer_dims, self.layer_dims[1:]):
            plan.append((offset, offset + fi * fo, offset + fi * fo + fo, (fi, fo)))
            offset += fi * fo + fo
        return tuple(plan)

    @cached_property
    def param_count(self) -> int:
        """Total scalar parameters: sum over layers of fan_in*fan_out + fan_out."""
        return self.layer_plan[-1][2]


def _layer_views(spec: ModelSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into the flat vector, one pair per layer, behind w's leading axes."""
    return [(w[..., a:b].reshape(w.shape[:-1] + shape), w[..., b:c]) for a, b, c, shape in spec.layer_plan]


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
        return z > 0.0  # subgradient 0 at exactly 0; multiplies as 1.0 or 0.0
    return 1.0 - a * a


def _forward_cached(spec: ModelSpec, layers, X: np.ndarray):
    """Run the net with the given _layer_views on a batch, keeping
    pre-activations for backprop.

    Returns (logits, caches) where caches[l] = (input activation, z) per
    hidden layer.
    """
    a = X
    caches = []
    for weight, bias in layers[:-1]:
        z = a @ weight
        z += bias
        caches.append((a, z))
        a = _activate(spec, z)
    weight, bias = layers[-1]
    logits = a @ weight
    logits += bias
    caches.append((a, None))
    return logits, caches


def _shifted(logits: np.ndarray) -> np.ndarray:
    """logits minus each row's max, taken exactly as C-1 maxima over the class columns."""
    m = np.maximum(logits[..., 0], logits[..., 1])
    for c in range(2, logits.shape[-1]):
        np.maximum(m, logits[..., c], out=m)
    return logits - m[..., None]


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(_shifted(logits))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def xavier_init(spec: ModelSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)) per layer, zero biases."""
    rng = np.random.default_rng(seed)
    pieces = []
    for fi, fo in zip(spec.layer_dims, spec.layer_dims[1:]):
        limit = np.sqrt(6.0 / (fi + fo))
        pieces.append(rng.uniform(-limit, limit, size=fi * fo))
        pieces.append(np.zeros(fo))
    return np.concatenate(pieces)


def batch_probs(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Probabilities for a stacked (n, feature_dim) batch."""
    w = _check_params(spec, w)
    logits, _ = _forward_cached(spec, _layer_views(spec, w), X)
    probs = _softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("forward pass produced non-finite probabilities")
    return probs


def row_losses(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of every row of the batch (X, y), order preserved."""
    w = _check_params(spec, w)
    logits, _ = _forward_cached(spec, _layer_views(spec, w), X)
    shifted = _shifted(logits)
    return -(shifted[np.arange(len(y)), y] - np.log(np.add.reduce(np.exp(shifted), axis=-1)))


def loss_from_arrays(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the batch (X, y) under the current parameters."""
    if len(y) == 0:
        raise ValueError("batch must be nonempty")
    return float(row_losses(spec, w, X, y).mean())


def gradient_from_arrays(
    spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray, *, out=None, layers=None, out_layers=None
) -> np.ndarray:
    """Analytic gradient of `loss_from_arrays` with respect to every parameter coordinate.

    The hot path of local training: w must be a float64 vector of length
    spec.param_count, and neither it nor the result is checked here;
    callers check their weights once per update. Writes into and returns `out`
    (new if None); `layers` and `out_layers` are w's and out's `_layer_views`.
    Batches stacked as X (k, n, d), y (k, n) give a (k, P) out, each row bit for
    bit the 2-D call's: numpy multiplies a stack slice by slice, as in 2-D."""
    n = X.shape[-2]
    layers = _layer_views(spec, w) if layers is None else layers
    logits, caches = _forward_cached(spec, layers, X)
    delta = _softmax(logits)
    delta -= y[..., None] == np.arange(logits.shape[-1])  # minus one at the label: x - 0.0 is x
    delta /= n

    out = np.empty(X.shape[:-2] + w.shape) if out is None else out
    views = _layer_views(spec, out) if out_layers is None else out_layers
    for idx in range(len(layers) - 1, -1, -1):
        a_in, _ = caches[idx]
        g_w, g_b = views[idx]
        np.matmul(a_in.swapaxes(-1, -2), delta, out=g_w)
        np.add.reduce(delta, axis=-2, out=g_b)
        if idx > 0:
            weight, _ = layers[idx]
            _, z_prev = caches[idx - 1]
            delta = delta @ weight.T
            delta *= _activate_grad(spec, z_prev, a_in)
    return out
