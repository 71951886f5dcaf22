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

# Rows a model pass (_logits: scoring, the cohort and baseline train losses) runs through the
# layers at a time (row_blocks). One pass over every evaluation row took the paper-scale run's
# peak RSS from 67 to 108 MB; 512-row runs, to about 70 MB. On a model with hidden layers it
# is part of the output contract: a product's rows round by the product's row count.
EVAL_ROWS = 512


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: layer_dims = (input dim, hidden dims..., class count)."""

    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        dims = self.layer_dims
        if not isinstance(dims, (list, tuple, np.ndarray)) or not all(is_integer(d) and d >= 1 for d in dims):
            raise ConfigError(f"layer_dims must be positive integers, got {dims!r}")
        object.__setattr__(self, "layer_dims", dims := tuple(int(d) for d in dims))
        if len(dims) < 2:
            raise ConfigError("layer_dims needs at least an input dim and a class count")
        if dims[-1] < 2:
            raise ConfigError("final layer must have at least 2 classes")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")
        if self.param_count * 8 >= 2**63:  # numpy indexes no array of 2**63 bytes
            raise ConfigError(f"layer_dims {list(dims)} give {self.param_count} parameters, 2**63 bytes or more")

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
        raise ValueError(f"parameter vector has shape {w.shape}, expected ({spec.param_count},)")
    return w


def _activate(spec: ModelSpec, z: np.ndarray, out=None) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


def _activate_grad(spec: ModelSpec, a: np.ndarray) -> np.ndarray:
    """The activation's derivative, read from its output a."""
    if spec.activation == "relu":
        return a > 0.0  # relu(z) > 0 exactly where z > 0, NaN included; subgradient 0 at 0
    return 1.0 - a * a


def _forward_cached(spec: ModelSpec, layers, X: np.ndarray):
    """Run the net with the given _layer_views on a batch, keeping every
    layer's input for backprop.

    Returns (logits, [X, a_1, ...]): the batch, then each hidden layer's
    activation, computed in place.
    """
    acts = [X]
    for weight, bias in layers[:-1]:
        a = acts[-1] @ weight
        a += bias
        acts.append(_activate(spec, a, out=a))
    weight, bias = layers[-1]
    logits = acts[-1] @ weight
    logits += bias
    return logits, acts


def row_blocks(n: int) -> list[slice]:
    """n rows in blocks of EVAL_ROWS, in order, a one-row tail joining the block before it:
    numpy multiplies a one-row matrix with gemv, which rounds differently from gemm."""
    starts = [*range(0, max(n - 1, 1), EVAL_ROWS), n]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:])]


def _run_layers(spec: ModelSpec, layers, biases, a: np.ndarray, out: np.ndarray) -> None:
    """One block of rows a through the _layer_views into out, activations in place;
    biases holds each layer's bias tiled over at least len(a) rows."""
    for (weight, _), bias in zip(layers[:-1], biases):
        a = a @ weight
        a += bias[: len(a)]
        _activate(spec, a, out=a)
    np.matmul(a, layers[-1][0], out=out)
    out += biases[-1][: len(out)]


def _logits(spec: ModelSpec, w: np.ndarray, X: np.ndarray, rows=None) -> np.ndarray:
    """(n, C) logits of the rows of X, or of X[rows]: the one model pass of scoring and losses.
    The layers run on one row_blocks block at a time, gathered from X as it comes."""
    layers = _layer_views(spec, _check_params(spec, w))
    blocks = row_blocks(len(X) if rows is None else len(rows))
    most = max(block.stop - block.start for block in blocks)
    biases = [np.tile(bias, (most, 1)) for _, bias in layers]
    out = np.empty((blocks[-1].stop, spec.class_count))
    for block in blocks:
        _run_layers(spec, layers, biases, X[block] if rows is None else X[rows[block]], out[block])
    return out


def _shifted(logits: np.ndarray) -> np.ndarray:
    """logits minus each row's max, in place, taken exactly as C-1 maxima over the class columns."""
    m = np.maximum(logits[..., 0], logits[..., 1])
    for c in range(2, logits.shape[-1]):
        np.maximum(m, logits[..., c], out=m)
    return np.subtract(logits, m[..., None], out=logits)


def _class_sum(e: np.ndarray) -> np.ndarray:
    """e's class columns added left to right: a reduce over the short class axis may pair its
    terms in another order, and over two columns it took 23 times as long as one column add."""
    total = e[..., 0] + e[..., 1]
    for c in range(2, e.shape[-1]):
        total += e[..., c]
    return total


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis, in logits' place."""
    e = np.exp(_shifted(logits), out=logits)
    e /= _class_sum(e)[..., None]
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


def batch_probs(spec: ModelSpec, w: np.ndarray, X: np.ndarray, rows=None) -> np.ndarray:
    """Probabilities of the rows of an (n, feature_dim) X, or of X[rows], from one _logits pass."""
    probs = _softmax(_logits(spec, w, X, rows))
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("forward pass produced non-finite probabilities")
    return probs


def row_losses(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of every row of the batch (X, y), order preserved, from one _logits pass."""
    shifted = _shifted(_logits(spec, w, X))
    losses = shifted[np.arange(len(y)), y]
    losses -= np.log(_class_sum(np.exp(shifted, out=shifted)))
    return np.negative(losses, out=losses)


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
    logits, acts = _forward_cached(spec, layers, X)
    delta = _softmax(logits)
    delta -= y[..., None] == np.arange(logits.shape[-1])  # minus one at the label: x - 0.0 is x
    delta /= n

    out = np.empty(X.shape[:-2] + w.shape) if out is None else out
    views = _layer_views(spec, out) if out_layers is None else out_layers
    for idx in range(len(layers) - 1, -1, -1):
        g_w, g_b = views[idx]
        np.matmul(acts[idx].swapaxes(-1, -2), delta, out=g_w)
        np.add.reduce(delta, axis=-2, out=g_b)
        if idx > 0:
            delta = delta @ layers[idx][0].T
            delta *= _activate_grad(spec, acts[idx])
    return out
