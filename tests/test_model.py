from __future__ import annotations

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.model
from fedsim import (
    ConfigError,
    ModelSpec,
    gradient_from_arrays,
    loss_from_arrays,
    score_examples,
    xavier_init,
)
from fedsim.model import ACTIVATIONS, _class_sum, _forward_cached, _layer_views, batch_probs, row_losses

from conftest import (
    LabeledExample,
    eval_rows_patched,
    finite_difference_check,
    forward,
    gaussian_batch,
    left_to_right_class_sum,
    reference_gradient,
    stack,
)


def loss(spec, w, batch) -> float:
    X, y, _ = batch
    return loss_from_arrays(spec, w, X, y)


def gradient(spec, w, batch) -> np.ndarray:
    X, y, _ = batch
    return gradient_from_arrays(spec, w, X, y)


def concat(*batches):
    return tuple(np.concatenate(columns) for columns in zip(*batches))


def reference_log_softmax(logits: np.ndarray) -> np.ndarray:
    """Reference for `row_losses`: log-softmax with the row max reduced along the
    class axis and the exponentials' sum taken left to right."""
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(left_to_right_class_sum(np.exp(logits - m)))[..., None]


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Reference for `batch_probs`: softmax with the row max reduced along the class
    axis and the exponentials' sum taken left to right."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    e /= left_to_right_class_sum(e)[..., None]
    return e


class TestModelSpec:
    def test_param_count_two_layer(self):
        assert ModelSpec((4, 8, 2)).param_count == 4 * 8 + 8 + 8 * 2 + 2 == 58

    def test_param_count_single_layer(self):
        assert ModelSpec((2, 3)).param_count == 9

    @pytest.mark.parametrize(
        "dims", [(), (4,), (4, 1), (0, 2), (4, -1, 2)], ids=repr
    )
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ConfigError):
            ModelSpec(dims)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec((2, 2), activation="gelu")


class TestXavierInit:
    def test_deterministic_given_seed(self):
        spec = ModelSpec((2, 3))
        assert np.array_equal(xavier_init(spec, 7), xavier_init(spec, 7))

    def test_seeds_differ(self):
        spec = ModelSpec((2, 3))
        assert not np.array_equal(xavier_init(spec, 7), xavier_init(spec, 8))

    def test_bounds_and_zero_biases(self):
        # layout is weights then biases: 6 weights within the fan bound, 3 zero biases
        w = xavier_init(ModelSpec((2, 3)), 123)
        limit = math.sqrt(6.0 / (2 + 3))
        assert w.shape == (9,)
        assert np.all(np.abs(w[:6]) <= limit)
        assert np.all(w[6:] == 0.0)

    def test_per_layer_bounds(self):
        spec = ModelSpec((4, 8, 2))
        w = xavier_init(spec, 5)
        first = w[: 4 * 8]
        second = w[4 * 8 + 8 : 4 * 8 + 8 + 8 * 2]
        assert np.all(np.abs(first) <= math.sqrt(6.0 / 12))
        assert np.all(np.abs(second) <= math.sqrt(6.0 / 10))


class TestForward:
    def test_zero_weights_two_classes_uniform(self):
        spec = ModelSpec((3, 2))
        probs = forward(spec, np.zeros(spec.param_count), np.array([0.3, -1.0, 2.0]))
        assert np.array_equal(probs, [0.5, 0.5])

    def test_probabilities_normalized(self, rng):
        spec = ModelSpec((4, 5, 3))
        w = rng.standard_normal(spec.param_count)
        probs = forward(spec, w, rng.standard_normal(4))
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_extreme_logits_stable(self):
        # bias-only [1, 2] model producing logits (1000, 0): no overflow, ~(1, 0)
        spec = ModelSpec((1, 2))
        w = np.array([0.0, 0.0, 1000.0, 0.0])
        with np.errstate(over="raise", invalid="raise"):
            probs = forward(spec, w, np.array([0.0]))
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs[0] >= 1.0 - 1e-12
        assert probs[1] <= 1e-12

    def test_dimension_mismatch_rejected(self):
        spec = ModelSpec((3, 2))
        with pytest.raises(ValueError):
            forward(spec, np.zeros(spec.param_count), np.zeros(4))
        with pytest.raises(ValueError):
            forward(spec, np.zeros(spec.param_count + 1), np.zeros(3))

    @given(logit=st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_never_saturates_for_moderate_logits(self, logit):
        # below the float64 rounding threshold (|gap| < ~36) softmax never
        # returns an exact 0 or 1
        spec = ModelSpec((1, 2))
        probs = forward(spec, np.array([0.0, 0.0, logit, 0.0]), np.array([0.0]))
        assert 0.0 < probs[0] < 1.0
        assert 0.0 < probs[1] < 1.0
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestLoss:
    def test_zero_weights_is_ln2(self, rng):
        spec = ModelSpec((3, 2))
        batch = gaussian_batch(rng, spec, 9)
        assert loss(spec, np.zeros(spec.param_count), batch) == pytest.approx(math.log(2), abs=1e-15)

    def test_certain_prediction_zero_loss(self):
        # huge margin toward the true class drives the cross-entropy to exactly 0
        spec = ModelSpec((1, 2))
        w = np.array([0.0, 0.0, 800.0, 0.0])
        batch = stack([LabeledExample(np.array([0.5]), 0)])
        assert loss(spec, w, batch) == 0.0

    def test_mean_decomposition(self, rng):
        spec = ModelSpec((4, 3))
        w = rng.standard_normal(spec.param_count)
        a = gaussian_batch(rng, spec, 5)
        b = gaussian_batch(rng, spec, 11)
        combined = loss(spec, w, concat(a, b))
        expected = (5 * loss(spec, w, a) + 11 * loss(spec, w, b)) / 16
        assert combined == pytest.approx(expected, abs=1e-12)

    def test_empty_batch_rejected(self):
        spec = ModelSpec((2, 2))
        with pytest.raises(ValueError):
            loss_from_arrays(spec, np.zeros(spec.param_count), np.zeros((0, 2)), np.zeros(0, dtype=np.intp))

    @given(perm_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, perm_seed):
        rng = np.random.default_rng(99)
        spec = ModelSpec((3, 4, 2))
        w = rng.standard_normal(spec.param_count) * 0.5
        batch = gaussian_batch(rng, spec, 13)
        order = np.random.default_rng(perm_seed).permutation(13)
        shuffled = tuple(column[order] for column in batch)
        assert loss(spec, w, shuffled) == pytest.approx(loss(spec, w, batch), abs=1e-12)


class TestGradient:
    def test_symmetric_zero_point_balanced_batch(self, rng):
        # equal class counts at zero weights: output-layer bias gradients vanish
        spec = ModelSpec((3, 2))
        batch = stack([
            LabeledExample(rng.standard_normal(3), label) for label in (0, 1, 0, 1, 0, 1)
        ])
        g = gradient(spec, np.zeros(spec.param_count), batch)
        assert np.allclose(g[-2:], 0.0, atol=1e-15)

    def test_duplicated_example_mean_invariance(self, rng):
        spec = ModelSpec((4, 6, 2))
        w = rng.standard_normal(spec.param_count) * 0.3
        example = gaussian_batch(rng, spec, 1)
        g_one = gradient(spec, w, example)
        g_many = gradient(spec, w, concat(*[example] * 7))
        assert np.allclose(g_one, g_many, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, activation, rng):
        spec = ModelSpec((5, 7, 3), activation=activation)
        w = rng.standard_normal(spec.param_count) * 0.6
        batch = gaussian_batch(rng, spec, 10)
        X, y, _ = batch
        assert finite_difference_check(spec, w, X, y) < 1e-5

    @given(
        dims=st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=4),
        classes=st.integers(min_value=2, max_value=5),
        activation=st.sampled_from(["relu", "tanh"]),
        n=st.integers(min_value=1, max_value=33),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, dims, classes, activation, n, seed):
        # 0-3 hidden layers; single-row batches included
        spec = ModelSpec((*dims, classes), activation=activation)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(spec.param_count) * rng.uniform(0.1, 2.0)
        X = rng.standard_normal((n, spec.feature_dim))
        y = rng.integers(0, classes, size=n)
        expected = reference_gradient(spec, w, X, y)
        assert gradient_from_arrays(spec, w, X, y).tobytes() == expected.tobytes()

    @given(
        dims=st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=4),
        classes=st.integers(min_value=2, max_value=5),
        activation=st.sampled_from(["relu", "tanh"]),
        n=st.integers(min_value=1, max_value=33),
        prebuilt=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_writes_into_the_given_buffer(self, dims, classes, activation, n, prebuilt, seed):
        # a NaN left over anywhere in the buffer would show in the bytes
        spec = ModelSpec((*dims, classes), activation=activation)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(spec.param_count)
        X = rng.standard_normal((n, spec.feature_dim))
        y = rng.integers(0, classes, size=n)
        out = np.full(spec.param_count, np.nan)
        views = dict(layers=_layer_views(spec, w), out_layers=_layer_views(spec, out)) if prebuilt else {}
        assert gradient_from_arrays(spec, w, X, y, out=out, **views) is out
        assert out.tobytes() == gradient_from_arrays(spec, w, X, y).tobytes()

    @given(
        dims=st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=4),
        classes=st.integers(min_value=2, max_value=5),
        activation=st.sampled_from(["relu", "tanh"]),
        k=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=13),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_stack_of_batches_gives_each_batchs_gradient(self, dims, classes, activation, k, n, seed):
        # (k, n, d) batches into rows 1..k of a buffer, as one-step clients train: each row bit for bit
        spec = ModelSpec((*dims, classes), activation=activation)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(spec.param_count)
        X = rng.standard_normal((k, n, spec.feature_dim))
        y = rng.integers(0, classes, size=(k, n))
        out = np.full((k + 2, spec.param_count), np.nan)
        gradient_from_arrays(spec, w, X, y, out=out[1 : k + 1], layers=_layer_views(spec, w))
        for i in range(k):
            assert out[i + 1].tobytes() == gradient_from_arrays(spec, w, X[i], y[i]).tobytes()
        assert np.isnan(out[[0, -1]]).all()

    @pytest.mark.parametrize("layer_dims", [(10, 2), (10, 32, 2), (40, 128, 128, 2)])
    def test_a_stack_matches_at_paper_shapes(self, layer_dims):
        spec = ModelSpec(layer_dims)
        rng = np.random.default_rng(len(layer_dims))
        w = xavier_init(spec, 4)
        for n in (*range(1, 14), 39, 200):
            X = rng.standard_normal((5, n, spec.feature_dim))
            y = rng.integers(0, 2, size=(5, n))
            stacked = gradient_from_arrays(spec, w, X, y)
            assert stacked.shape == (5, spec.param_count)
            for i in range(5):
                assert stacked[i].tobytes() == gradient_from_arrays(spec, w, X[i], y[i]).tobytes()

    def test_same_shape_as_weights(self, rng):
        spec = ModelSpec((3, 4, 2))
        w = rng.standard_normal(spec.param_count)
        assert gradient(spec, w, gaussian_batch(rng, spec, 4)).shape == w.shape


class TestSoftmaxFamily:
    """`row_losses` and `batch_probs` take the row max and the exponentials' sum
    column by column; they must equal a class-axis max and a left-to-right sum
    bit for bit."""

    @given(
        classes=st.integers(min_value=2, max_value=5),
        n=st.integers(min_value=1, max_value=33),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_class_axis_max_and_left_to_right_sum(self, classes, n, seed):
        # an identity layer passes X through as the logits: ties (0.0, -0.0,
        # small integers) and magnitudes up to 700 in every column
        spec = ModelSpec((classes, classes))
        rng = np.random.default_rng(seed)
        w = np.concatenate([np.eye(classes).ravel(), np.zeros(classes)])
        pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 700.0, -700.0])
        shape = (n, classes)
        X = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), rng.uniform(-700.0, 700.0, shape))
        y = rng.integers(0, classes, size=n)
        logits = X @ w[: classes * classes].reshape(classes, classes) + w[classes * classes :]
        expected_losses = -reference_log_softmax(logits)[np.arange(n), y]
        assert row_losses(spec, w, X, y).tobytes() == expected_losses.tobytes()
        assert batch_probs(spec, w, X).tobytes() == reference_softmax(logits).tobytes()

    @pytest.mark.parametrize("classes", range(2, 13))
    def test_class_sum_adds_left_to_right(self, classes):
        # magnitudes 1e-8 to 1e8, so the order of the adds shows in the bits
        rng = np.random.default_rng(classes)
        e = rng.uniform(0.0, 1.0, (240, classes)) * 10.0 ** rng.integers(-8, 9, (240, classes))
        expected = np.array([functools.reduce(operator.add, row) for row in e.tolist()])
        assert _class_sum(e).tobytes() == expected.tobytes()
        # a stack of batches, as the gradient takes them
        assert _class_sum(e.reshape(4, 60, classes)).tobytes() == expected.reshape(4, 60).tobytes()
        if classes == 2:
            assert _class_sum(e).tobytes() == np.add.reduce(e, axis=-1).tobytes()


def per_block_reference(spec, w, X, rows, eval_rows):
    """(logits, probabilities, row losses) of the rows of X, or of X[rows], as the
    model took them before it had one pass: blocks of eval_rows rows, a one-row
    tail joining the block before it, each block gathered and run through
    _forward_cached, with its own softmax and log-softmax."""
    n = len(X) if rows is None else len(rows)
    taken = np.arange(n) if rows is None else rows
    y = (np.arange(n) * 7) % spec.class_count
    logits, probs, losses = [], [], []
    for idx in np.split(np.arange(n), range(eval_rows, n - 1, eval_rows)):
        block_logits, _ = _forward_cached(spec, _layer_views(spec, w), X[taken[idx]])
        logits.append(block_logits)
        probs.append(reference_softmax(block_logits))
        losses.append(-reference_log_softmax(block_logits)[np.arange(len(idx)), y[idx]])
    return y, np.concatenate(logits), np.concatenate(probs), np.concatenate(losses)


class TestOnePass:
    """`_logits` runs the layers on EVAL_ROWS blocks of the rows, and `batch_probs`
    and `row_losses` take their softmax over its whole result: bit for bit the
    per-block passes, whatever the row count."""

    @given(
        n=st.integers(0, 1100),
        eval_rows=st.sampled_from([2, 3, 64, 512]),
        layer_dims=st.sampled_from([(10, 2), (10, 32, 2), (6, 8, 3)]),
        activation=st.sampled_from(ACTIVATIONS),
        gathered=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_block_reference(self, n, eval_rows, layer_dims, activation, gathered, seed):
        spec = ModelSpec(layer_dims, activation=activation)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(spec.param_count)
        # an index array may repeat rows and leave some out
        X = rng.standard_normal((n + 5 if gathered else n, spec.feature_dim)) * 3.0
        rows = rng.integers(0, len(X), size=n) if gathered else None
        y, logits, probs, losses = per_block_reference(spec, w, X, rows, eval_rows)
        taken = X if rows is None else X[rows]
        with eval_rows_patched(eval_rows) as passes:
            assert fedsim.model._logits(spec, w, X, rows).tobytes() == logits.tobytes()
            assert batch_probs(spec, w, X, rows).tobytes() == probs.tobytes()
            assert row_losses(spec, w, taken, y).tobytes() == losses.tobytes()
        blocks = [len(idx) for idx in np.split(np.arange(n), range(eval_rows, n - 1, eval_rows))]
        assert passes == [blocks] * 3

    @pytest.mark.parametrize("layer_dims", [(4, 3), (4, 5, 2)])
    def test_zero_rows_give_empty_results(self, layer_dims):
        spec = ModelSpec(layer_dims)
        w = np.random.default_rng(1).standard_normal(spec.param_count)
        X = np.zeros((0, 4))
        assert batch_probs(spec, w, X).shape == (0, spec.class_count)
        assert batch_probs(spec, w, np.ones((3, 4)), np.zeros(0, dtype=np.intp)).shape == (0, spec.class_count)
        assert score_examples(spec, w, X).shape == (0,)
        assert row_losses(spec, w, X, np.zeros(0, dtype=np.intp)).shape == (0,)
        with pytest.raises(ValueError):  # a wrong feature dim is still caught, as by the product
            batch_probs(spec, w, np.zeros((0, 5)))

    @pytest.mark.parametrize("layer_dims", [(4, 3), (4, 5, 2)])
    @pytest.mark.parametrize("gathered", [False, True])
    def test_one_row_takes_one_gemv_pass(self, layer_dims, gathered):
        # a one-row product goes through gemv, as _forward_cached on that one row does
        spec = ModelSpec(layer_dims)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(spec.param_count)
        X = rng.standard_normal((3 if gathered else 1, 4))
        rows = np.array([2]) if gathered else None
        one = X[2:3] if gathered else X
        expected, _ = _forward_cached(spec, _layer_views(spec, w), one)
        with eval_rows_patched(fedsim.model.EVAL_ROWS) as passes:
            probs = batch_probs(spec, w, X, rows)
            losses = row_losses(spec, w, one, np.array([1]))
        assert passes == [[1], [1]]
        assert probs.tobytes() == reference_softmax(expected).tobytes()
        assert losses.tobytes() == (-reference_log_softmax(expected)[:, 1]).tobytes()


class TestFiniteDifferenceCheck:
    def test_dead_relu_units_have_exactly_zero_error(self):
        # hidden units pinned far negative: their incoming parameters have zero
        # analytic gradient and the loss is locally flat, so fd error is 0
        spec = ModelSpec((1, 2, 2))
        w = np.zeros(spec.param_count)
        w[2:4] = -5.0  # hidden biases
        w[4:8] = [0.4, -0.2, 0.3, 0.1]  # output weights
        batch = stack([LabeledExample(np.array([1.0]), 0), LabeledExample(np.array([-0.5]), 1)])
        g = gradient(spec, w, batch)
        assert np.all(g[:4] == 0.0)
        h = 1e-5
        X, y, _ = batch

        for j in range(4):
            up, down = w.copy(), w.copy()
            up[j] += h
            down[j] -= h
            fd = (loss_from_arrays(spec, up, X, y) - loss_from_arrays(spec, down, X, y)) / (2 * h)
            assert abs(fd - g[j]) < 1e-8

    def test_halving_h_taylor_behavior(self, rng):
        spec = ModelSpec((3, 5, 2), activation="tanh")
        w = rng.standard_normal(spec.param_count) * 0.7
        X, y, _ = gaussian_batch(rng, spec, 6)
        err_h = finite_difference_check(spec, w, X, y, h=1e-4)
        err_half = finite_difference_check(spec, w, X, y, h=5e-5)
        assert err_half <= 4.0 * err_h + 1e-12

    def test_invalid_h_rejected(self, rng):
        spec = ModelSpec((2, 2))
        with pytest.raises(ValueError):
            X, y, _ = gaussian_batch(rng, spec, 2)
            finite_difference_check(spec, np.zeros(spec.param_count), X, y, h=0.0)


def test_batch_probs_matches_forward(rng):
    # batched and single-row matmuls may differ in the final ulp
    spec = ModelSpec((4, 3))
    w = rng.standard_normal(spec.param_count)
    X = rng.standard_normal((6, 4))
    stacked = batch_probs(spec, w, X)
    for i in range(6):
        assert np.allclose(stacked[i], forward(spec, w, X[i]), rtol=1e-12, atol=1e-15)
