from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.client
from fedsim import (
    FULL_BATCH,
    ConfigError,
    Federation,
    FederationSpec,
    LocalTrainingConfig,
    ModelSpec,
    gradient_from_arrays,
    local_step_count,
    synthesize_federation,
    train_local,
    xavier_init,
)
from fedsim.client import epoch_batches, train_one_step
from fedsim.seeding import derive_seed

from conftest import LabeledExample, gaussian_examples, make_federation, reference_gradient

SPEC = ModelSpec((3, 2))


def one_user(user_id: int, n: int, seed: int = 0) -> Federation:
    """A federation of one user holding n random rows."""
    return make_federation({user_id: gaussian_examples(np.random.default_rng(seed), SPEC, n)})


class TestLocalStepCount:
    def test_ceil_formula(self):
        assert local_step_count(45, 20, 1) == 3

    def test_full_batch_single_step(self):
        assert local_step_count(10, FULL_BATCH, 1) == 1

    def test_clamped_to_one_per_epoch(self):
        assert local_step_count(1, 20, 3) == 3

    @given(
        n_k=st.integers(min_value=1, max_value=1000),
        batch=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
        epochs=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_arithmetic(self, n_k, batch, epochs):
        b = n_k if batch is None else batch
        assert local_step_count(n_k, batch, epochs) == epochs * max(math.ceil(n_k / b), 1)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            local_step_count(0, 5, 1)
        with pytest.raises(ValueError):
            local_step_count(np.array([4, 0, 2]), 5, 1)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=20),
        batch=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
        epochs=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_of_sizes_gives_each_clients_count(self, sizes, batch, epochs):
        steps = local_step_count(np.array(sizes), batch, epochs)
        assert steps.tolist() == [local_step_count(n_k, batch, epochs) for n_k in sizes]
        assert type(local_step_count(sizes[0], batch, epochs)) is int


def refuse_seed(*parts):
    raise AssertionError(f"a seed was drawn: {parts}")


class TestEpochBatches:
    @pytest.mark.parametrize("batch", [FULL_BATCH, 7, 8, 100])
    def test_a_batch_covering_every_row_is_stored_order_and_draws_no_seed(self, monkeypatch, batch):
        monkeypatch.setattr(fedsim.client, "derive_seed", refuse_seed)
        for epoch in range(5):
            assert [idx.tolist() for idx in epoch_batches(7, batch, 4, 9, epoch)] == [list(range(7))]

    @pytest.mark.parametrize("n,batch", [(11, 3), (8, 4), (2, 1)])
    def test_smaller_batches_are_slices_of_the_epoch_order(self, n, batch):
        # the seeding contract README's "Determinism and seeding" documents
        for epoch in range(3):
            order = np.random.default_rng(derive_seed(4, 9, epoch)).permutation(n).tolist()
            want = [order[start : start + batch] for start in range(0, n, batch)]
            got = epoch_batches(n, batch, 4, 9, epoch)
            assert [idx.tolist() for idx in got] == want
            assert len(got) == local_step_count(n, batch, 1)


class TestTrainLocal:
    def test_zero_eta_returns_start_exactly(self):
        fed = one_user(4, 7)
        w0 = np.random.default_rng(1).standard_normal(SPEC.param_count)
        cfg = LocalTrainingConfig(epochs=2, batch_size=3, eta_local=0.0)
        assert np.array_equal(train_local(w0, fed, 4, cfg, SPEC, round_seed=11), w0)

    def test_single_full_batch_step_matches_direct_gradient(self):
        fed = one_user(2, 9)
        w0 = np.random.default_rng(2).standard_normal(SPEC.param_count)
        cfg = LocalTrainingConfig(epochs=1, batch_size=FULL_BATCH, eta_local=0.05)
        expected = w0 - 0.05 * gradient_from_arrays(SPEC, w0, fed.X, fed.y)
        assert np.array_equal(train_local(w0, fed, 2, cfg, SPEC, round_seed=3), expected)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("epochs,batch", [(1, FULL_BATCH), (2, 3), (3, 1), (2, 4), (4, 20)])
    def test_matches_plain_loop_bit_for_bit(self, activation, epochs, batch):
        # the per-update workspace must not change a single step
        spec = ModelSpec((3, 5, 4, 2), activation=activation)
        rng = np.random.default_rng(epochs * 10 + (batch or 0))
        fed = make_federation({8: gaussian_examples(rng, spec, 11)})
        w0 = rng.standard_normal(spec.param_count)
        cfg = LocalTrainingConfig(epochs=epochs, batch_size=batch, eta_local=0.05)
        w, b = w0, 11 if batch is FULL_BATCH else batch
        for epoch in range(epochs):  # a batch that covers every row takes them in stored order
            order = np.arange(11) if b >= 11 else np.random.default_rng(derive_seed(6, 8, epoch)).permutation(11)
            for start in range(0, 11, b):
                idx = order[start : start + b]
                w = w - cfg.eta_local * reference_gradient(spec, w, fed.X[idx], fed.y[idx])
        assert train_local(w0, fed, 8, cfg, spec, round_seed=6).tobytes() == w.tobytes()

    def test_full_batch_epochs_are_plain_steps_on_stored_rows(self, monkeypatch):
        fed = one_user(3, 10)
        w0 = np.random.default_rng(5).standard_normal(SPEC.param_count)
        monkeypatch.setattr(fedsim.client, "derive_seed", refuse_seed)
        w = w0
        for _ in range(3):
            w = w - 0.2 * gradient_from_arrays(SPEC, w, fed.X, fed.y)
        cfg = LocalTrainingConfig(epochs=3, batch_size=FULL_BATCH, eta_local=0.2)
        assert train_local(w0, fed, 3, cfg, SPEC, round_seed=4).tobytes() == w.tobytes()

    def test_affine_in_eta_for_single_step(self):
        fed = one_user(2, 9)
        w0 = np.random.default_rng(2).standard_normal(SPEC.param_count)
        g = gradient_from_arrays(SPEC, w0, fed.X, fed.y)
        for eta in (0.01, 0.04, 0.5):
            cfg = LocalTrainingConfig(epochs=1, batch_size=FULL_BATCH, eta_local=eta)
            assert np.array_equal(train_local(w0, fed, 2, cfg, SPEC, round_seed=3), w0 - eta * g)

    def test_deterministic(self):
        fed = one_user(5, 12)
        w0 = np.random.default_rng(3).standard_normal(SPEC.param_count)
        cfg = LocalTrainingConfig(epochs=3, batch_size=4, eta_local=0.1)
        a = train_local(w0, fed, 5, cfg, SPEC, round_seed=7)
        b = train_local(w0, fed, 5, cfg, SPEC, round_seed=7)
        c = train_local(w0, fed, 5, cfg, SPEC, round_seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_does_not_mutate_start_weights(self):
        fed = one_user(6, 5)
        w0 = np.random.default_rng(4).standard_normal(SPEC.param_count)
        snapshot = w0.copy()
        train_local(w0, fed, 6, LocalTrainingConfig(eta_local=0.2), SPEC, round_seed=1)
        assert np.array_equal(w0, snapshot)

    def test_divergence_names_user(self):
        # one label and features of 10 make a gradient of 5 per weight, and
        # 1e308 * 5 overflows to inf
        fed = make_federation({4: [LabeledExample(np.full(3, 10.0), 1, 1.0)] * 6})
        cfg = LocalTrainingConfig(epochs=1, batch_size=FULL_BATCH, eta_local=1e308)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=r"^user 4: local training diverged$"):
            train_local(np.zeros(SPEC.param_count), fed, 4, cfg, SPEC, round_seed=1)

    def test_gradient_failure_reported_as_divergence(self, monkeypatch):
        import fedsim.model

        def failing(spec, w, X, y, **workspace):
            raise FloatingPointError("gradient produced non-finite values")

        monkeypatch.setattr(fedsim.model, "gradient_from_arrays", failing)
        fed = one_user(7, 5)
        with pytest.raises(FloatingPointError, match=r"^user 7: local training diverged$"):
            train_local(np.zeros(SPEC.param_count), fed, 7, LocalTrainingConfig(), SPEC, round_seed=0)

    def test_non_finite_gradient_mid_update_reported_as_divergence(self, monkeypatch):
        # the gradient is not checked per step: the weights are, once, at the end
        import fedsim.model

        real = fedsim.model.gradient_from_arrays
        calls = 0

        def nan_at_step_2(spec, w, X, y, *, out, **views):
            nonlocal calls
            calls += 1
            if calls == 2:
                out.fill(np.nan)
                return out
            return real(spec, w, X, y, out=out, **views)

        monkeypatch.setattr(fedsim.model, "gradient_from_arrays", nan_at_step_2)
        fed = one_user(5, 9)
        cfg = LocalTrainingConfig(epochs=2, batch_size=3, eta_local=0.1)
        with pytest.raises(FloatingPointError, match=r"^user 5: local training diverged$"):
            train_local(np.zeros(SPEC.param_count), fed, 5, cfg, SPEC, round_seed=0)
        assert calls == local_step_count(9, 3, 2) == 6

    def test_unknown_user_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown user id 9$"):
            train_local(np.zeros(SPEC.param_count), one_user(1, 4), 9, LocalTrainingConfig(), SPEC, round_seed=0)

    def test_dimension_mismatch_rejected(self):
        fed = one_user(1, 4)
        with pytest.raises(ValueError):
            train_local(np.zeros(3), fed, 1, LocalTrainingConfig(), SPEC, round_seed=0)

    @pytest.mark.parametrize("n,batch,epochs", [(7, 3, 2), (5, FULL_BATCH, 3), (4, 10, 1), (1, 1, 4)])
    def test_gradient_evaluation_count(self, n, batch, epochs, monkeypatch):
        calls = 0
        import fedsim.model

        real = fedsim.model.gradient_from_arrays

        def counting(spec, w, X, y, **workspace):
            nonlocal calls
            calls += 1
            return real(spec, w, X, y, **workspace)

        monkeypatch.setattr(fedsim.model, "gradient_from_arrays", counting)
        fed = one_user(1, n)
        cfg = LocalTrainingConfig(epochs=epochs, batch_size=batch, eta_local=0.01)
        train_local(np.zeros(SPEC.param_count), fed, 1, cfg, SPEC, round_seed=5)
        assert calls == local_step_count(n, batch, epochs)

    def test_epoch_shuffle_covers_every_example_once(self, monkeypatch):
        # each epoch must see a permutation: no example dropped or duplicated
        seen_per_epoch: list[list[float]] = []
        import fedsim.model

        def recording(spec, w, X, y, *, out, **views):
            seen_per_epoch[-1].extend(X[:, 0].tolist())
            out.fill(0.0)
            return out

        monkeypatch.setattr(fedsim.model, "gradient_from_arrays", recording)
        fed = make_federation({3: [
            LabeledExample(np.array([float(i), 0.0, 0.0]), i % 2) for i in range(11)
        ]})
        cfg = LocalTrainingConfig(epochs=3, batch_size=4, eta_local=0.1)

        epochs_marker = [0]

        def seeded(*parts_):
            seen_per_epoch.append([])
            epochs_marker[0] += 1
            return original_derive(*parts_)

        from fedsim.seeding import derive_seed as original_derive

        monkeypatch.setattr(fedsim.client, "derive_seed", seeded)
        train_local(np.zeros(SPEC.param_count), fed, 3, cfg, SPEC, round_seed=2)
        assert len(seen_per_epoch) == 3
        for epoch_values in seen_per_epoch:
            assert sorted(epoch_values) == [float(i) for i in range(11)]


class TestClientLocality:
    """A client reads only its own rows: the federation's other users change nothing."""

    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("batch", [1, 3, FULL_BATCH])
    def test_a_user_trains_alike_alone_and_among_others_bitwise(self, batch, epochs):
        spec = ModelSpec((4, 6, 2))
        made = synthesize_federation(FederationSpec(user_count=40, size_mean=4.0, size_std=3.0, feature_dim=4), 5)
        # ids out of order and not 0..K-1, so a segment index is never mistaken for a user id
        ids = np.random.default_rng(epochs).permutation(len(made.user_ids)) * 3 + 100
        federation = Federation(made.X, made.y, made.duration, ids, made.offsets, made.class_count)
        w0 = xavier_init(spec, 2)
        cfg = LocalTrainingConfig(epochs=epochs, batch_size=batch, eta_local=0.3)
        alone = {}
        for u in ids.tolist():
            rows, (n_k,) = federation.rows([u])
            own = Federation(federation.X[rows], federation.y[rows], federation.duration[rows], [u], [0, n_k], 2)
            alone[u] = train_local(w0, own, u, cfg, spec, round_seed=7)
            assert train_local(w0, federation, u, cfg, spec, round_seed=7).tobytes() == alone[u].tobytes()
        # the users that take one step here also train stacked, each as its row of train_one_step
        one_step = [u for u in ids.tolist() if local_step_count(federation.sizes([u])[0], batch, epochs) == 1]
        assert (len(one_step) > 0) == (epochs == 1)
        if one_step:
            W = train_one_step(w0, federation, one_step, cfg, spec, round_seed=7)
            assert [w.tobytes() for w in W] == [alone[u].tobytes() for u in one_step]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [{"epochs": 0}, {"batch_size": 0}, {"eta_local": -0.1}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LocalTrainingConfig(**kwargs)

    def test_zero_eta_allowed(self):
        assert LocalTrainingConfig(eta_local=0.0).eta_local == 0.0
