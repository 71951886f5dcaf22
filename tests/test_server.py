from __future__ import annotations

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fedsim.model
import fedsim.server
from fedsim import (
    AveragingKind,
    AveragingStrategy,
    ConfigError,
    Federation,
    FederationSpec,
    LocalTrainingConfig,
    ModelSpec,
    RoundConfig,
    RoundRecord,
    ServerState,
    apply_adam,
    apply_plain,
    derive_seed,
    gradient_from_arrays,
    pseudo_gradient,
    run_round,
    select_clients,
    synthesize_federation,
    train_local,
    upload_cost_bytes,
    xavier_init,
)


class ScalarAdamReference:
    """Independently coded scalar Adam recurrence (bias-corrected)."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, w: float, g: float) -> float:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return w - self.lr * m_hat / (math.sqrt(v_hat) + self.eps)


class TestSelectClients:
    def test_participation_count(self):
        ids = list(range(1374))
        assert len(select_clients(ids, 0.10, round_seed=5)) == 137

    def test_full_participation_sorted(self):
        ids = [9, 3, 5, 1]
        assert select_clients(ids, 1.0, round_seed=0) == [1, 3, 5, 9]

    def test_clamped_to_minimum_one(self):
        assert len(select_clients([10, 20, 30, 40, 50], 0.01, round_seed=1)) == 1

    def test_deterministic_and_subset(self):
        ids = list(range(50))
        a = select_clients(ids, 0.3, round_seed=42)
        b = select_clients(ids, 0.3, round_seed=42)
        c = select_clients(ids, 0.3, round_seed=43)
        assert a == b and a != c
        assert a == sorted(a)
        assert len(set(a)) == len(a) == 15
        assert set(a) <= set(ids)

    @pytest.mark.parametrize("participation", [0.0, -0.1, 1.5, 2.0])
    def test_invalid_participation_rejected(self, participation):
        # select_clients and upload_cost_bytes take the participation that RoundConfig checked
        with pytest.raises(ConfigError, match=r"^participation ratio must lie in \(0, 1\]$"):
            RoundConfig(model=ModelSpec((2, 2)), participation=participation)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_clients([], 0.5, round_seed=0)

    def test_same_selection_as_the_list_sorting_version(self):
        def sorted_list_select(user_ids, participation, round_seed):
            # select_clients as it was before it sorted the ids as an array
            ids = sorted(user_ids)
            count = max(1, int(math.floor(participation * len(ids) + 0.5)))
            rng = np.random.default_rng(derive_seed(round_seed, "select"))
            return sorted(int(u) for u in rng.choice(np.array(ids), size=count, replace=False))

        rng = np.random.default_rng(21)
        for _ in range(250):
            ids = rng.permutation(rng.choice(10**6, size=int(rng.integers(1, 400)), replace=False)).tolist()
            participation, round_seed = float(rng.uniform(0.001, 1.0)), int(rng.integers(0, 2**63))
            got = select_clients(ids, participation, round_seed)
            assert got == sorted_list_select(ids, participation, round_seed)
            assert all(type(u) is int for u in got)


class TestPseudoGradient:
    def test_single_client_ignores_count(self):
        w_prev = np.array([1.0, 2.0, 3.0])
        w_k = np.array([0.5, 2.5, 3.0])
        for count in (1, 40):
            g = pseudo_gradient(w_prev, [count], [w_k])
            assert np.array_equal(g, w_prev - w_k)

    def test_two_clients_hand_weights(self):
        w_prev = np.array([2.0, -1.0])
        w1 = np.array([1.0, 0.0])
        w2 = np.array([0.0, 3.0])
        g = pseudo_gradient(w_prev, [1, 3], [w1, w2])
        expected = 0.25 * (w_prev - w1) + 0.75 * (w_prev - w2)
        assert np.array_equal(g, expected)

    def test_unchanged_clients_give_zero(self):
        w_prev = np.array([0.3, -0.7, 1.1])
        g = pseudo_gradient(w_prev, [2] * 4, [w_prev.copy() for _ in range(4)])
        assert np.array_equal(g, np.zeros(3))

    def test_streamed_sum_in_given_order(self):
        # a generator of weights gives the left-to-right sum of the same list
        rng = np.random.default_rng(8)
        w_prev = rng.standard_normal(6)
        client_ws = [rng.standard_normal(6) for _ in range(9)]
        sizes = [int(n) for n in rng.integers(1, 20, size=9)]
        expected = np.zeros(6)
        for n_k, w_k in zip(sizes, client_ws):
            expected += (n_k / sum(sizes)) * (w_prev - w_k)
        assert np.array_equal(pseudo_gradient(w_prev, sizes, iter(client_ws)), expected)
        assert np.array_equal(pseudo_gradient(w_prev, sizes, (w for w in client_ws)), expected)

    def test_linear_in_deltas_power_of_two_exact(self):
        # zero previous weights make each delta exactly representable, so
        # power-of-two scaling must commute with aggregation bitwise
        rng = np.random.default_rng(9)
        w_prev = np.zeros(5)
        deltas = [rng.standard_normal(5) for _ in range(3)]
        sizes = [1, 2, 3]
        base = pseudo_gradient(w_prev, sizes, [-d for d in deltas])
        for alpha in (2.0, 0.5, 4.0):
            assert np.array_equal(pseudo_gradient(w_prev, sizes, [-alpha * d for d in deltas]), alpha * base)

    def test_linear_in_deltas_general_close(self):
        rng = np.random.default_rng(10)
        w_prev = rng.standard_normal(5)
        client_ws = [rng.standard_normal(5) for _ in range(4)]
        sizes = [2, 3, 4, 5]
        base = pseudo_gradient(w_prev, sizes, client_ws)
        alpha = 3.7
        scaled = [w_prev - alpha * (w_prev - w_k) for w_k in client_ws]
        assert np.allclose(pseudo_gradient(w_prev, sizes, scaled), alpha * base, rtol=1e-12)

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ValueError):
            pseudo_gradient(np.zeros(3), [], [])
        with pytest.raises(ValueError):
            pseudo_gradient(np.zeros(3), [1], [np.zeros(4)])

    @pytest.mark.parametrize("sizes,count", [([1, 2], 1), ([1], 2), ([4, 1, 2], 2)])
    def test_count_mismatch_rejected(self, sizes, count):
        with pytest.raises(ValueError):
            pseudo_gradient(np.zeros(3), sizes, (np.ones(3) for _ in range(count)))


class TestServerState:
    @pytest.mark.parametrize("name", ["weights", "m", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_or_moments_refused(self, name, bad):
        # the one finiteness check: a step builds its state with dataclasses.replace
        state = ServerState.initial(np.zeros(3))
        value = np.array([0.0, bad, 0.0])
        with pytest.raises(FloatingPointError, match="^server weights or Adam moments not finite$"):
            replace(state, **{name: value})
        with pytest.raises(FloatingPointError, match="^server weights or Adam moments not finite$"):
            ServerState(**{"weights": np.zeros(3), name: value})


class TestApplyPlain:
    def test_unit_rate_equal_sizes_is_mean(self):
        rng = np.random.default_rng(11)
        w_prev = rng.standard_normal(4)
        client_ws = [rng.standard_normal(4) for _ in range(5)]
        g = pseudo_gradient(w_prev, [7] * len(client_ws), client_ws)
        state = apply_plain(ServerState.initial(w_prev), g, AveragingStrategy.plain(1.0))
        assert np.allclose(state.weights, np.mean(client_ws, axis=0), atol=1e-12)

    def test_zero_gradient_keeps_weights(self):
        w = np.array([0.1, 0.2])
        state = apply_plain(ServerState.initial(w), np.zeros(2), AveragingStrategy.plain(1.0))
        assert np.array_equal(state.weights, w)
        assert state.round == 1

    def test_half_rate_single_client_midpoint(self):
        w_prev = np.array([2.0, 0.0])
        w_k = np.array([0.0, 4.0])
        g = pseudo_gradient(w_prev, [3], [w_k])
        state = apply_plain(ServerState.initial(w_prev), g, AveragingStrategy.plain(0.5))
        assert np.allclose(state.weights, [1.0, 2.0], atol=1e-15)

    def test_moments_untouched(self):
        state0 = ServerState.initial(np.zeros(3))
        state1 = apply_plain(state0, np.ones(3), AveragingStrategy.plain(1.0))
        assert np.array_equal(state1.m, np.zeros(3))
        assert np.array_equal(state1.v, np.zeros(3))
        assert state1.round == 1

    def test_unit_rate_convex_combination_coordinatewise(self):
        rng = np.random.default_rng(12)
        w_prev = rng.standard_normal(6)
        client_ws = [rng.standard_normal(6) for _ in range(4)]
        counts = [1, 5, 2, 9]
        g = pseudo_gradient(w_prev, counts, client_ws)
        state = apply_plain(ServerState.initial(w_prev), g, AveragingStrategy.plain(1.0))
        lo = np.min(client_ws, axis=0)
        hi = np.max(client_ws, axis=0)
        assert np.all(state.weights >= lo - 1e-12)
        assert np.all(state.weights <= hi + 1e-12)


class TestApplyAdam:
    def test_zero_gradient_first_round_is_identity(self):
        w = np.array([0.4, -0.4])
        state = apply_adam(ServerState.initial(w), np.zeros(2), AveragingStrategy.adam(1e-3))
        assert np.array_equal(state.weights, w)
        assert np.array_equal(state.m, np.zeros(2))
        assert np.array_equal(state.v, np.zeros(2))
        assert state.round == 1

    def test_first_round_scalar_magnitude(self):
        # after bias correction the first step is ~eta * sign(g)
        state = apply_adam(
            ServerState.initial(np.zeros(1)), np.array([0.5]), AveragingStrategy.adam(1e-3)
        )
        expected = 1e-3 * 0.5 / (0.5 + 1e-8)
        assert state.weights[0] == pytest.approx(-expected, abs=1e-12)
        assert abs(state.weights[0]) == pytest.approx(1e-3, rel=1e-6)

    def test_two_round_scalar_trace_matches_reference(self):
        strategy = AveragingStrategy.adam(0.01)
        reference = ScalarAdamReference(0.01)
        state = ServerState.initial(np.zeros(1))
        w_ref = 0.0
        for g in (1.0, 1.0):
            state = apply_adam(state, np.array([g]), strategy)
            w_ref = reference.step(w_ref, g)
            assert state.weights[0] == pytest.approx(w_ref, abs=1e-12)

    def test_moments_persist_and_stay_valid(self):
        rng = np.random.default_rng(13)
        strategy = AveragingStrategy.adam(1e-3)
        state = ServerState.initial(np.zeros(5))
        max_g_norm = 0.0
        for _ in range(40):
            g = rng.standard_normal(5)
            max_g_norm = max(max_g_norm, float(np.linalg.norm(g)))
            state = apply_adam(state, g, strategy)
            assert np.all(state.v >= 0.0)
            assert np.linalg.norm(state.m) <= max_g_norm + 1e-12
        assert state.round == 40

    def test_bias_correction_step_is_round_plus_one(self):
        strategy = AveragingStrategy.adam(0.01)
        reference = ScalarAdamReference(0.01)
        reference.t = 4  # four steps taken, moments still zero
        state = apply_adam(replace(ServerState.initial(np.zeros(1)), round=4), np.array([1.0]), strategy)
        assert state.round == 5
        assert state.weights[0] == pytest.approx(reference.step(0.0, 1.0), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_adam(ServerState.initial(np.zeros(2)), np.zeros(3), AveragingStrategy.adam())


class TestUploadCost:
    def test_hundred_round_figure(self):
        # 190,852 float32 parameters, 10% participation, 100 rounds
        cost = upload_cost_bytes(190852, 0.10, 100)
        assert cost == 7_634_080
        assert abs(cost / 1e6 - 8.0) / 8.0 < 0.10

    def test_four_hundred_round_figure(self):
        cost = upload_cost_bytes(190852, 0.10, 400)
        assert cost == 30_536_320
        assert abs(cost / 1e6 - 32.0) / 32.0 < 0.10

    def test_zero_rounds(self):
        assert upload_cost_bytes(190852, 0.10, 0) == 0

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigError):
            upload_cost_bytes(0, 0.1, 10)
        with pytest.raises(ConfigError):
            upload_cost_bytes(100, 0.1, -1)


def small_setup(seed: int = 0, users: int = 10):
    fed_spec = FederationSpec(
        user_count=users, size_mean=8.0, size_std=5.0, feature_dim=3, user_shift_scale=0.5
    )
    federation = synthesize_federation(fed_spec, seed=seed)
    spec = ModelSpec((3, 2))
    return federation, spec


class TestRunRound:
    def test_fedsgd_round_equals_pooled_gradient_step(self):
        federation, spec = small_setup()
        eta_local = 0.07
        cfg = RoundConfig(
            participation=0.6,
            local=LocalTrainingConfig(epochs=1, batch_size=None, eta_local=eta_local),
            strategy=AveragingStrategy.plain(1.0),
            model=spec,
        )
        state = ServerState.initial(xavier_init(spec, 3))
        state, record = run_round(state, federation, list(federation.user_ids), cfg, round_seed=17)
        rows, _ = federation.rows(record.selected_users)
        X, y = federation.X[rows], federation.y[rows]
        expected = ServerState.initial(xavier_init(spec, 3)).weights - eta_local * gradient_from_arrays(
            spec, xavier_init(spec, 3), X, y
        )
        assert np.max(np.abs(state.weights - expected)) < 1e-10

    def test_zero_local_rate_is_identity_under_plain(self):
        federation, spec = small_setup(seed=2)
        cfg = RoundConfig(
            participation=0.5,
            local=LocalTrainingConfig(epochs=2, batch_size=3, eta_local=0.0),
            strategy=AveragingStrategy.plain(1.0),
            model=spec,
        )
        w0 = xavier_init(spec, 5)
        state, record = run_round(ServerState.initial(w0), federation, list(federation.user_ids), cfg, 9)
        assert np.array_equal(state.weights, w0)
        assert record.pseudo_gradient_norm == 0.0

    def test_round_record_bookkeeping(self, monkeypatch):
        federation, _ = small_setup(seed=4)
        spec = ModelSpec((3, 64, 64, 2))  # 4,546 coordinates: the norm sums pairwise
        cfg = RoundConfig(
            participation=0.4,
            local=LocalTrainingConfig(epochs=1, batch_size=4, eta_local=0.05),
            strategy=AveragingStrategy.adam(1e-3),
            model=spec,
        )
        real, grads = fedsim.server.pseudo_gradient, []

        def recorded(*args):
            grads.append(real(*args))
            return grads[-1]

        monkeypatch.setattr(fedsim.server, "pseudo_gradient", recorded)
        state0 = ServerState.initial(xavier_init(spec, 1))
        state, record = run_round(state0, federation, list(federation.user_ids), cfg, 23)
        assert record.round == state.round == 1
        assert record.n_r == federation.sizes(record.selected_users).sum()
        assert record.selected_users == tuple(sorted(record.selected_users))
        # the 2-norm of the pseudo-gradient the round applied, against an exactly rounded sum of squares
        (grad,) = grads
        norm = math.sqrt(math.fsum(g * g for g in grad.tolist()))
        assert norm > 0.0
        assert record.pseudo_gradient_norm == pytest.approx(norm, rel=1e-12, abs=0.0)

    def test_train_user_order_invariant_bitwise(self):
        federation, spec = small_setup(seed=8, users=12)
        cfg = RoundConfig(
            participation=0.5,
            local=LocalTrainingConfig(epochs=2, batch_size=3, eta_local=0.1),
            strategy=AveragingStrategy.adam(1e-2),
            model=spec,
        )
        ids = [int(u) for u in federation.user_ids]
        shuffled = list(ids)
        np.random.default_rng(8).shuffle(shuffled)
        assert shuffled != ids
        state = ServerState.initial(xavier_init(spec, 4))
        a_state, a_record = run_round(state, federation, ids, cfg, 31)
        b_state, b_record = run_round(state, federation, shuffled, cfg, 31)
        for name in ("weights", "m", "v"):
            assert np.array_equal(getattr(a_state, name), getattr(b_state, name))
        assert a_state.round == b_state.round
        assert a_record == b_record

    def test_clients_stream_into_the_sum(self, monkeypatch):
        # clients train in ascending user id, and a client's weights are
        # freed once added: at most one earlier client's are alive when the
        # next client starts
        federation, spec = small_setup(seed=5, users=8)
        cfg = RoundConfig(
            participation=1.0,
            local=LocalTrainingConfig(epochs=1, batch_size=3, eta_local=0.05),
            strategy=AveragingStrategy.adam(1e-3),
            model=spec,
        )
        real = fedsim.server.train_local
        results, alive_at_start, order = [], [], []

        def tracking(w_start, federation, user_id, *args):
            alive_at_start.append(sum(ref() is not None for ref in results))
            order.append(user_id)
            out = real(w_start, federation, user_id, *args)
            results.append(weakref.ref(out))
            return out

        monkeypatch.setattr(fedsim.server, "train_local", tracking)
        _, record = run_round(ServerState.initial(xavier_init(spec, 6)), federation, list(federation.user_ids), cfg, 3)
        assert order == list(record.selected_users) == sorted(order)
        assert len(alive_at_start) == 8
        assert max(alive_at_start) <= 1

    def test_client_divergence_names_round_and_user(self):
        # with a hidden layer the first huge step makes the next gradient
        # non-finite, which train_local reports as its user's divergence
        federation, _ = small_setup(seed=3)
        spec = ModelSpec((3, 4, 2))
        cfg = RoundConfig(
            participation=1.0,
            local=LocalTrainingConfig(epochs=1, batch_size=2, eta_local=1e300),
            strategy=AveragingStrategy.adam(),
            model=spec,
        )
        state = replace(ServerState.initial(xavier_init(spec, 2)), round=4)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^round 5: diverged; user \d+: local training diverged$"
        ):
            run_round(state, federation, list(federation.user_ids), cfg, 5)

    @pytest.mark.parametrize("strategy", [AveragingStrategy.adam(1e-3), AveragingStrategy.plain(1.0)])
    @pytest.mark.parametrize("errstate", [{"all": "ignore"}, {"over": "raise"}])
    def test_overflowing_pseudo_gradient_stops_the_round(self, strategy, errstate):
        # client weights of order 1e200 stay finite, but the pseudo-gradient
        # norm and Adam's second moment overflow to inf, or raise where numpy is set to
        federation, spec = small_setup(seed=3)
        cfg = RoundConfig(
            participation=1.0,
            local=LocalTrainingConfig(epochs=1, batch_size=None, eta_local=1e200),
            strategy=strategy,
            model=spec,
        )
        state = replace(ServerState.initial(xavier_init(spec, 2)), round=4)
        with np.errstate(**errstate), pytest.raises(FloatingPointError, match="round 5: diverged"):
            run_round(state, federation, list(federation.user_ids), cfg, 5)

    @pytest.mark.parametrize(
        "strategy, cause",
        [
            # Adam's second moment overflows to inf
            (AveragingStrategy.adam(1e-3), "server weights or Adam moments not finite"),
            # the plain rule keeps the weights finite; only the norm overflows
            (AveragingStrategy.plain(1.0), "pseudo-gradient norm not finite"),
        ],
    )
    def test_overflowing_pseudo_gradient_names_its_cause(self, strategy, cause):
        federation, spec = small_setup(seed=3)
        cfg = RoundConfig(
            participation=1.0,
            local=LocalTrainingConfig(epochs=1, batch_size=None, eta_local=1e200),
            strategy=strategy,
            model=spec,
        )
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=rf"^round 1: diverged; {cause}$"):
            run_round(ServerState.initial(xavier_init(spec, 2)), federation, list(federation.user_ids), cfg, 5)

    def test_dimension_mismatch_rejected(self):
        federation, spec = small_setup(seed=7)
        cfg = RoundConfig(
            participation=0.5,
            local=LocalTrainingConfig(),
            strategy=AveragingStrategy.plain(),
            model=spec,
        )
        with pytest.raises(ValueError):
            run_round(ServerState.initial(np.zeros(3)), federation, list(federation.user_ids), cfg, 0)


class TestStrategyValidation:
    def test_defaults(self):
        s = AveragingStrategy.adam()
        assert (s.beta1, s.beta2, s.epsilon) == (0.9, 0.999, 1e-8)
        assert s.kind is AveragingKind.ADAM

    def test_string_kind_coerced(self):
        assert AveragingStrategy(kind="plain").kind is AveragingKind.PLAIN

    @pytest.mark.parametrize(
        "kwargs",
        [{"eta_global": 0.0}, {"beta1": 1.0}, {"beta2": -0.1}, {"epsilon": 0.0}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AveragingStrategy(kind="adam", **kwargs)


def one_row_federation(layer_dims, seed: int, users: int = 60) -> Federation:
    """A federation for the model's dims whose users hold 1 to about 15 rows, some of them one."""
    federation = synthesize_federation(
        FederationSpec(user_count=users, size_mean=4.0, size_std=4.0, feature_dim=layer_dims[0],
                       class_count=layer_dims[-1], positive_rate=0.3),
        seed=seed,
    )
    assert (np.diff(federation.offsets) == 1).sum() >= 3
    return federation


def per_client_round(state, federation, user_ids, cfg, round_seed):
    """run_round as one train_local call per client, its delta summed in a plain loop."""
    selected = select_clients(user_ids, cfg.participation, round_seed)
    sizes = federation.sizes(selected).tolist()
    grad = np.zeros_like(state.weights)
    for n_k, u in zip(sizes, selected):
        w_k = train_local(state.weights, federation, u, cfg.local, cfg.model, round_seed)
        grad += (n_k / sum(sizes)) * (state.weights - w_k)
    new_state = (apply_adam if cfg.strategy.kind is AveragingKind.ADAM else apply_plain)(state, grad, cfg.strategy)
    return new_state, RoundRecord(new_state.round, tuple(selected), sum(sizes), math.sqrt(np.add.reduce(grad * grad)))


class TestStackedOneStepRounds:
    """Rounds whose clients each take one local step train in stacked passes,
    with train_local's and the per-client sum's results bit for bit."""

    @pytest.mark.parametrize("eval_rows", [16, 512])
    @pytest.mark.parametrize("participation", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("layer_dims", [(10, 2), (10, 32, 2), (6, 8, 3)])
    def test_equals_per_client_rounds_bitwise(self, monkeypatch, layer_dims, participation, eval_rows):
        # EVAL_ROWS 16 cuts a cohort into several blocks; 512, each of these cohorts into one
        monkeypatch.setattr(fedsim.model, "EVAL_ROWS", eval_rows)
        federation, spec = one_row_federation(layer_dims, seed=len(layer_dims)), ModelSpec(layer_dims)
        batch = None if participation < 1.0 else 64  # a batch that covers every partition is one step too
        cfg = RoundConfig(model=spec, local=LocalTrainingConfig(epochs=1, batch_size=batch, eta_local=0.3),
                          strategy=AveragingStrategy.adam(0.01), participation=participation)
        calls, blocks, real = [], [], fedsim.server.train_one_step
        monkeypatch.setattr(fedsim.server, "train_local", lambda *args: calls.append(args))
        monkeypatch.setattr(fedsim.server, "train_one_step", lambda *args: blocks.append(args) or real(*args))
        users = federation.user_ids.tolist()
        stacked = reference = ServerState.initial(xavier_init(spec, 1))
        for t in range(1, 4):
            stacked, record = run_round(stacked, federation, users, cfg, round_seed=t)
            reference, expected = per_client_round(reference, federation, users, cfg, round_seed=t)
            for name in ("weights", "m", "v"):
                assert getattr(stacked, name).tobytes() == getattr(reference, name).tobytes()
            assert record == expected
        assert calls == []
        assert len(blocks) > 3 if eval_rows == 16 else len(blocks) == 3  # three rounds

    @pytest.mark.parametrize("eval_rows", [4, 512])
    @pytest.mark.parametrize("errstate", [{"all": "ignore"}, {"over": "raise", "invalid": "raise"}])
    def test_divergence_names_the_first_diverged_user(self, monkeypatch, eval_rows, errstate):
        # users 5 and 11 hold features that overflow the logits; the other users' steps stay finite
        monkeypatch.setattr(fedsim.model, "EVAL_ROWS", eval_rows)
        federation, spec = one_row_federation((3, 2), seed=2), ModelSpec((3, 2))
        X = federation.X.copy()
        for u in (11, 5):
            k = federation.segments([u])[0]
            X[federation.offsets[k] : federation.offsets[k + 1]] = 1e308
        federation = Federation(X, federation.y, federation.duration, federation.user_ids, federation.offsets, 2)
        cfg = RoundConfig(model=spec, local=LocalTrainingConfig(), participation=1.0)
        state = ServerState.initial(xavier_init(spec, 1))
        real, blocks = fedsim.server.train_one_step, []
        monkeypatch.setattr(fedsim.server, "train_one_step", lambda *args: blocks.append(args) or real(*args))
        with np.errstate(**errstate), pytest.raises(
            FloatingPointError, match=r"^round 1: diverged; user 5: local training diverged$"
        ):
            run_round(state, federation, federation.user_ids.tolist(), cfg, round_seed=3)
        # EVAL_ROWS 4 cuts the clients before user 5 from its block; 512 trains them all in one
        assert len(blocks) >= 2 if eval_rows == 4 else len(blocks) == 1

    def test_a_client_with_two_steps_sends_every_client_through_train_local(self, monkeypatch):
        federation, spec = one_row_federation((3, 2), seed=4), ModelSpec((3, 2))
        sizes = np.diff(federation.offsets)
        batch = int(sizes.max()) - 1  # the largest partition alone takes two steps
        cfg = RoundConfig(model=spec, local=LocalTrainingConfig(epochs=1, batch_size=batch), participation=1.0)
        assert (sizes <= batch).sum() == len(sizes) - 1
        real, trained = fedsim.server.train_local, []

        def counting(w_start, federation, user_id, *args):
            trained.append(user_id)
            return real(w_start, federation, user_id, *args)

        monkeypatch.setattr(fedsim.server, "train_local", counting)
        _, record = run_round(ServerState.initial(xavier_init(spec, 2)), federation,
                              federation.user_ids.tolist(), cfg, round_seed=5)
        assert trained == list(record.selected_users) == sorted(federation.user_ids.tolist())

    def test_block_sum_equals_the_client_loop_bitwise(self):
        # pseudo_gradient's (k, P) blocks add their rows in order, as a loop over clients would
        rng = np.random.default_rng(13)
        for _ in range(300):
            P, k = int(rng.choice([4, 5, 22, 300])), int(rng.integers(1, 150))
            w_prev = rng.standard_normal(P) * 10.0 ** int(rng.integers(-3, 3))
            W = w_prev + rng.standard_normal((k, P)) * 10.0 ** int(rng.integers(-8, 0))
            sizes = rng.integers(1, 300, k).tolist()
            expected = np.zeros(P)
            for n_k, w_k in zip(sizes, W):
                expected += (n_k / sum(sizes)) * (w_prev - w_k)
            cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 1, int(rng.integers(0, 6))), replace=False))
            assert pseudo_gradient(w_prev, sizes, np.split(W, cuts)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layer_dims", [(10, 2), (10, 32, 2)])
    def test_a_block_holds_one_run_of_at_most_eval_rows_squared_floats(self, monkeypatch, layer_dims):
        # one-row clients: the row cut alone would stack up to EVAL_ROWS of them
        monkeypatch.setattr(fedsim.model, "EVAL_ROWS", 16)
        spec = ModelSpec(layer_dims)
        federation = synthesize_federation(FederationSpec(user_count=90, size_mean=1.0, size_std=0.0), seed=1)
        real, blocks = fedsim.server.train_one_step, []

        def recording(w_start, federation, user_ids, *args):
            blocks.append(list(user_ids))
            return real(w_start, federation, user_ids, *args)

        monkeypatch.setattr(fedsim.server, "train_one_step", recording)
        cfg = RoundConfig(model=spec, local=LocalTrainingConfig(), participation=1.0)
        run_round(ServerState.initial(xavier_init(spec, 1)), federation, federation.user_ids.tolist(), cfg, 2)
        most = max(1, 16 * 16 // spec.param_count)
        assert [u for block in blocks for u in block] == list(range(90))
        assert max(map(len, blocks)) == min(most, 16)
