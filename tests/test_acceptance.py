"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are fixed here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.model
from fedsim import (
    AveragingStrategy,
    FederationSpec,
    LocalTrainingConfig,
    ModelSpec,
    ServerState,
    apply_adam,
    gradient_from_arrays,
    local_step_count,
    select_clients,
    synthesize_federation,
    train_local,
    upload_cost_bytes,
    xavier_init,
)
from fedsim.experiment import config_from_dict, run_experiment
from fedsim.server import RoundConfig, run_round

from conftest import (
    LabeledExample,
    brute_force_operating_point,
    finite_difference_check,
    make_federation,
    scored_set,
    stack,
)
from fedsim.evaluation import EvalTargets, operating_point


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} ({title}): FAIL")
                raise
            print(f"[acceptance] criterion {num:2d} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "gradient correctness")
def test_gradient_correctness_randomized():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    shapes = [(3, 2), (5, 3), (8, 16, 2), (4, 8, 2), (6, 4, 3), (2, 2)]
    for _ in range(50):
        dims = shapes[rng.integers(0, len(shapes))]
        spec = ModelSpec(dims)
        w = rng.standard_normal(spec.param_count) * 0.5
        n = int(rng.integers(1, 33))
        X, y, _ = stack([
            LabeledExample(rng.standard_normal(spec.feature_dim), int(rng.integers(0, spec.class_count)))
            for _ in range(n)
        ])
        assert finite_difference_check(spec, w, X, y) < 1e-5
    assert time.perf_counter() - start < 10.0


@criterion(2, "FedSGD oracle equivalence")
def test_fedsgd_pooled_gradient_equivalence():
    start = time.perf_counter()
    spec = ModelSpec((4, 2))
    fed_spec = FederationSpec(
        user_count=12, size_mean=10.0, size_std=6.0, feature_dim=4, user_shift_scale=1.0
    )
    federation = synthesize_federation(fed_spec, seed=55)
    eta_local = 0.05
    cfg = RoundConfig(
        participation=0.5,
        local=LocalTrainingConfig(epochs=1, batch_size=None, eta_local=eta_local),
        strategy=AveragingStrategy.plain(1.0),
        model=spec,
    )
    state = ServerState.initial(xavier_init(spec, 8))
    for t in range(20):
        w_prev = state.weights.copy()
        state, record = run_round(state, federation, list(federation.user_ids), cfg, 7000 + t)
        rows, _ = federation.rows(record.selected_users)
        X, y = federation.X[rows], federation.y[rows]
        expected = w_prev - eta_local * gradient_from_arrays(spec, w_prev, X, y)
        assert np.max(np.abs(state.weights - expected)) < 1e-10
    assert time.perf_counter() - start < 10.0


@criterion(3, "Adam trace equivalence")
def test_adam_scalar_trace_100_rounds():
    # independently coded scalar Adam recurrence, plain Python floats
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    m = v = 0.0
    w_ref = 0.3
    rng = np.random.default_rng(303)
    pseudo_gradients = [float(g) for g in rng.standard_normal(100)]

    strategy = AveragingStrategy.adam(lr)
    state = ServerState.initial(np.array([0.3]))
    for t, g in enumerate(pseudo_gradients, start=1):
        state = apply_adam(state, np.array([g]), strategy)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w_ref = w_ref - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert abs(state.weights[0] - w_ref) < 1e-12
        assert abs(state.m[0] - m) < 1e-12
        assert abs(state.v[0] - v) < 1e-12


@criterion(4, "communication cost figures")
def test_upload_cost_reproduces_reported_figures():
    hundred = upload_cost_bytes(190852, 0.10, 100)
    assert hundred == 7_634_080
    assert abs(hundred / 1e6 - 8.0) / 8.0 <= 0.10

    four_hundred = upload_cost_bytes(190852, 0.10, 400)
    assert four_hundred == 30_536_320
    assert abs(four_hundred / 1e6 - 30.5) < 0.05
    assert abs(four_hundred / 1e6 - 32.0) / 32.0 <= 0.10

    assert upload_cost_bytes(190852, 0.10, 0) == 0


@criterion(5, "selection count")
def test_selected_updates_per_round():
    assert len(select_clients(list(range(1374)), 0.10, round_seed=12)) == 137


def _trend_raw(seed: int) -> dict:
    return {
        "federation": {
            "synthesize": {
                "user_count": 200,
                "size_mean": 39.0,
                "size_std": 32.0,
                "positive_rate": 0.18,
                "feature_dim": 10,
                "user_shift_scale": 1.0,
            }
        },
        "model": {"layer_dims": [10, 2]},
        "local": {"epochs": 1, "batch_size": None, "eta_local": 0.001},
        "strategy": {"kind": "adam", "eta_global": 0.005},
        "participation": 0.1,
        "max_rounds": 300,
        "targets": {"fah_budget": 5.0, "recall_target": 0.80},
        "master_seed": seed,
        "eval_mode": "pooled",
    }


@criterion(6, "adaptive vs plain averaging trend")
def test_adam_averaging_halves_rounds_to_target():
    start = time.perf_counter()
    for seed in (1, 2, 3):
        raw = _trend_raw(seed)
        adam_rounds = run_experiment(config_from_dict(raw)).report["rounds_to_target"]
        assert adam_rounds is not None, f"seed {seed}: adaptive run never reached the threshold"

        plain = dict(raw)
        plain["strategy"] = {"kind": "plain", "eta_global": 1.0}
        plain["max_rounds"] = 2 * adam_rounds
        plain_rounds = run_experiment(config_from_dict(plain)).report["rounds_to_target"]
        # not reaching within 2x the adaptive rounds also satisfies the bound
        assert plain_rounds is None or adam_rounds <= plain_rounds / 2, (
            f"seed {seed}: adaptive {adam_rounds} vs plain {plain_rounds}"
        )
    assert time.perf_counter() - start < 300.0


def _sweep_raw(seed: int, participation: float) -> dict:
    return {
        "federation": {
            "synthesize": {
                "user_count": 400,
                "size_mean": 6.0,
                "size_std": 5.0,
                "positive_rate": 0.18,
                "feature_dim": 10,
                "user_shift_scale": 1.5,
                "negative_duration_s": 30.0,
            }
        },
        "split": {"train_frac": 0.7, "dev_frac": 0.2},
        "model": {"layer_dims": [10, 2]},
        "local": {"epochs": 1, "batch_size": None, "eta_local": 0.01},
        "strategy": {"kind": "adam", "eta_global": 0.002},
        "participation": participation,
        "max_rounds": 800,
        "targets": {"fah_budget": 5.0, "recall_target": 0.85},
        "master_seed": seed,
        "eval_mode": "pooled",
    }


@criterion(7, "participation sweep trend")
def test_rounds_to_threshold_nonincreasing_in_participation():
    start = time.perf_counter()
    diminishing_count = 0
    for seed in (1, 2, 3):
        rounds = {}
        for participation in (0.05, 0.1, 0.5):
            report = run_experiment(config_from_dict(_sweep_raw(seed, participation))).report
            assert report["rounds_to_target"] is not None, (
                f"seed {seed}, C={participation}: threshold never reached"
            )
            rounds[participation] = report["rounds_to_target"]
        assert rounds[0.05] >= rounds[0.1] >= rounds[0.5], f"seed {seed}: {rounds}"
        if rounds[0.1] - rounds[0.5] < rounds[0.05] - rounds[0.1]:
            diminishing_count += 1
    assert diminishing_count >= 2
    assert time.perf_counter() - start < 600.0


@criterion(8, "local step count property")
@given(
    n_k=st.integers(min_value=1, max_value=1000),
    batch=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
    epochs=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_instrumented_gradient_count_matches_formula(n_k, batch, epochs):
    spec = ModelSpec((2, 2))
    calls = 0

    def counting_stub(spec_, w_, X_, y_, *, out, **views):
        nonlocal calls
        calls += 1
        out.fill(0.0)
        return out

    federation = make_federation({1: [LabeledExample(np.zeros(2), i % 2) for i in range(n_k)]})
    cfg = LocalTrainingConfig(epochs=epochs, batch_size=batch, eta_local=0.1)

    original = fedsim.model.gradient_from_arrays
    fedsim.model.gradient_from_arrays = counting_stub
    try:
        train_local(np.zeros(spec.param_count), federation, 1, cfg, spec, round_seed=4)
    finally:
        fedsim.model.gradient_from_arrays = original
    assert calls == local_step_count(n_k, batch, epochs) == epochs * max(math.ceil(n_k / (batch or n_k)), 1)


@criterion(9, "operating point exactness")
def test_operating_point_equals_brute_force_everywhere():
    rng = np.random.default_rng(909)
    for _ in range(100):
        scored = scored_set(rng, int(rng.integers(2, 501)))
        targets = EvalTargets(fah_budget=float(rng.uniform(0.5, 4000.0)))
        point = operating_point(*scored, targets)
        tau, recall, fah = brute_force_operating_point(*scored, targets)
        assert point.tau == tau
        assert point.recall == recall
        assert point.fah == fah


@criterion(10, "end-to-end determinism")
def test_metrics_csv_byte_identical_across_runs(tmp_path):
    raw = {
        "federation": {
            "synthesize": {
                "user_count": 40,
                "size_mean": 12.0,
                "size_std": 8.0,
                "feature_dim": 5,
                "user_shift_scale": 1.0,
            }
        },
        "split": {"train_frac": 0.6, "dev_frac": 0.25},
        "model": {"layer_dims": [5, 6, 2]},
        "local": {"epochs": 2, "batch_size": 5, "eta_local": 0.05},
        "strategy": {"kind": "adam", "eta_global": 0.002},
        "participation": 0.4,
        "max_rounds": 6,
        "targets": {"fah_budget": 5.0, "recall_target": 0.99},
        "master_seed": 31,
        "eval_mode": "federated",
    }
    blobs = []
    for name in ("first", "second"):
        cfg = config_from_dict({**raw, "output_dir": str(tmp_path / name)})
        run_experiment(cfg)
        blobs.append((tmp_path / name / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1], "re-running an identical config changed metrics.csv"
