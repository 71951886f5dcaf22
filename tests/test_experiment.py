from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.experiment
from fedsim import (
    AveragingStrategy,
    ConfigError,
    EvalTargets,
    EvaluationError,
    ExperimentConfig,
    FULL_BATCH,
    Federation,
    FederationSource,
    FederationSpec,
    LocalTrainingConfig,
    ModelSpec,
    RoundConfig,
    ServerState,
    SplitConfig,
    derive_seed,
    local_step_count,
    run_round,
    save_federation,
    split_users,
    synthesize_federation,
    upload_cost_bytes,
)
from fedsim import model as model_ops
from fedsim.evaluation import pooled_eval
from fedsim.experiment import (
    BaselineMode,
    EvalMode,
    _prepare,
    config_from_dict,
    load_config,
    run_baseline,
    run_experiment,
    sweep,
)
from fedsim.model import ACTIVATIONS

from conftest import forward


def base_raw(**overrides) -> dict:
    raw = {
        "federation": {
            "synthesize": {
                "user_count": 20,
                "size_mean": 10.0,
                "size_std": 4.0,
                "feature_dim": 3,
                "user_shift_scale": 0.0,
                "positive_rate": 0.35,
            }
        },
        "split": {"train_frac": 0.6, "dev_frac": 0.25},
        "model": {"layer_dims": [3, 2]},
        "local": {"epochs": 1, "batch_size": None, "eta_local": 0.3},
        "strategy": {"kind": "plain", "eta_global": 1.0},
        "participation": 1.0,
        "max_rounds": 30,
        "targets": {"fah_budget": 300.0, "recall_target": 0.9},
        "master_seed": 7,
        "eval_mode": "pooled",
    }
    raw.update(overrides)
    return raw


def fields_at_default(obj, prefix: str = "") -> list[str]:
    """Dotted names of the (nested) dataclass fields still at their default."""
    names = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            names += fields_at_default(value, f"{prefix}{f.name}.")
        elif value == f.default:
            names.append(prefix + f.name)
    return names


# Every config dataclass, with what its other required fields need.
CONFIG_CLASSES = {
    LocalTrainingConfig: {},
    AveragingStrategy: {},
    FederationSpec: {"user_count": 10},
    EvalTargets: {},
    SplitConfig: {},
    ExperimentConfig: {"federation": FederationSource(FederationSpec(10)), "model": ModelSpec((10, 2))},
    RoundConfig: {
        "participation": 0.5,
        "local": LocalTrainingConfig(),
        "strategy": AveragingStrategy(),
        "model": ModelSpec((10, 2)),
    },
}


def fields_of_type(kind):
    """Every config class's fields annotated kind or kind | None."""
    for cls, required in CONFIG_CLASSES.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if hints[f.name] in (kind, kind | None):
                yield pytest.param(cls, required, f.name, id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls,required,name", list(fields_of_type(float)))
def test_non_finite_float_field_rejected_from_python(cls, required, name, value):
    # JSON configs are checked in parsing; a constructor must check as well
    with pytest.raises(ConfigError, match=rf"^{name}\b"):
        cls(**{**required, name: value})


@pytest.mark.parametrize("cls,required,name", list(fields_of_type(int)))
def test_int_field_rejects_non_integers_from_python(cls, required, name):
    # JSON configs are checked in parsing; a constructor must check as well, before any round runs
    for value in (1.5, 2.0, True, "3"):
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            cls(**{**required, name: value})
    stored = getattr(cls(**{**required, name: np.int64(3)}), name)
    assert stored == 3 and type(stored) is int  # derive_seed and json.dumps refuse numpy's integers


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, np.uint64(2**64 - 1)])
@pytest.mark.parametrize("cls,required,name", list(fields_of_type(int)))
def test_int_field_outside_int64_rejected_from_python(cls, required, name, value):
    # fedsim's counts and sizes become numpy int64 arrays, which such a value would overflow
    with pytest.raises(ConfigError, match=rf"^{name} must lie in int64's range, got {int(value)}$"):
        cls(**{**required, name: value})


def test_numpy_integer_master_seed_runs_as_its_int(tmp_path):
    config = config_from_dict(base_raw(max_rounds=3, output_dir=str(tmp_path)))
    run_experiment(dataclasses.replace(config, master_seed=np.int64(7)))
    assert json.loads((tmp_path / "report.json").read_text())["config_echo"] == config.to_dict()


@pytest.mark.parametrize("dim", [3.7, 3.0, True])
def test_model_spec_rejects_non_integer_dims(dim):
    with pytest.raises(ConfigError, match="^layer_dims must be positive integers"):
        ModelSpec((10, dim, 2))
    assert ModelSpec(np.array([10, 3, 2])).layer_dims == (10, 3, 2)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: LocalTrainingConfig(eta_local="0.1"), "eta_local"),
        (lambda: EvalTargets(recall_target=True), "recall_target"),
        (lambda: RoundConfig(model=ModelSpec((3, 2)), participation="0.5"), "participation"),
        (lambda: FederationSource(load=5), "load"),
        (lambda: ExperimentConfig(**CONFIG_CLASSES[ExperimentConfig], local={"epochs": 2}), "local"),
        (lambda: ModelSpec(5), "layer_dims"),
    ],
    ids=["eta_local", "recall_target", "participation", "load", "local", "layer_dims"],
)
def test_mistyped_value_from_python_names_its_field(build, name):
    with pytest.raises(ConfigError, match=rf"^{name} must be "):
        build()


def reals(lo: float, hi: float):
    """JSON numbers in [lo, hi]: floats, and the integers among them, which a float field takes too."""
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


PATHS = st.text(alphabet="ab/._-", min_size=1, max_size=8)


@st.composite
def raw_configs(draw) -> dict:
    """A valid JSON config, each key present or left to its default."""
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    dims[-1] = max(dims[-1], 2)
    synthesize = st.fixed_dictionaries(
        {"user_count": st.integers(1, 10**6), "feature_dim": st.just(dims[0]), "class_count": st.just(dims[-1])},
        optional={
            "size_mean": reals(1e-3, 1e3),
            "size_std": reals(0, 1e3),
            "positive_rate": st.floats(0, 1, exclude_min=True, exclude_max=True),
            "user_shift_scale": reals(0, 10),
            "negative_duration_s": reals(1e-3, 10),
        },
    )
    train_frac = draw(st.floats(0, 1))
    below_one = st.floats(0, 1, exclude_max=True)
    sections = {
        "split": st.fixed_dictionaries({"train_frac": st.just(train_frac), "dev_frac": st.floats(0, 1 - train_frac)}),
        "local": st.fixed_dictionaries(
            {},
            optional={"epochs": st.integers(1, 50), "batch_size": st.none() | st.integers(1, 10**4),
                      "eta_local": reals(0, 10)},
        ),
        "strategy": st.fixed_dictionaries(
            {},
            optional={"kind": st.sampled_from(["plain", "adam"]), "eta_global": st.none() | reals(1e-6, 10),
                      "beta1": below_one, "beta2": below_one, "epsilon": st.floats(1e-12, 1)},
        ),
        "participation": st.floats(0, 1, exclude_min=True) | st.just(1),
        "max_rounds": st.integers(1, 10**4),
        "targets": st.fixed_dictionaries({}, optional={"fah_budget": reals(1e-3, 1e3), "recall_target": reals(0, 1)}),
        "master_seed": st.integers(0, 2**63 - 1),  # int fields lie in int64's range
        "output_dir": st.none() | PATHS,
        "eval_every": st.integers(1, 50),
        "eval_mode": st.sampled_from(["federated", "pooled"]),
        "baseline_mode": st.sampled_from(["none", "central_adam", "central_sgd"]),
    }
    source = st.fixed_dictionaries({"synthesize": synthesize}) | st.fixed_dictionaries({"load": PATHS})
    activation = st.sampled_from(ACTIVATIONS)
    model = st.fixed_dictionaries({"layer_dims": st.just(dims)}, optional={"activation": activation})
    return draw(st.fixed_dictionaries({"federation": source, "model": model}, optional=sections))


def scalar_leaves(raw: dict, path: tuple = ()):
    """Key paths of the values in a JSON config that are neither objects nor lists."""
    for key, value in raw.items():
        if isinstance(value, dict):
            yield from scalar_leaves(value, path + (key,))
        elif not isinstance(value, list):
            yield path + (key,)


def replaced(config, path: tuple, value):
    """config with the field at path set to value, each dataclass on the path rebuilt in Python, innermost first."""
    head, *rest = path
    return dataclasses.replace(config, **{head: replaced(getattr(config, head), rest, value) if rest else value})


def outcome(build: typing.Callable):
    """What build returns, or the message of the ConfigError it raises."""
    try:
        return build()
    except ConfigError as exc:
        return str(exc)


# True, a list, an object and NaN fit no scalar field; the rest fit some and not others
MISTYPED = [True, [1], {"a": 1}, float("nan")]
OTHER_VALUES = ["x", 1.5, -1, None, 10**400]


@given(raw=raw_configs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_json_and_python_configs_meet_one_check(raw, data):
    config = config_from_dict(raw)
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config
    path = data.draw(st.sampled_from(list(scalar_leaves(config.to_dict()))))
    mistyped = data.draw(st.booleans())
    value = data.draw(st.sampled_from(MISTYPED if mistyped else OTHER_VALUES))
    edited = config.to_dict()
    node = functools.reduce(dict.__getitem__, path[:-1], edited)
    node[path[-1]] = value
    from_json = outcome(lambda: config_from_dict(edited))
    assert from_json == outcome(lambda: replaced(config, path, value))
    if mistyped:
        assert isinstance(from_json, str) and path[-1] in from_json


class TestPythonBuiltEnumValues:
    # a Python-built config takes an enum field's string value as its member, as JSON does
    def test_eval_mode_string_scores_as_its_member(self, tmp_path):
        base = dataclasses.replace(config_from_dict(base_raw()), max_rounds=4, eval_mode=EvalMode.FEDERATED)
        for mode in ("pooled", EvalMode.POOLED):
            run_experiment(dataclasses.replace(base, eval_mode=mode, output_dir=tmp_path / repr(mode)))
        csvs = [(tmp_path / repr(mode) / "metrics.csv").read_bytes() for mode in ("pooled", EvalMode.POOLED)]
        assert csvs[0] == csvs[1]
        run_experiment(dataclasses.replace(base, output_dir=tmp_path / "federated"))
        assert (tmp_path / "federated" / "metrics.csv").read_bytes() != csvs[0]

    def test_baseline_mode_string_trains_as_its_member(self, tmp_path):
        base = dataclasses.replace(config_from_dict(base_raw()), max_rounds=6, strategy=AveragingStrategy.adam(0.05))
        for mode in ("central_adam", BaselineMode.CENTRAL_ADAM, BaselineMode.CENTRAL_SGD):
            run_baseline(dataclasses.replace(base, baseline_mode=mode, output_dir=tmp_path / repr(mode)))
        adam, member, sgd = (
            (tmp_path / repr(mode) / "metrics.csv").read_bytes()
            for mode in ("central_adam", BaselineMode.CENTRAL_ADAM, BaselineMode.CENTRAL_SGD)
        )
        assert adam == member != sgd

    def test_baseline_mode_string_none_is_refused(self):
        config = dataclasses.replace(config_from_dict(base_raw()), baseline_mode="none")
        assert config.baseline_mode is BaselineMode.NONE
        with pytest.raises(ConfigError, match="baseline_mode is 'none'"):
            run_baseline(config)


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys.*typo"):
            config_from_dict(base_raw(typo=1))

    def test_unknown_nested_key_rejected(self):
        raw = base_raw()
        raw["strategy"] = {"kind": "plain", "momentum": 0.9}
        with pytest.raises(ConfigError, match="momentum"):
            config_from_dict(raw)

    def test_missing_federation_rejected(self):
        raw = base_raw()
        del raw["federation"]
        with pytest.raises(ConfigError, match="federation"):
            config_from_dict(raw)

    def test_federation_needs_exactly_one_source(self):
        raw = base_raw()
        raw["federation"] = {"synthesize": raw["federation"]["synthesize"], "load": "x.jsonl"}
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_raw(eval_mode="global"))
        with pytest.raises(ConfigError):
            config_from_dict(base_raw(baseline_mode="central"))

    def test_defaults_applied(self):
        raw = {
            "federation": {"synthesize": {"user_count": 30}},
            "model": {"layer_dims": [10, 2]},
        }
        cfg = config_from_dict(raw)
        assert cfg.train_frac == pytest.approx(1374 / 1774)
        assert cfg.dev_frac == pytest.approx(200 / 1774)
        assert cfg.participation == 0.1
        assert cfg.targets.fah_budget == 5.0
        assert cfg.targets.recall_target == 0.95
        assert cfg.eval_mode is EvalMode.FEDERATED
        assert cfg.baseline_mode is BaselineMode.NONE

    def test_round_trip_through_dict(self):
        cfg = config_from_dict(base_raw())
        assert config_from_dict(cfg.to_dict()) == cfg

        # every field away from its default, so a field the schema misses fails
        synthesize = {
            "user_count": 50,
            "size_mean": 12.0,
            "size_std": 3.0,
            "positive_rate": 0.3,
            "feature_dim": 4,
            "class_count": 3,
            "user_shift_scale": 0.5,
            "negative_duration_s": 2.0,
        }
        rest = {
            "split": {"train_frac": 0.5, "dev_frac": 0.3},
            "model": {"layer_dims": [4, 7, 3], "activation": "tanh"},
            "local": {"epochs": 3, "batch_size": 5, "eta_local": 0.2},
            "strategy": {"kind": "plain", "eta_global": 0.7, "beta1": 0.8, "beta2": 0.99,
                         "epsilon": 1e-6},
            "participation": 0.3,
            "max_rounds": 12,
            "targets": {"fah_budget": 2.5, "recall_target": 0.6},
            "master_seed": 11,
            "output_dir": "runs/x",
            "eval_every": 4,
            "eval_mode": "pooled",
            "baseline_mode": "central_sgd",
        }
        for federation, unused_source in (
            ({"synthesize": synthesize}, "federation.load"),
            ({"load": "users.ndjson"}, "federation.synthesize"),
        ):
            raw = {"federation": federation, **rest}
            cfg = config_from_dict(raw)
            assert fields_at_default(cfg) == [unused_source]
            assert cfg.to_dict() == raw
            assert config_from_dict(cfg.to_dict()) == cfg

    def test_non_finite_numbers_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        for value in (float("nan"), float("inf"), float("-inf"), 10**400):
            path.write_text(json.dumps(base_raw(targets={"fah_budget": value})))
            with pytest.raises(ConfigError, match=r"^fah_budget must be a finite number, got "):
                load_config(path)

    def test_readme_example_config_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.DOTALL)]
        configs = [b for b in blocks if "federation" in b]
        assert configs
        for raw in configs:
            config_from_dict(raw)

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_infeasible_split_fails_before_rounds(self):
        cfg = config_from_dict(base_raw(split={"train_frac": 1.0, "dev_frac": 0.0}))
        with pytest.raises(ConfigError, match="dev"):
            run_experiment(cfg)

    def test_model_federation_mismatch_fails_early(self, tmp_path):
        # a synthesized federation is checked as the config is built, a loaded one before round 1
        with pytest.raises(ConfigError, match="model input dim 5 != federation feature dim 3"):
            config_from_dict(base_raw(model={"layer_dims": [5, 2]}))
        with pytest.raises(ConfigError, match="model class count 4 != federation class count 2"):
            config_from_dict(base_raw(model={"layer_dims": [3, 4]}))
        save_federation(base_federation(), tmp_path / "users.jsonl")
        cfg = config_from_dict(
            base_raw(federation={"load": str(tmp_path / "users.jsonl")}, model={"layer_dims": [5, 2]})
        )
        with pytest.raises(ConfigError, match="model input dim 5 != federation feature dim 3"):
            run_experiment(cfg)


class TestRunExperiment:
    def test_run_round_reads_the_experiment_config_as_its_round_config(self):
        cfg = config_from_dict(base_raw(
            participation=0.5, local={"epochs": 2, "batch_size": 4, "eta_local": 0.05},
            strategy={"kind": "adam", "eta_global": 0.05},
        ))
        round_cfg = RoundConfig(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(RoundConfig)})
        federation, train, _, _, w0 = _prepare(cfg)
        runs = []
        for config in (cfg, round_cfg):
            state, records = ServerState.initial(w0), []
            for t in range(1, 4):
                seed = derive_seed(cfg.master_seed, "round", t)
                state, record = run_round(state, federation, train, config, seed)
                records.append(record)
            runs.append((state, records))
        (state_a, records_a), (state_b, records_b) = runs
        for name in ("weights", "m", "v"):
            assert getattr(state_a, name).tobytes() == getattr(state_b, name).tobytes()
        assert records_a == records_b

    def test_zero_eta_single_round_keeps_initial_metric(self):
        raw = base_raw(max_rounds=1)
        raw["local"] = {"epochs": 1, "batch_size": None, "eta_local": 0.0}
        cfg = config_from_dict(raw)
        result = run_experiment(cfg)
        federation, train, dev, test, w0 = _prepare(cfg)
        expected = pooled_eval(cfg.model, w0, federation, dev, cfg.targets)
        assert len(result.metrics) == 1
        assert result.metrics[0].dev_metric == expected

    def test_fedsgd_equals_centralized_sgd_oracle(self):
        # one full-participation full-batch round is one pooled SGD step, so
        # rounds-to-target must match a directly coded centralized loop
        cfg = config_from_dict(base_raw())
        result = run_experiment(cfg)
        assert result.report["rounds_to_target"] is not None

        federation, train, dev, test, w0 = _prepare(cfg)
        rows, _ = federation.rows(train)
        X, y = federation.X[rows], federation.y[rows]
        w = w0.copy()
        oracle_steps = None
        for t in range(1, cfg.max_rounds + 1):
            w = w - cfg.local.eta_local * model_ops.gradient_from_arrays(cfg.model, w, X, y)
            if pooled_eval(cfg.model, w, federation, dev, cfg.targets) >= cfg.targets.recall_target:
                oracle_steps = t
                break
        assert result.report["rounds_to_target"] == oracle_steps

    def test_deterministic_metrics_csv(self, tmp_path):
        raw = base_raw(max_rounds=5)
        outputs = []
        for name in ("a", "b"):
            cfg = config_from_dict(raw | {"output_dir": str(tmp_path / name)})
            run_experiment(cfg)
            outputs.append((tmp_path / name / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_crash_keeps_completed_rows(self, tmp_path, monkeypatch):
        # rows stream to metrics.csv as they are made; a crash in round 3
        # keeps rows 1-2, byte for byte, and leaves no report.json (not even
        # the one an earlier run left in the same directory)
        raw = base_raw(max_rounds=5, targets={"fah_budget": 300.0, "recall_target": 1.0},
                       output_dir=str(tmp_path / "out"))
        run_experiment(config_from_dict(raw))
        full = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert len(full.splitlines()) == 6
        real = fedsim.experiment.run_round

        def failing(state, *args):
            if state.round == 2:
                raise FloatingPointError("round 3: diverged; injected")
            return real(state, *args)

        monkeypatch.setattr(fedsim.experiment, "run_round", failing)
        with pytest.raises(FloatingPointError, match="^round 3: diverged"):
            run_experiment(config_from_dict(raw))
        partial = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert [line.split(b",")[0] for line in partial.splitlines()] == [b"round", b"1", b"2"]
        assert full.startswith(partial)
        assert not (tmp_path / "out" / "report.json").exists()

    def test_failed_report_write_leaves_no_report(self, tmp_path, monkeypatch):
        # json.dump fails after writing part of the report: metrics.csv stays
        # complete, and neither a truncated report.json nor its partial file is left
        out = tmp_path / "out"
        raw = base_raw(max_rounds=3, output_dir=str(out))

        def failing_dump(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:40])
            raise OSError("injected: disk full")

        monkeypatch.setattr(fedsim.experiment.json, "dump", failing_dump)
        with pytest.raises(OSError, match="injected"):
            run_experiment(config_from_dict(raw))
        assert [p.name for p in out.iterdir()] == ["metrics.csv"]
        assert len((out / "metrics.csv").read_bytes().splitlines()) == 4

    def test_early_stop_round_stable_under_larger_cap(self):
        short = run_experiment(config_from_dict(base_raw(max_rounds=30)))
        long = run_experiment(config_from_dict(base_raw(max_rounds=120)))
        assert short.report["rounds_to_target"] == long.report["rounds_to_target"] is not None

    def test_cumulative_upload_matches_formula(self):
        cfg = config_from_dict(base_raw(max_rounds=4, participation=0.5,
                                        targets={"fah_budget": 300.0, "recall_target": 1.0}))
        result = run_experiment(cfg)
        d = cfg.model.param_count
        for rec in result.metrics:
            assert rec.cumulative_upload_mb == upload_cost_bytes(d, 0.5, rec.round) / 1e6
        mbs = [rec.cumulative_upload_mb for rec in result.metrics]
        assert mbs == sorted(mbs)

    def test_eval_every_controls_rows(self):
        raw = base_raw(max_rounds=7, eval_every=3,
                       targets={"fah_budget": 300.0, "recall_target": 1.0})
        raw["local"] = {"epochs": 1, "batch_size": None, "eta_local": 0.0}
        result = run_experiment(config_from_dict(raw))
        assert [rec.round for rec in result.metrics] == [3, 6, 7]

    def test_report_keys_and_files(self, tmp_path):
        cfg = config_from_dict(base_raw(max_rounds=3, output_dir=str(tmp_path / "run")))
        result = run_experiment(cfg)
        for key in (
            "rounds_to_target",
            "dev_metric",
            "test_metric",
            "upload_mb_per_client",
            "total_local_steps",
            "config_echo",
        ):
            assert key in result.report
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config_echo"]["master_seed"] == 7
        with (tmp_path / "run" / "metrics.csv").open() as fh:
            header = next(csv.reader(fh))
        assert header == ["round", "dev_metric", "train_loss_mean", "cumulative_upload_mb"]

    def test_train_loss_is_cohort_loss_at_broadcast_weights(self):
        cfg = config_from_dict(base_raw(
            max_rounds=5, eval_every=2, participation=0.5,
            local={"epochs": 2, "batch_size": 4, "eta_local": 0.05},
            strategy={"kind": "adam", "eta_global": 0.05},
            targets={"fah_budget": 300.0, "recall_target": 1.0},
        ))
        rows = {rec.round: rec for rec in run_experiment(cfg).metrics}
        assert sorted(rows) == [2, 4, 5]

        # replay the rounds; score each selected example with the per-row forward pass
        federation, train, _, _, w0 = _prepare(cfg)
        round_cfg = RoundConfig(participation=cfg.participation, local=cfg.local,
                                strategy=cfg.strategy, model=cfg.model)
        state = ServerState.initial(w0)
        for t in range(1, cfg.max_rounds + 1):
            broadcast = state.weights
            state, record = run_round(state, federation, train, round_cfg,
                                      derive_seed(cfg.master_seed, "round", t))
            if t not in rows:
                continue
            losses, sizes = [], []
            for uid in record.selected_users:
                user_rows, (n_k,) = federation.rows([uid])
                per_row = [-np.log(forward(cfg.model, broadcast, x)[label])
                           for x, label in zip(federation.X[user_rows], federation.y[user_rows])]
                losses.append(np.mean(per_row))
                sizes.append(n_k)
            expected = np.average(losses, weights=sizes)
            assert rows[t].train_loss_mean == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_total_local_steps_counts_fullbatch_rounds(self):
        raw = base_raw(max_rounds=2, targets={"fah_budget": 300.0, "recall_target": 1.0})
        raw["local"] = {"epochs": 1, "batch_size": None, "eta_local": 0.0}
        cfg = config_from_dict(raw)
        result = run_experiment(cfg)
        federation, train, _, _, _ = _prepare(cfg)
        # full participation, full batch, one epoch: one step per client per round
        assert result.report["total_local_steps"] == 2 * len(train)

    @pytest.mark.parametrize("batch_size", [1, 3, FULL_BATCH])
    @pytest.mark.parametrize("epochs", [1, 2])
    def test_total_local_steps_is_the_per_client_sum(self, monkeypatch, batch_size, epochs):
        real, cohorts = fedsim.experiment.run_round, []

        def spy(state, federation, train, config, seed):
            state, record = real(state, federation, train, config, seed)
            cohorts.append(federation.sizes(record.selected_users).tolist())
            return state, record

        monkeypatch.setattr(fedsim.experiment, "run_round", spy)
        raw = base_raw(max_rounds=4, participation=0.5, targets={"fah_budget": 1.0, "recall_target": 1.0})
        raw["federation"]["synthesize"].update(user_count=40, size_mean=3.0, size_std=4.0)
        raw["local"] = {"epochs": epochs, "batch_size": batch_size, "eta_local": 0.0}  # no round meets the target
        result = run_experiment(config_from_dict(raw))
        assert min(min(sizes) for sizes in cohorts) == 1 and len(cohorts) == 4
        expected = sum(local_step_count(n_k, batch_size, epochs) for sizes in cohorts for n_k in sizes)
        assert result.report["total_local_steps"] == expected
        assert type(result.report["total_local_steps"]) is int


class TestRunBaseline:
    def _raw(self, mode: str, seed: int = 8, **overrides):
        raw = {
            "federation": {
                "synthesize": {
                    "user_count": 40,
                    "size_mean": 15.0,
                    "size_std": 8.0,
                    "feature_dim": 8,
                    "user_shift_scale": 1.0,
                }
            },
            "split": {"train_frac": 0.6, "dev_frac": 0.25},
            "model": {"layer_dims": [8, 2]},
            "local": {"epochs": 1, "batch_size": 16, "eta_local": 0.05},
            "strategy": {"kind": "adam", "eta_global": 0.05},
            "participation": 0.1,
            "max_rounds": 400,
            "targets": {"fah_budget": 5.0, "recall_target": 0.85},
            "master_seed": seed,
            "eval_mode": "pooled",
            "baseline_mode": mode,
        }
        raw.update(overrides)
        return raw

    def test_mode_none_rejected(self):
        cfg = config_from_dict(self._raw("none"))
        with pytest.raises(ConfigError):
            run_baseline(cfg)

    def test_pooled_example_count(self):
        cfg = config_from_dict(self._raw("central_sgd", max_rounds=3))
        result = run_baseline(cfg)
        federation, train, _, _, _ = _prepare(cfg)
        assert result.report["pooled_examples"] == federation.sizes(train).sum()

    def test_train_loss_runs_are_bounded(self, monkeypatch):
        # the train pool spans several EVAL_ROWS blocks; every loss pass takes them in turn, a short tail
        # joining the last
        raw = self._raw("central_sgd", max_rounds=3)
        raw["federation"]["synthesize"]["user_count"] = 400
        cfg = config_from_dict(raw)
        real_loss, real_run_layers, losses, running = model_ops.loss_from_arrays, model_ops._run_layers, [], []

        def counted_loss(spec, w, X, y):
            losses.append((len(y), []))
            running.append(losses[-1][1])
            try:
                return real_loss(spec, w, X, y)
            finally:
                running.pop()

        def counted_run_layers(spec, layers, biases, a, out):
            if running:  # the blocks of a loss pass, not of scoring
                running[-1].append(len(a))
            return real_run_layers(spec, layers, biases, a, out)

        monkeypatch.setattr(model_ops, "loss_from_arrays", counted_loss)
        monkeypatch.setattr(model_ops, "_run_layers", counted_run_layers)
        result = run_baseline(cfg)
        federation, train, _, _, _ = _prepare(cfg)
        pool, most = federation.sizes(train).sum(), model_ops.EVAL_ROWS
        assert pool > 4 * most
        assert len(losses) == len(result.metrics)  # every train row, once per row written
        for rows, blocks in losses:
            assert rows == sum(blocks) == pool
            assert blocks[:-1] == [most] * (len(blocks) - 1) and 2 <= blocks[-1] <= most + 1

    def test_adam_converges_faster_than_sgd(self):
        adam = run_baseline(config_from_dict(self._raw("central_adam")))
        sgd = run_baseline(config_from_dict(self._raw("central_sgd")))
        a, s = adam.report["steps_to_target"], sgd.report["steps_to_target"]
        assert a is not None
        assert s is None or a < s

    def test_zero_rate_never_reaches_nontrivial_target(self):
        raw = self._raw("central_sgd", max_rounds=10)
        raw["local"] = {"epochs": 1, "batch_size": 16, "eta_local": 0.0}
        raw["targets"] = {"fah_budget": 5.0, "recall_target": 1.0}
        result = run_baseline(config_from_dict(raw))
        assert result.report["steps_to_target"] is None
        assert result.metrics[-1].round == 10


class TestEvalEveryInvariance:
    """eval_every changes which rows are written, never the trajectory."""

    @staticmethod
    def rows_and_test_metric(run, raw):
        result = run(config_from_dict(raw))
        rows = {
            rec.round: (rec.dev_metric, rec.train_loss_mean, rec.cumulative_upload_mb)
            for rec in result.metrics
        }
        return rows, result.report["test_metric"]

    @pytest.mark.parametrize("run, extra", [
        (run_experiment, {}),
        (run_baseline, {"baseline_mode": "central_adam"}),
        (run_baseline, {"baseline_mode": "central_sgd"}),
    ])
    def test_sparser_evaluation_writes_a_subset_of_the_same_rows(self, run, extra):
        raw = base_raw(
            max_rounds=8, participation=0.5, eval_mode="federated",
            local={"epochs": 2, "batch_size": 4, "eta_local": 0.05},
            strategy={"kind": "adam", "eta_global": 0.05},
            targets={"fah_budget": 300.0, "recall_target": 1.0},
            **extra,
        )
        every_step, test_every_step = self.rows_and_test_metric(run, {**raw, "eval_every": 1})
        every_third, test_every_third = self.rows_and_test_metric(run, {**raw, "eval_every": 3})
        # the recall target is never met, so both runs take all eight steps
        assert sorted(every_step) == list(range(1, 9))
        assert sorted(every_third) == [3, 6, 8]
        for t, row in every_third.items():
            assert row == every_step[t]
        assert test_every_third == test_every_step is not None


def capture_steps(monkeypatch, run, raw):
    """Run `run` on raw through a spy on _optimize; return its step function, the
    initial state and the state after each step taken, in order."""
    real, seen = fedsim.experiment._optimize, {}

    def spy(config, state, step, *rest):
        seen.update(step=step, states=[state])

        def recording(state, t):
            taken = step(state, t)
            seen["states"].append(taken[0])
            return taken

        return real(config, state, recording, *rest)

    monkeypatch.setattr(fedsim.experiment, "_optimize", spy)
    run(config_from_dict(raw))
    return seen["step"], seen["states"]


def state_bytes(state: ServerState) -> tuple:
    return state.weights.tobytes(), state.m.tobytes(), state.v.tobytes(), state.round, state.local_steps


def endless_batches(n: int, batch_size, *seed_parts):
    """The baseline's batch order as an endless generator, every epoch one after the other: the oracle."""
    batch = n if batch_size is FULL_BATCH else batch_size
    if batch >= n:
        yield from itertools.repeat(np.arange(n))
    for epoch in itertools.count():
        order = np.random.default_rng(derive_seed(*seed_parts, epoch)).permutation(n)
        for start in range(0, n, batch):
            yield order[start : start + batch]


class TestOneRunState:
    """Each step maps (state after step t - 1, t) to the state after step t, and reads nothing else."""

    @pytest.mark.parametrize("run, extra", [
        (run_experiment, {"max_rounds": 8}),
        (run_baseline, {"baseline_mode": "central_adam", "max_rounds": 75}),
        (run_baseline, {"baseline_mode": "central_sgd", "max_rounds": 75}),
    ])
    def test_replaying_steps_in_reverse_gives_each_state_bit_for_bit(self, monkeypatch, run, extra):
        # B = 4 < n: clients shuffle two epochs each, and the baseline's 75 steps span three epochs of its pool
        raw = base_raw(
            participation=0.5, local={"epochs": 2, "batch_size": 4, "eta_local": 0.01},
            strategy={"kind": "adam", "eta_global": 0.01},
            targets={"fah_budget": 300.0, "recall_target": 1.0}, **extra,
        )
        step, states = capture_steps(monkeypatch, run, raw)
        recorded = [state_bytes(state) for state in states]
        assert len(states) == raw["max_rounds"] + 1
        for t in reversed(range(1, len(states))):
            assert state_bytes(step(states[t - 1], t)[0]) == recorded[t]
            assert states[t].round == t
        assert [state_bytes(state) for state in states] == recorded  # no step changed the state it read
        assert (states[-1].local_steps > 0) == (run is run_experiment)

    def test_total_local_steps_is_read_from_the_last_state(self, monkeypatch):
        raw = base_raw(max_rounds=3, participation=0.5, local={"epochs": 2, "batch_size": 4, "eta_local": 0.05})
        _, states = capture_steps(monkeypatch, run_experiment, raw)
        assert run_experiment(config_from_dict(raw)).report["total_local_steps"] == states[-1].local_steps

    @given(
        user_count=st.integers(min_value=10, max_value=30),
        batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=70)),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_baseline_step_t_takes_the_t_th_batch_of_the_endless_order(self, user_count, batch_size, data):
        raw = base_raw(max_rounds=1, baseline_mode="central_sgd", local={"batch_size": batch_size})
        raw["federation"]["synthesize"]["user_count"] = user_count
        federation, train, _, _, _ = _prepare(config_from_dict(raw))
        X = federation.X[federation.rows(train)[0]]
        oracle = endless_batches(len(X), batch_size, raw["master_seed"], "baseline")
        per_epoch = local_step_count(len(X), batch_size, 1)
        want = {t: X[idx].tobytes() for t, idx in zip(range(1, 5 * per_epoch + 1), oracle)}
        with pytest.MonkeyPatch.context() as mp:
            step, (state, _) = capture_steps(mp, run_baseline, raw)
            real, seen = model_ops.gradient_from_arrays, []

            def recording(spec, w, X_batch, y_batch, **workspace):
                seen.append(X_batch.tobytes())
                return real(spec, w, X_batch, y_batch, **workspace)

            mp.setattr(model_ops, "gradient_from_arrays", recording)
            # any order: step t reads its batch from t alone
            for t in data.draw(st.permutations(sorted(want))):
                step(state, t)
                assert seen[-1] == want[t], f"step {t}"


class TestEarlyStopOfARun:
    @pytest.mark.parametrize("run, extra", [
        (run_experiment, {}),
        (run_baseline, {"baseline_mode": "central_adam", "local": {"batch_size": 8, "eta_local": 0.05}}),
    ])
    def test_a_run_stops_at_the_first_evaluated_step_whose_dev_metric_meets_the_target(self, run, extra):
        raw = base_raw(max_rounds=12, eval_mode="federated", targets={"fah_budget": 300.0, "recall_target": 1.0},
                       strategy={"kind": "adam", "eta_global": 0.05}, participation=0.5, **extra)
        key = "rounds_to_target" if run is run_experiment else "steps_to_target"

        def stopped_at(recall_target, eval_every=1):
            config = config_from_dict({**raw, "eval_every": eval_every,
                                       "targets": {"fah_budget": 300.0, "recall_target": recall_target}})
            result = run(config)
            assert result.metrics[-1].round == (result.report[key] or raw["max_rounds"])
            return result.report[key]

        metrics = [rec.dev_metric for rec in run(config_from_dict(raw)).metrics]
        # the first step after the first whose metric exceeds every earlier one: only it, or a later one, meets it
        k = next(t for t in range(2, len(metrics) + 1) if metrics[t - 1] > max(metrics[: t - 1]))
        assert k < raw["max_rounds"] and metrics[k - 1] < 1.0
        assert stopped_at(metrics[k - 1]) == k
        assert (stopped_at(math.nextafter(metrics[k - 1], 2.0)) or raw["max_rounds"]) > k
        assert stopped_at(0.0, eval_every=3) == 3


class TestSweep:
    def test_singleton_grid_matches_run_experiment(self):
        cfg = config_from_dict(base_raw(max_rounds=6))
        single = run_experiment(cfg)
        rows = sweep(cfg, {"participation": [1.0]})
        assert [(r["round"], r["dev_metric"], r["train_loss_mean"]) for r in rows] == [
            (m.round, m.dev_metric, m.train_loss_mean) for m in single.metrics
        ]

    def test_grid_runs_every_point(self, tmp_path):
        cfg = config_from_dict(
            base_raw(max_rounds=3, output_dir=str(tmp_path),
                     targets={"fah_budget": 300.0, "recall_target": 1.0})
        )
        rows = sweep(cfg, {"participation": [0.2, 0.5, 1.0]})
        assert {r["participation"] for r in rows} == {0.2, 0.5, 1.0}
        assert len(rows) == 9
        with (tmp_path / "sweep.csv").open() as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["participation", "round", "dev_metric", "train_loss_mean"]
            assert sum(1 for _ in reader) == 9

    def test_dotted_path_and_section_overrides(self):
        cfg = config_from_dict(base_raw(max_rounds=2,
                                        targets={"fah_budget": 300.0, "recall_target": 1.0}))
        rows = sweep(
            cfg,
            {
                "strategy": [
                    {"kind": "plain", "eta_global": 1.0},
                    {"kind": "adam", "eta_global": 0.001},
                ],
                "local.eta_local": [0.0, 0.1],
            },
        )
        assert len(rows) == 2 * 2 * 2
        kinds = {json.dumps(r["strategy"], sort_keys=True) for r in rows}
        assert len(kinds) == 2

    def test_failing_point_keeps_earlier_points_rows(self, tmp_path):
        raw = base_raw(max_rounds=4, targets={"fah_budget": 300.0, "recall_target": 1.0})
        sweep(config_from_dict({**raw, "output_dir": str(tmp_path / "ok")}),
              {"local.eta_local": [0.3, 0.1, 0.05]})
        failing = config_from_dict({**raw, "output_dir": str(tmp_path / "bad")})
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"^sweep point \{'local.eta_local': 1e\+308\}: round 1: diverged; "
        ):
            sweep(failing, {"local.eta_local": [0.3, 0.1, 1e308]})
        kept = (tmp_path / "bad" / "sweep.csv").read_bytes()
        full = (tmp_path / "ok" / "sweep.csv").read_bytes()
        assert kept.count(b"\n") == 1 + 2 * 4
        assert full.startswith(kept) and len(full) > len(kept)

    def test_invalid_point_fails_fast_without_output(self, tmp_path):
        cfg = config_from_dict(base_raw(output_dir=str(tmp_path)))
        with pytest.raises(ConfigError, match="sweep point"):
            sweep(cfg, {"participation": [0.5, 2.0]})
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("grid", [
        {"split.train_frac": [0.6, 0.9]},
        {"model.layer_dims": [[3, 2], [4, 2]]},
        {"federation.synthesize.feature_dim": [3, 4]},
    ], ids=lambda grid: next(iter(grid)))
    def test_a_later_invalid_point_runs_no_point(self, monkeypatch, grid):
        real, calls = fedsim.experiment.run_experiment, []

        def spy(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(fedsim.experiment, "run_experiment", spy)
        with pytest.raises(ConfigError, match=r"^sweep point \{'"):
            sweep(config_from_dict(base_raw(max_rounds=2)), grid)
        assert calls == []

    @pytest.mark.parametrize("grid", [
        {"model.layer_dims": [[3, 2], [4, 2]]},
        {"model.layer_dims": [[3, 2], [3, 3]]},
        {"federation.load": ["users.jsonl", "wide.jsonl"]},
    ], ids=["feature_dim", "class_count", "file"])
    def test_a_later_misfit_of_a_loaded_file_runs_no_point(self, tmp_path, monkeypatch, grid):
        # the fit of a loaded file is checked from its header line before the first point
        save_federation(base_federation(), tmp_path / "users.jsonl")
        (tmp_path / "wide.jsonl").write_text(json.dumps({"feature_dim": 4, "class_count": 2}) + "\n")
        monkeypatch.chdir(tmp_path)
        real, calls = fedsim.experiment.run_experiment, []

        def spy(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(fedsim.experiment, "run_experiment", spy)
        cfg = config_from_dict(base_raw(federation={"load": "users.jsonl"}, max_rounds=2))
        with pytest.raises(ConfigError, match=r"^sweep point \{'.*: model (input dim|class count) "):
            sweep(cfg, grid)
        assert calls == []

    @pytest.mark.parametrize("key", ["master_seed", "output_dir"])
    def test_grid_may_not_set_seed_or_output_dir(self, tmp_path, key):
        cfg = config_from_dict(base_raw(max_rounds=2, output_dir=str(tmp_path)))
        values = [100, 200] if key == "master_seed" else [str(tmp_path / "a"), str(tmp_path / "b")]
        with pytest.raises(ConfigError, match=key):
            sweep(cfg, {"participation": [0.5], key: values})
        assert list(tmp_path.iterdir()) == []

    def test_a_point_error_whose_type_takes_other_arguments_names_the_point(self, monkeypatch):
        # UnicodeDecodeError cannot be built from a message alone; its base UnicodeError can
        def undecodable(config):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr(fedsim.experiment, "run_experiment", undecodable)
        with pytest.raises(UnicodeError) as info:
            sweep(config_from_dict(base_raw(max_rounds=2)), {"participation": [0.5]})
        assert str(info.value) == ("sweep point {'participation': 0.5}: "
                                   "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")

    def test_empty_grid_rejected(self):
        cfg = config_from_dict(base_raw())
        with pytest.raises(ConfigError):
            sweep(cfg, {})
        with pytest.raises(ConfigError):
            sweep(cfg, {"participation": []})



def base_federation() -> Federation:
    """The federation base_raw synthesizes, as a Federation object."""
    return synthesize_federation(FederationSpec(**base_raw()["federation"]["synthesize"]), seed=3)


class TestPoolsCheckedBeforeRoundOne:
    @staticmethod
    def write_without_positives(federation: Federation, user_ids, path: Path) -> None:
        y = federation.y.copy()
        for uid in user_ids:
            k = federation.segments([uid])[0]
            y[federation.offsets[k] : federation.offsets[k + 1]] = 0
        save_federation(
            Federation(federation.X, y, federation.duration, federation.user_ids, federation.offsets, 2),
            path,
        )

    @staticmethod
    def forbid_training(monkeypatch):
        def trained(*args, **kwargs):
            raise AssertionError("a round ran before the pools were checked")

        monkeypatch.setattr(fedsim.experiment, "run_round", trained)
        monkeypatch.setattr(model_ops, "gradient_from_arrays", trained)

    @pytest.mark.parametrize("pool", ["dev", "test"])
    @pytest.mark.parametrize("eval_mode", ["pooled", "federated"])
    @pytest.mark.parametrize("baseline", [False, True])
    def test_unusable_pool_fails_before_round_one(self, tmp_path, monkeypatch, pool, eval_mode, baseline):
        federation = base_federation()
        raw = base_raw(federation={"load": str(tmp_path / "users.jsonl")}, eval_mode=eval_mode)
        if baseline:
            raw["baseline_mode"] = "central_sgd"
        _, dev, test = split_users(federation, 0.6, 0.25, derive_seed(raw["master_seed"], "split"))
        assert dev and test
        self.write_without_positives(federation, dev if pool == "dev" else test, tmp_path / "users.jsonl")
        self.forbid_training(monkeypatch)
        with pytest.raises(EvaluationError, match=f"the {pool} pool cannot produce a {eval_mode} metric"):
            (run_baseline if baseline else run_experiment)(config_from_dict(raw))

    def test_federated_pool_needs_only_one_usable_user(self, tmp_path):
        federation = base_federation()
        raw = base_raw(
            federation={"load": str(tmp_path / "users.jsonl")}, eval_mode="federated", max_rounds=1
        )
        _, dev, test = split_users(federation, 0.6, 0.25, derive_seed(raw["master_seed"], "split"))
        # keep one user of each pool with both classes
        keep = [
            next(u for u in pool if 0 < federation.y[federation.rows([u])[0]].sum() < federation.sizes([u])[0])
            for pool in (dev, test)
        ]
        self.write_without_positives(
            federation, [u for u in dev + test if u not in keep], tmp_path / "users.jsonl"
        )
        assert len(run_experiment(config_from_dict(raw)).metrics) == 1


class TestUserOrderInvariance:
    @pytest.mark.parametrize("eval_mode", ["pooled", "federated"])
    def test_reordering_users_in_file_changes_nothing(self, tmp_path, monkeypatch, eval_mode):
        original, shuffled = tmp_path / "original", tmp_path / "shuffled"
        original.mkdir()
        shuffled.mkdir()
        save_federation(base_federation(), original / "users.jsonl")
        header, *records = (original / "users.jsonl").read_text().splitlines()
        blocks = [list(run) for _, run in itertools.groupby(records, lambda r: json.loads(r)["user_id"])]
        order = np.random.default_rng(5).permutation(len(blocks))
        reordered = [header] + [record for i in order for record in blocks[i]]
        (shuffled / "users.jsonl").write_text("\n".join(reordered) + "\n")
        assert sorted(reordered) == sorted([header] + records) and reordered != [header] + records

        raw = base_raw(
            federation={"load": "users.jsonl"},
            output_dir="out",
            eval_mode=eval_mode,
            participation=0.5,
            max_rounds=8,
            local={"epochs": 2, "batch_size": 4, "eta_local": 0.3},
            strategy={"kind": "adam", "eta_global": 0.01},
            targets={"fah_budget": 300.0, "recall_target": 1.0},
        )
        for run, extra in ((run_experiment, {}), (run_baseline, {"baseline_mode": "central_adam"})):
            outputs = []
            for directory in (original, shuffled):
                monkeypatch.chdir(directory)
                run(config_from_dict({**raw, **extra}))
                report = json.loads((directory / "out" / "report.json").read_text())
                del report["wall_seconds"]
                outputs.append(((directory / "out" / "metrics.csv").read_bytes(), report))
            assert outputs[0] == outputs[1]


OPENBLAS = fedsim.experiment._openblas_threads()
# a count that is neither the one a run holds nor numpy's default on a host of 1, 2 or 4 CPUs
CALLER_THREADS = 3
DIVERGING_LOCAL = {"epochs": 1, "batch_size": 4, "eta_local": 1e308}
BLAS_RUNS = {
    "run_experiment": lambda raw: run_experiment(config_from_dict(raw)),
    "run_baseline": lambda raw: run_baseline(config_from_dict(raw | {"baseline_mode": "central_sgd"})),
    "sweep": lambda raw: sweep(config_from_dict(raw), {"participation": [0.5, 1.0]}),
}


def test_the_finder_controls_the_openblas_numpy_bundles():
    # fails, rather than skips, where numpy ships an OpenBLAS whose thread count no run would hold
    numpy_dir = Path(np.__file__).parent
    bundled = [*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".libs/*openblas*")]
    assert (OPENBLAS is not None) == bool(bundled), bundled
    if OPENBLAS is not None:
        get, set_ = OPENBLAS
        before = get()
        try:
            set_(CALLER_THREADS)
            assert get() == CALLER_THREADS
        finally:
            set_(before)


@pytest.mark.skipif(OPENBLAS is None, reason="numpy bundles no OpenBLAS")
class TestOneBlasThread:
    @pytest.fixture
    def caller_threads(self):
        """OpenBLAS at CALLER_THREADS for the test, the count it found restored after; yields the getter."""
        get, set_ = OPENBLAS
        before = get()
        set_(CALLER_THREADS)
        yield get
        set_(before)

    @staticmethod
    def threads_seen(monkeypatch) -> list[int]:
        """The OpenBLAS count at each call of the run's evaluation function, recorded as it is called."""
        seen, real = [], fedsim.experiment.pooled_eval

        def recording(*args):
            seen.append(OPENBLAS[0]())
            return real(*args)

        monkeypatch.setattr(fedsim.experiment, "pooled_eval", recording)
        return seen

    @pytest.mark.parametrize("run", sorted(BLAS_RUNS))
    def test_a_run_holds_one_thread_then_restores_the_callers_count(self, monkeypatch, caller_threads, run):
        seen = self.threads_seen(monkeypatch)
        BLAS_RUNS[run](base_raw(max_rounds=3))
        assert seen and set(seen) == {1}
        assert caller_threads() == CALLER_THREADS

    @pytest.mark.parametrize("run", sorted(BLAS_RUNS))
    def test_a_diverging_run_restores_the_callers_count(self, caller_threads, run):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="diverged"):
            BLAS_RUNS[run](base_raw(local=DIVERGING_LOCAL))
        assert caller_threads() == CALLER_THREADS

    @pytest.mark.parametrize("run", sorted(BLAS_RUNS))
    def test_an_evaluation_error_restores_the_callers_count(self, monkeypatch, caller_threads, run):
        def failing(*args):
            assert OPENBLAS[0]() == 1
            raise EvaluationError("injected")

        monkeypatch.setattr(fedsim.experiment, "pooled_eval", failing)
        with pytest.raises(EvaluationError, match="injected"):
            BLAS_RUNS[run](base_raw(max_rounds=3))
        assert caller_threads() == CALLER_THREADS

    def test_without_openblas_a_run_sets_nothing(self, monkeypatch, caller_threads):
        held = run_experiment(config_from_dict(base_raw(max_rounds=3)))
        monkeypatch.setattr(fedsim.experiment, "_openblas_threads", lambda: None)
        seen = self.threads_seen(monkeypatch)
        result = run_experiment(config_from_dict(base_raw(max_rounds=3)))
        assert seen and set(seen) == {CALLER_THREADS}
        assert caller_threads() == CALLER_THREADS
        assert [dataclasses.replace(m, wall_seconds=0) for m in result.metrics] == [
            dataclasses.replace(m, wall_seconds=0) for m in held.metrics
        ]
