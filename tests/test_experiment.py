from __future__ import annotations

import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

from fedsim import ConfigError, upload_cost_bytes
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
            with pytest.raises(ConfigError, match=r"targets\.fah_budget must be a finite number"):
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

    def test_model_federation_mismatch_fails_early(self):
        cfg = config_from_dict(base_raw(model={"layer_dims": [5, 2]}))
        with pytest.raises(ConfigError, match="feature dim"):
            run_experiment(cfg)


class TestRunExperiment:
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
        pooled = [ex for uid in train for ex in federation.partition(uid).examples]
        w = w0.copy()
        oracle_steps = None
        for t in range(1, cfg.max_rounds + 1):
            w = w - cfg.local.eta_local * model_ops.gradient(cfg.model, w, pooled)
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

    def test_total_local_steps_counts_fullbatch_rounds(self):
        raw = base_raw(max_rounds=2, targets={"fah_budget": 300.0, "recall_target": 1.0})
        raw["local"] = {"epochs": 1, "batch_size": None, "eta_local": 0.0}
        cfg = config_from_dict(raw)
        result = run_experiment(cfg)
        federation, train, _, _, _ = _prepare(cfg)
        # full participation, full batch, one epoch: one step per client per round
        assert result.report["total_local_steps"] == 2 * len(train)


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
        assert result.report["pooled_examples"] == sum(
            federation.partition(uid).size for uid in train
        )

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


class TestSweep:
    def test_singleton_grid_matches_run_experiment(self):
        cfg = config_from_dict(base_raw(max_rounds=6))
        single = run_experiment(cfg)
        rows = sweep(cfg, {"participation": [1.0]})
        assert [(r["round"], r["dev_metric"]) for r in rows] == [
            (m.round, m.dev_metric) for m in single.metrics
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
            assert next(reader) == ["participation", "round", "dev_metric"]
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

    def test_invalid_point_fails_fast_without_output(self, tmp_path):
        cfg = config_from_dict(base_raw(output_dir=str(tmp_path)))
        with pytest.raises(ConfigError, match="sweep point"):
            sweep(cfg, {"participation": [0.5, 2.0]})
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_grid_rejected(self):
        cfg = config_from_dict(base_raw())
        with pytest.raises(ConfigError):
            sweep(cfg, {})
        with pytest.raises(ConfigError):
            sweep(cfg, {"participation": []})

