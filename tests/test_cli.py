from __future__ import annotations

import json

import pytest

from fedsim.cli import main


@pytest.fixture
def config_file(tmp_path):
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
        "max_rounds": 10,
        "targets": {"fah_budget": 300.0, "recall_target": 0.9},
        "master_seed": 7,
        "eval_mode": "pooled",
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, tmp_path


def test_run_writes_outputs(config_file, capsys):
    path, tmp_path = config_file
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["rounds_to_target"] is not None
    assert "rounds_to_target" in capsys.readouterr().out


def test_run_seed_and_output_overrides(config_file):
    path, tmp_path = config_file
    assert main(["run", "--config", str(path), "--seed", "99", "--output-dir", str(tmp_path / "alt")]) == 0
    report = json.loads((tmp_path / "alt" / "report.json").read_text())
    assert report["config_echo"]["master_seed"] == 99


def test_sweep_writes_csv(config_file):
    path, tmp_path = config_file
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"participation": [0.5, 1.0]}))
    assert main(["sweep", "--config", str(path), "--grid", str(grid)]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_baseline_command(config_file, tmp_path):
    path, _ = config_file
    raw = json.loads(path.read_text())
    raw["baseline_mode"] = "central_sgd"
    raw["max_rounds"] = 5
    baseline_cfg = tmp_path / "baseline.json"
    baseline_cfg.write_text(json.dumps(raw))
    assert main(["baseline", "--config", str(baseline_cfg)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_diverged_run_fails_with_diagnostic(config_file, capsys):
    path, _ = config_file
    raw = json.loads(path.read_text())
    raw["local"]["eta_local"] = 1e308
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_config_fails_with_diagnostic(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_fails(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"federation": {"synthesize": {"user_count": 5}},
                                "model": {"layer_dims": [10, 2]}, "oops": 1,
                                "output_dir": str(tmp_path)}))
    assert main(["run", "--config", str(path)]) == 1
    assert "oops" in capsys.readouterr().err


def test_missing_output_dir_fails(tmp_path, capsys):
    path = tmp_path / "noout.json"
    path.write_text(json.dumps({"federation": {"synthesize": {"user_count": 5}},
                                "model": {"layer_dims": [10, 2]}}))
    assert main(["run", "--config", str(path)]) == 1
    assert "output" in capsys.readouterr().err


def test_invalid_grid_json_fails(config_file, capsys):
    path, tmp_path = config_file
    grid = tmp_path / "grid.json"
    grid.write_text("{broken")
    assert main(["sweep", "--config", str(path), "--grid", str(grid)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
