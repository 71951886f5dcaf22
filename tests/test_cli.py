from __future__ import annotations

import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim import POSITIVE_LABEL, Federation, FederationSpec, save_federation, synthesize_federation
from fedsim.cli import main

ROUND_DIVERGED = r"error: round 1: diverged; "
CLIENT_DIVERGED = ROUND_DIVERGED + r"user \d+: local training diverged\n"

# config overrides that diverge in round 1, with the one stderr line each gives
DIVERGING = {
    # the first local step overflows the weights
    "eta_1e308": ({"local": {"epochs": 1, "batch_size": None, "eta_local": 1e308}}, CLIENT_DIVERGED),
    # the first local step leaves finite weights whose next gradient is not
    "hidden_eta_1e300": (
        {"model": {"layer_dims": [3, 8, 2]}, "local": {"epochs": 1, "batch_size": 2, "eta_local": 1e300}},
        CLIENT_DIVERGED,
    ),
    # client weights stay finite; only the round's pseudo-gradient overflows
    "eta_1e200_adam": (
        {"local": {"epochs": 1, "batch_size": None, "eta_local": 1e200},
         "strategy": {"kind": "adam", "eta_global": 0.001}},
        ROUND_DIVERGED + r"server weights or Adam moments not finite\n",
    ),
}


# baseline overrides that diverge in a central step (30 users, [5, 2], B = 4),
# with the cause each gives
DIVERGING_BASELINE = {
    "central_sgd": (
        {"local": {"epochs": 1, "batch_size": 4, "eta_local": 1e308}},
        "server weights or Adam moments not finite",
    ),
    "central_adam": (
        {"local": {"epochs": 1, "batch_size": 4, "eta_local": 0.01},
         "strategy": {"kind": "adam", "eta_global": 1e308}},
        "server weights or Adam moments not finite",
    ),
}


def diverging_config(path: Path, case: str) -> str:
    """Rewrite the config at path with the case's overrides; return the stderr pattern."""
    overrides, pattern = DIVERGING[case]
    path.write_text(json.dumps(json.loads(path.read_text()) | overrides))
    return pattern


def run_cli_subprocess(*args: str, environ=os.environ) -> subprocess.CompletedProcess:
    """`python -m fedsim.cli *args` on this source tree, in environ. Outside
    pytest nothing captures numpy's warnings, so stderr shows all of them."""
    src = str(Path(fedsim.__file__).resolve().parents[1])
    env = dict(environ, PYTHONPATH=os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "fedsim.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )


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


@pytest.mark.parametrize("case", ["eta_1e308", "hidden_eta_1e300"])
def test_diverged_run_fails_with_diagnostic(config_file, capsys, case):
    path, _ = config_file
    pattern = diverging_config(path, case)
    assert main(["run", "--config", str(path)]) == 1
    assert re.fullmatch(pattern, capsys.readouterr().err)


@pytest.mark.parametrize("case", sorted(DIVERGING))
def test_diverged_run_prints_one_line_in_a_subprocess(config_file, case):
    path, _ = config_file
    pattern = diverging_config(path, case)
    proc = run_cli_subprocess("run", "--config", str(path))
    assert proc.returncode == 1
    assert re.fullmatch(pattern, proc.stderr), proc.stderr


@pytest.mark.parametrize("mode", sorted(DIVERGING_BASELINE))
def test_diverged_baseline_prints_one_line_in_a_subprocess(config_file, mode):
    # the step that overflows is named, not a later evaluation
    path, _ = config_file
    overrides, cause = DIVERGING_BASELINE[mode]
    raw = json.loads(path.read_text()) | overrides
    raw["federation"]["synthesize"] |= {"user_count": 30, "feature_dim": 5}
    raw |= {"model": {"layer_dims": [5, 2]}, "baseline_mode": mode, "eval_every": 5}
    path.write_text(json.dumps(raw))
    proc = run_cli_subprocess("baseline", "--config", str(path))
    assert proc.returncode == 1
    assert re.fullmatch(rf"error: step \d+: diverged; {cause}\n", proc.stderr), proc.stderr


@pytest.mark.parametrize("eval_mode", ["federated", "pooled"])
def test_huge_baseline_step_names_step_and_pool_in_a_subprocess(config_file, eval_mode):
    # the step leaves weights finite but too large for the dev pool's forward pass
    path, _ = config_file
    raw = json.loads(path.read_text()) | {"baseline_mode": "central_sgd", "eval_mode": eval_mode}
    raw["local"]["eta_local"] = 1e308
    path.write_text(json.dumps(raw))
    proc = run_cli_subprocess("baseline", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "error: step 1: diverged; dev pool: forward pass produced non-finite probabilities\n", (
        proc.stderr
    )


def test_failed_sweep_point_prints_one_line_in_a_subprocess(config_file):
    path, tmp_path = config_file
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"local.eta_local": [0.3, 0.1, 1e308]}))
    proc = run_cli_subprocess("sweep", "--config", str(path), "--grid", str(grid))
    assert proc.returncode == 1
    assert re.fullmatch(r"error: sweep point \{'local.eta_local': 1e\+308\}: " + CLIENT_DIVERGED[len("error: "):],
                        proc.stderr), proc.stderr
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "local.eta_local,round,dev_metric,train_loss_mean" and len(rows) > 1


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_allocation_failure_prints_one_line_in_a_subprocess(config_file, command):
    # 20 users of about 1e13 rows: synthesis asks numpy for 4.26 PiB of features, more than any
    # process's address space, so the allocation fails at once on every host
    path, tmp_path = config_file
    raw = json.loads(path.read_text())
    raw["federation"]["synthesize"]["size_mean"] = 1e13
    path.write_text(json.dumps(raw))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"participation": [1.0, 0.5]}))
    proc = run_cli_subprocess(command, "--config", str(path), *(["--grid", str(grid)] if command == "sweep" else []))
    assert proc.returncode == 1
    point = "sweep point {'participation': 1.0}: " if command == "sweep" else ""
    assert re.fullmatch(rf"error: out of memory: {re.escape(point)}Unable to allocate 4\.26 PiB .*\n", proc.stderr), (
        proc.stderr
    )


@pytest.mark.parametrize("target", ["config", "grid", "federation"])
def test_deeply_nested_json_prints_one_line_in_a_subprocess(config_file, target):
    # json.loads raises RecursionError on input nested this deep
    path, tmp_path = config_file
    nested = "[" * 100_000 + "]" * 100_000
    grid, federation = tmp_path / "grid.json", tmp_path / "federation.jsonl"
    grid.write_text(nested if target == "grid" else json.dumps({"participation": [1.0]}))
    record = json.dumps({"user_id": 0, "features": [0.5, 0.5, 0.5], "label": 0, "duration_s": 1.0})
    federation.write_text("\n".join([json.dumps({"feature_dim": 3, "class_count": 2}), record, nested, record]))
    raw = json.loads(path.read_text()) | {"federation": {"load": str(federation)}}
    path.write_text(nested if target == "config" else json.dumps(raw))
    args = ["--config", str(path)] + (["--grid", str(grid)] if target == "grid" else [])
    proc = run_cli_subprocess("sweep" if target == "grid" else "run", *args)
    assert proc.returncode == 1
    expected = {
        "config": f"error: {path}: invalid JSON (nested too deeply)\n",
        "grid": f"error: {grid}: invalid JSON (nested too deeply)\n",
        "federation": f"error: {federation}: line 3: invalid JSON: nested too deeply\n",
    }[target]
    assert proc.stderr == expected, proc.stderr


@pytest.mark.parametrize("target", ["config", "grid"])
def test_file_that_is_not_utf8_prints_one_line_naming_it_in_a_subprocess(config_file, target):
    path, tmp_path = config_file
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"participation": [1.0]}))
    (path if target == "config" else grid).write_bytes(b'\xff{"participation": [1.0]}')
    proc = run_cli_subprocess("sweep", "--config", str(path), "--grid", str(grid))
    bad = path if target == "config" else grid
    assert proc.returncode == 1
    assert proc.stderr == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n", proc.stderr


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_federation_file_that_is_not_utf8_prints_one_line_naming_it_in_a_subprocess(config_file, command):
    path, tmp_path = config_file
    federation, grid = tmp_path / "federation.jsonl", tmp_path / "grid.json"
    path.write_text(json.dumps(json.loads(path.read_text()) | {"federation": {"load": str(federation)}}))
    grid.write_text(json.dumps({"participation": [1.0]}))
    args = ["--grid", str(grid)] if command == "sweep" else []
    point = "sweep point {'participation': 1.0}: " if command == "sweep" else ""
    for user_count in (3, 20):
        spec = FederationSpec(user_count=user_count, size_mean=10.0, size_std=4.0, feature_dim=3, positive_rate=0.35)
        save_federation(synthesize_federation(spec, seed=1), federation)
        # within, then beyond, the first 8 KiB, which the header check (read_header) decodes before any point runs
        assert (federation.stat().st_size > 8192) == (user_count == 20)
        with federation.open("ab") as fh:
            fh.write(b"\xff\xfe\n")
        proc = run_cli_subprocess(command, "--config", str(path), *args)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {point}{federation}: not UTF-8 text (invalid start byte)\n", proc.stderr


@pytest.mark.parametrize("command, written", [("sweep", "sweep.csv"), ("baseline", "metrics.csv")])
def test_output_dir_and_seed_options_of_sweep_and_baseline_in_a_subprocess(config_file, command, written):
    path, tmp_path = config_file
    raw = json.loads(path.read_text()) | {"max_rounds": 3, "baseline_mode": "central_sgd"}
    del raw["output_dir"]
    path.write_text(json.dumps(raw))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"participation": [1.0]}))
    args = ["--grid", str(grid)] if command == "sweep" else []
    out = tmp_path / "given"
    proc = run_cli_subprocess(command, "--config", str(path), *args, "--output-dir", str(out), "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert (out / written).stat().st_size > 0
    report = out / "report.json"
    if command == "baseline":
        assert json.loads(report.read_text())["config_echo"]["master_seed"] == 3
    else:  # a sweep writes sweep.csv alone
        assert not report.exists()


def test_overflowing_pseudo_gradient_fails_with_round(config_file, capsys):
    # client weights of order 1e200 stay finite, and Adam's step stays small
    # once its second moment is inf, so only the round-level guard stops it
    path, tmp_path = config_file
    raw = json.loads(path.read_text())
    raw["local"]["eta_local"] = 1e200
    raw["strategy"] = {"kind": "adam", "eta_global": 0.001}
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: round 1: diverged") and err.count("\n") == 1
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_underflowing_negative_hours_fail_before_round_one(tmp_path, capsys, monkeypatch):
    # every negative lasts a positive 1e-321 s, but no user's negatives sum to
    # more than 0 hours, so no dev user can be scored
    federation = synthesize_federation(
        FederationSpec(user_count=40, size_mean=8.0, size_std=3.0, feature_dim=4), seed=1
    )
    duration = np.where(federation.y == POSITIVE_LABEL, federation.duration, 1e-321)
    save_federation(
        Federation(federation.X, federation.y, duration, federation.user_ids, federation.offsets, 2),
        tmp_path / "users.jsonl",
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "federation": {"load": str(tmp_path / "users.jsonl")},
        "model": {"layer_dims": [4, 2]},
        "eval_mode": "federated",
        "output_dir": str(tmp_path / "out"),
    }))

    def trained(*args, **kwargs):
        raise AssertionError("a round ran before the pools were checked")

    monkeypatch.setattr(fedsim.experiment, "run_round", trained)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the dev pool cannot produce a federated metric: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["run", "baseline", "sweep"])
def test_failed_run_removes_an_earlier_runs_output(config_file, capsys, command):
    # the same directory: a complete run, then one that fails in step 1, before its first row
    path, tmp_path = config_file
    raw = json.loads(path.read_text()) | {"baseline_mode": "central_sgd" if command == "baseline" else "none"}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"participation": [1.0]}))
    args = ["--grid", str(grid)] if command == "sweep" else []
    files = ["sweep.csv"] if command == "sweep" else ["metrics.csv", "report.json"]
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), *args]) == 0
    assert all((tmp_path / "out" / name).exists() for name in files)

    raw["local"]["eta_local"] = 1e308
    path.write_text(json.dumps(raw))
    assert main([command, "--config", str(path), *args]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any((tmp_path / "out" / name).exists() for name in files)


@pytest.mark.parametrize("eval_mode", ["federated", "pooled"])
def test_metrics_csv_does_not_depend_on_blas_threads(config_file, eval_mode):
    # hidden layers and full batches, so the evaluation passes (up to 512
    # rows) and the larger clients' gradient products are big enough for
    # OpenBLAS to split them over threads
    path, tmp_path = config_file
    raw = json.loads(path.read_text()) | {
        "federation": {"synthesize": {"user_count": 120, "size_mean": 30.0, "size_std": 20.0,
                                      "feature_dim": 40, "positive_rate": 0.3}},
        "model": {"layer_dims": [40, 64, 64, 2]},
        "local": {"epochs": 1, "batch_size": None, "eta_local": 0.05},
        "participation": 0.2,
        "max_rounds": 3,
        "targets": {"fah_budget": 300.0, "recall_target": 1.0},
        "eval_mode": eval_mode,
    }
    path.write_text(json.dumps(raw))
    default = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    outputs = []
    for name, environ in (("default", default), ("one", default | {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        proc = run_cli_subprocess("run", "--config", str(path), "--output-dir", str(out), environ=environ)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4


def test_verbose_logs_one_line_per_evaluation(config_file, caplog):
    path, tmp_path = config_file
    raw = json.loads(path.read_text())
    raw["eval_every"] = 3
    raw["targets"]["recall_target"] = 1.0
    path.write_text(json.dumps(raw))
    with caplog.at_level(logging.INFO, logger="fedsim.experiment"):
        assert main(["-v", "run", "--config", str(path)]) == 0
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "fedsim.experiment"]
    rows = (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert len(lines) == len(rows) >= 2
    for line, row in zip(lines, rows):
        t, metric = row.split(",")[:2]
        assert re.fullmatch(rf"round {t}: dev_metric={float(metric):.6f}, \d+\.\d{{3}} s elapsed", line)


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
@pytest.mark.parametrize("field", ["batch_size", "epochs"])
def test_int_field_outside_int64_fails_with_one_line_naming_it(config_file, capsys, field, value):
    # 2**63 once met an int64 array in client.local_step_count and ended in an OverflowError traceback
    path, _ = config_file
    raw = json.loads(path.read_text())
    raw["local"][field] = value
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and field in err, err


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
