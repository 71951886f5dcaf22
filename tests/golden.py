"""The golden-bytes manifest: sha256 hashes of what small runs write.

Each case below is a config that `run_experiment`, `run_baseline` or
`sweep` writes to a fresh directory at seeds 1-3. A case's hashes are
those of `metrics.csv` (or `sweep.csv`) and of `report.json` without its
`wall_seconds` and without the paths in `config_echo`. The manifest,
`tests/golden.json`, records them with the platform that made them:
numpy's version, its BLAS (with the kernel it runs) and the machine.
`tests/test_golden.py` compares hashes only where the platform matches;
elsewhere a last-bit difference is expected, so it checks that two runs
agree.

A change that moves bytes on purpose rewrites the manifest with

    PYTHONPATH=src python tests/golden.py

and lists the cases whose hashes changed.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from fedsim import (
    FederationSpec,
    config_from_dict,
    run_baseline,
    run_experiment,
    save_federation,
    sweep,
    synthesize_federation,
)

MANIFEST = Path(__file__).with_name("golden.json")
SEEDS = (1, 2, 3)

_SYNTH = {"user_count": 24, "size_mean": 8.0, "size_std": 5.0, "positive_rate": 0.3, "feature_dim": 4}
_BASE = {
    "federation": {"synthesize": _SYNTH},
    "split": {"train_frac": 0.6, "dev_frac": 0.25},
    "model": {"layer_dims": [4, 2]},
    "participation": 0.5,
    "max_rounds": 6,
    "targets": {"fah_budget": 50.0, "recall_target": 1.0},
}
# the run's config over _BASE; "entry" picks run_experiment, run_baseline or sweep, and "load"
# runs from a file holding the synthesized federation
CASES = {
    "run_adam_pooled_fedsgd": {"eval_mode": "pooled"},
    "run_plain_pooled_fedsgd": {"eval_mode": "pooled", "strategy": {"kind": "plain"}},
    "run_adam_federated_b4_e2_relu": {
        "model": {"layer_dims": [4, 5, 2]},
        "local": {"batch_size": 4, "epochs": 2, "eta_local": 0.05},
    },
    "run_plain_federated_b3_tanh": {
        "model": {"layer_dims": [4, 3, 2], "activation": "tanh"},
        "local": {"batch_size": 3, "eta_local": 0.05},
        "strategy": {"kind": "plain", "eta_global": 0.8},
    },
    "run_adam_pooled_e2_eval_every_4": {"eval_mode": "pooled", "local": {"epochs": 2}, "eval_every": 4},
    "run_adam_reaches_target": {"eval_mode": "pooled", "targets": {"fah_budget": 50.0, "recall_target": 0.5}},
    "run_load_plain_b4": {"load": True, "local": {"batch_size": 4}, "strategy": {"kind": "plain"}},
    "baseline_adam_b4": {"entry": "baseline", "baseline_mode": "central_adam", "local": {"batch_size": 4}},
    "baseline_sgd_full_federated": {"entry": "baseline", "baseline_mode": "central_sgd"},
    "baseline_sgd_b3_relu_pooled": {
        "entry": "baseline",
        "baseline_mode": "central_sgd",
        "eval_mode": "pooled",
        "model": {"layer_dims": [4, 5, 2]},
        "local": {"batch_size": 3, "eta_local": 0.1},
    },
    "baseline_load_adam": {"entry": "baseline", "load": True, "baseline_mode": "central_adam"},
    "sweep_participation": {"entry": "sweep", "eval_mode": "pooled", "max_rounds": 3},
}
SWEEP_GRID = {"participation": [0.25, 0.75], "local.batch_size": [None, 4]}


def platform_key() -> dict:
    """numpy's version, its BLAS and the machine: what a float's last bit may depend on."""
    blas = None
    numpy_dir = Path(np.__file__).parent
    for lib in [*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".libs/*openblas*")]:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            if (get_config := getattr(handle, name, None)) is not None:
                get_config.restype = ctypes.c_char_p
                blas = get_config().decode()  # names the kernel chosen for this CPU, not only the build's
                break
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def case_hashes(name: str, seed: int, work: Path) -> dict:
    """{file name: sha256} of what case `name` writes at `seed`, made under the directory work."""
    case = dict(CASES[name])
    entry, load = case.pop("entry", "run"), case.pop("load", False)
    raw = {**_BASE, **case, "master_seed": seed, "output_dir": str(work / "out")}
    if load:
        path = work / "federation.jsonl"
        work.mkdir(parents=True, exist_ok=True)
        save_federation(synthesize_federation(FederationSpec(**_SYNTH), seed=seed), path)
        raw["federation"] = {"load": str(path)}
    config = config_from_dict(raw)
    if entry == "sweep":
        sweep(config, SWEEP_GRID)
        return {"sweep.csv": _sha256((work / "out" / "sweep.csv").read_bytes())}
    (run_baseline if entry == "baseline" else run_experiment)(config)
    report = json.loads((work / "out" / "report.json").read_text(encoding="utf-8"))
    del report["wall_seconds"], report["config_echo"]["output_dir"]
    report["config_echo"]["federation"].pop("load", None)
    return {
        "metrics.csv": _sha256((work / "out" / "metrics.csv").read_bytes()),
        "report.json": _sha256(json.dumps(report, indent=2, sort_keys=True).encode()),
    }


def write_manifest(work: Path) -> dict:
    hashes = {name: {str(seed): case_hashes(name, seed, work / name / str(seed)) for seed in SEEDS} for name in CASES}
    manifest = {"platform": platform_key(), "hashes": hashes}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_manifest(Path(tmp))
    print(f"wrote {MANIFEST}", file=sys.stderr)
