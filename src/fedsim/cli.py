"""Command-line entry point: run, sweep, and baseline subcommands."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, EvaluationError
from .experiment import ExperimentConfig, load_config, read_json, run_baseline, run_experiment, sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-averaging simulator",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options every subcommand takes
    common.add_argument("--config", required=True, help="experiment config JSON")
    common.add_argument("--seed", type=int, default=None, help="override master_seed")
    common.add_argument("--output-dir", default=None, help="override output directory")

    sub.add_parser("run", parents=[common], help="run one federated experiment")
    sweep_p = sub.add_parser("sweep", parents=[common], help="run a parameter-grid sweep (point i uses seed + i)")
    sweep_p.add_argument("--grid", required=True, help="JSON mapping of dotted config paths to value lists")
    sub.add_parser("baseline", parents=[common], help="run the centralized baseline")
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.output_dir is not None:
        config = replace(config, output_dir=Path(args.output_dir))
    if config.output_dir is None:
        raise ConfigError("no output directory: set output_dir in the config or pass --output-dir")
    return config


# numpy's overflow warnings would come before the one error: line; divergence checks still raise
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        if args.command == "run":
            report = run_experiment(_load(args)).report
            print(
                f"rounds_to_target={report['rounds_to_target']} "
                f"dev_metric={report['dev_metric']:.4f} "
                f"upload_mb_per_client={report['upload_mb_per_client']:.3f}"
            )
        elif args.command == "baseline":
            report = run_baseline(_load(args)).report
            print(
                f"steps_to_target={report['steps_to_target']} dev_metric={report['dev_metric']:.4f}"
            )
        else:
            config = _load(args)
            rows = sweep(config, read_json(args.grid))
            print(f"sweep complete: {len(rows)} rows -> {config.output_dir / 'sweep.csv'}")
    except (ValueError, EvaluationError, FloatingPointError, OSError) as exc:
        # ValueError includes ConfigError and FederationFormatError;
        # FloatingPointError is a run that diverged
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation: "Unable to allocate 4.26 PiB for an array ..."
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
