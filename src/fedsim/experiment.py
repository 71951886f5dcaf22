"""Experiment orchestration: strict JSON configuration, one optimization
loop with early stopping shared by federated runs and the centralized
baseline, parameter sweeps, and CSV/JSON report emission.

Everything an experiment emits is a pure function of (config, master_seed);
the master seed expands into per-purpose seeds via `seeding.derive_seed`.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import enum
import functools
import itertools
import json
import logging
import time
import typing
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as model_ops
from . import server
from .client import epoch_batches, local_step_count
from .data import (
    Federation,
    FederationSpec,
    check_split,
    load_federation,
    read_header,
    replacing,
    split_users,
    synthesize_federation,
)
from .errors import ConfigError, EvaluationError, check_fields, type_hints
from .evaluation import EvalTargets, eval_segments, federated_eval, pooled_eval
from .model import ModelSpec, xavier_init
from .seeding import derive_seed
from .server import RoundConfig, ServerState, cohort_loss, run_round, upload_cost_bytes

logger = logging.getLogger(__name__)

# Default split: most users train, the rest divides evenly into dev and test.
DEFAULT_TRAIN_FRAC = 1374 / 1774
DEFAULT_DEV_FRAC = 200 / 1774


class BaselineMode(str, enum.Enum):
    NONE = "none"
    CENTRAL_ADAM = "central_adam"
    CENTRAL_SGD = "central_sgd"


class EvalMode(str, enum.Enum):
    FEDERATED = "federated"
    POOLED = "pooled"


@dataclass(frozen=True)
class FederationSource:
    """Either a synthesis spec or a path to a saved federation file."""

    synthesize: FederationSpec | None = None
    load: Path | None = None

    def __post_init__(self):
        check_fields(self)
        if (self.synthesize is None) == (self.load is None):
            raise ConfigError("federation source needs exactly one of 'synthesize' or 'load'")

    def realize(self, seed: int) -> Federation:
        if self.synthesize is not None:
            return synthesize_federation(self.synthesize, seed)
        return load_federation(self.load)


def _check_fit(model: ModelSpec, feature_dim: int, class_count: int) -> None:
    """Raise ConfigError unless the model's input dim and class count are the federation's."""
    if model.feature_dim != feature_dim:
        raise ConfigError(f"model input dim {model.feature_dim} != federation feature dim {feature_dim}")
    if model.class_count != class_count:
        raise ConfigError(f"model class count {model.class_count} != federation class count {class_count}")


@dataclass(frozen=True)
class SplitConfig:
    """Fractions of the users that train and that early-stop (dev); test users are the rest."""

    train_frac: float = DEFAULT_TRAIN_FRAC
    dev_frac: float = DEFAULT_DEV_FRAC

    def __post_init__(self):
        check_fields(self)
        check_split(self.train_frac, self.dev_frac)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(RoundConfig):
    """One experiment: a RoundConfig (model, local, strategy, participation) and the
    rest. Its JSON form (config_from_dict, to_dict) maps each nested dataclass to one object."""

    federation: FederationSource
    split: SplitConfig = SplitConfig()
    max_rounds: int = 100
    targets: EvalTargets = EvalTargets()
    master_seed: int = 0
    output_dir: Path | None = None
    eval_every: int = 1
    eval_mode: EvalMode = EvalMode.FEDERATED
    baseline_mode: BaselineMode = BaselineMode.NONE

    def __post_init__(self):
        super().__post_init__()
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if (fed := self.federation.synthesize) is not None:  # a loaded federation is checked once read
            _check_fit(self.model, fed.feature_dim, fed.class_count)

    # bench/run.py (_realize) reads these two too; the benchmark's files change only with the benchmark
    @property
    def train_frac(self) -> float:
        return self.split.train_frac

    @property
    def dev_frac(self) -> float:
        return self.split.dev_frac

    def to_dict(self) -> dict:
        return _to_json(self)


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluated round: one metrics.csv row, its fields the columns in order."""

    round: int
    dev_metric: float
    train_loss_mean: float
    cumulative_upload_mb: float


@dataclass(frozen=True)
class ExperimentResult:
    report: dict
    metrics: list[MetricsRecord]


def _to_json(value):
    """JSON form of a config value; config_from_dict reads it back."""
    if dataclasses.is_dataclass(value):
        out: dict = {}
        for f in dataclasses.fields(value):
            item = _to_json(getattr(value, f.name))
            if item is None and isinstance(value, FederationSource):
                continue  # only the chosen source is written
            out[f.name] = item
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def _from_json(cls, raw, where: str = ""):
    """Build dataclass `cls` from a JSON object: a field's object becomes its config dataclass, and
    every other value goes to the constructor as it is, to be checked as in Python (errors.check_fields).
    Absent keys take the dataclass default. A document that is not an object, unknown keys and missing
    required keys raise ConfigError naming the dotted key."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    rest = dict(raw)
    hints = type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f"{where}.{f.name}" if where else f.name
        if f.name in rest:
            value = rest.pop(f.name)  # a JSON object becomes its field's config dataclass (X, or X | None)
            nested = [k for k in typing.get_args(hints[f.name]) or [hints[f.name]] if dataclasses.is_dataclass(k)]
            kwargs[f.name] = _from_json(nested[0], value, key) if nested and isinstance(value, dict) else value
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing required key {key!r}")
    if rest:
        raise ConfigError(f"{where or 'config'}: unknown keys {sorted(rest)}")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig, fail-fast."""
    return _from_json(ExperimentConfig, raw)


def read_json(path: str | Path):
    """The JSON document in the file at path; text that is not UTF-8, and invalid
    or too deeply nested JSON, is a ConfigError naming the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg}, line {exc.lineno})") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON (nested too deeply)") from None


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


def _prepare(config: ExperimentConfig):
    """Build the federation, user split, and initial weights; validate fit."""
    federation = config.federation.realize(derive_seed(config.master_seed, "federation"))
    _check_fit(config.model, federation.feature_dim, federation.class_count)
    train, dev, test = split_users(
        federation, config.train_frac, config.dev_frac, derive_seed(config.master_seed, "split")
    )
    if not train:
        raise ConfigError("user split produced an empty training pool")
    if not dev:
        raise ConfigError("user split produced an empty dev pool; cannot early-stop")
    for name, pool in (("dev", dev), ("test", test)):
        if not pool:
            continue
        try:
            eval_segments(federation, pool, pooled=config.eval_mode is EvalMode.POOLED)
        except EvaluationError as exc:
            mode = config.eval_mode.value
            raise EvaluationError(f"the {name} pool cannot produce a {mode} metric: {exc}") from None
    w0 = xavier_init(config.model, derive_seed(config.master_seed, "init"))
    return federation, train, dev, test, w0


def _write_row(path: Path, header: list, row: list, first: bool) -> None:
    """Append row to the CSV file at path, so a crash keeps the rows made so
    far. The first row creates the file, its directory and the header."""
    if first:
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w" if first else "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if first:
            writer.writerow(header)
        writer.writerow(row)


def _finish(config: ExperimentConfig, report: dict, metrics: list[MetricsRecord]) -> ExperimentResult:
    """Write report.json when output_dir is set, through `replacing`, so a
    failed write leaves no truncated report.json."""
    if config.output_dir is not None:
        with replacing(config.output_dir / "report.json") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ExperimentResult(report=report, metrics=metrics)


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS in numpy.libs or numpy/.libs; None if numpy has none."""
    numpy_dir = Path(np.__file__).parent
    for lib in [*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".libs/*openblas*")]:
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get, set_ = (getattr(handle, f"{prefix}{op}_num_threads{suffix}", None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, then restore the caller's count, exceptions included. A second
    thread spins on through fedsim's small products; threads never split an inner sum, so no output moves."""
    get, set_ = _openblas_threads() or (lambda: None, lambda count: None)  # another BLAS is left alone
    caller = get()
    set_(1)
    try:
        yield
    finally:
        set_(caller)


@_one_blas_thread()
def _optimize(
    config: ExperimentConfig, state: ServerState, step: Callable[[ServerState, int], tuple], unit: str,
    federation: Federation, dev, test, t0,
) -> tuple[list[MetricsRecord], dict, int | None, ServerState]:
    """The loop run_experiment and run_baseline share; it alone holds the run's state.

    `step(state, t)` is a pure function of the state after step t - 1 and t:
    it takes step t (one round, or one central step) and returns the state
    after it, the upload MB per client after t steps, and a callable for the
    train loss a row writes, called only on evaluated steps. Evaluates dev
    users every `eval_every` steps and at max_rounds, stops at the first step
    whose dev metric is at least the recall target, then evaluates test users
    once. Writes each row as it is made; returns the rows, the report fields
    both drivers write, the step that met the target (None if none did) and
    the last state. A FloatingPointError of an evaluation or the train loss
    names `{unit} t` and the pool.
    """
    if config.output_dir is not None:  # an earlier run's files must not sit beside this run's
        for name in ("metrics.csv", "report.json"):
            (config.output_dir / name).unlink(missing_ok=True)
    evaluate = pooled_eval if config.eval_mode is EvalMode.POOLED else federated_eval

    def named(pool: str, compute: Callable[..., float], *args) -> float:
        try:
            return compute(*args)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{unit} {t}: diverged; {pool} pool: {exc}") from None

    metrics: list[MetricsRecord] = []
    dev_metric = to_target = None
    for t in range(1, config.max_rounds + 1):
        state, upload_mb, train_loss = step(state, t)
        if t % config.eval_every == 0 or t == config.max_rounds:
            dev_metric = named("dev", evaluate, config.model, state.weights, federation, dev, config.targets)
            metrics.append(MetricsRecord(round=t, dev_metric=dev_metric, train_loss_mean=named("train", train_loss),
                                         cumulative_upload_mb=upload_mb))
            logger.info("round %d: dev_metric=%.6f, %.3f s elapsed", t, dev_metric, time.perf_counter() - t0)
            if config.output_dir is not None:
                columns = [f.name for f in dataclasses.fields(MetricsRecord)]
                _write_row(config.output_dir / "metrics.csv", columns, dataclasses.astuple(metrics[-1]),
                           first=len(metrics) == 1)
            if dev_metric >= config.targets.recall_target:
                to_target = t
                break
    w = state.weights
    test_metric = named("test", evaluate, config.model, w, federation, test, config.targets) if test else None
    report = {
        "dev_metric": dev_metric,
        "test_metric": test_metric,
        "wall_seconds": time.perf_counter() - t0,
        "config_echo": config.to_dict(),
    }
    return metrics, report, to_target, state


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the synchronous federated optimization with early stopping.

    Each step is one communication round; an evaluation row's train loss is
    the round's cohort loss at the weights broadcast that round. Writes
    metrics.csv and report.json when output_dir is set.
    """
    t0 = time.perf_counter()
    federation, train, dev, test, w0 = _prepare(config)

    def step(state: ServerState, t: int):
        new_state, selected = run_round(state, federation, train, config, derive_seed(config.master_seed, "round", t))
        upload_mb = upload_cost_bytes(config.model.param_count, config.participation, t) / 1e6
        train_loss = functools.partial(cohort_loss, config.model, state.weights, federation, selected)
        return new_state, upload_mb, train_loss

    metrics, report, rounds_to_target, state = _optimize(
        config, ServerState.initial(w0), step, "round", federation, dev, test, t0
    )
    report.update(
        rounds_to_target=rounds_to_target,
        # the last step taken always writes a row
        upload_mb_per_client=metrics[-1].cumulative_upload_mb,
        total_local_steps=state.local_steps,
    )
    return _finish(config, report, metrics)


def run_baseline(config: ExperimentConfig) -> ExperimentResult:
    """Centralized reference: pool all train users' data on one server.

    Step t takes slot (t - 1) % per_epoch of epoch (t - 1) // per_epoch of
    the clients' epoch_batches over the pool, with seed parts (master_seed,
    "baseline", epoch), per_epoch being the batches an epoch holds. It steps
    through the server's rules: apply_plain at eta_local (SGD), or apply_adam
    at the strategy's settings; an evaluation row's train loss is
    model.loss_from_arrays over the whole train pool.
    """
    if config.baseline_mode is BaselineMode.NONE:
        raise ConfigError("baseline_mode is 'none'; nothing to run")
    t0 = time.perf_counter()
    federation, train, dev, test, w0 = _prepare(config)
    rows = federation.rows(train)[0]
    X, y = federation.X[rows], federation.y[rows]
    per_epoch = local_step_count(len(y), config.local.batch_size, 1)
    # one epoch's batches are kept, for the steps that follow in the same epoch
    epoch_of = functools.lru_cache(maxsize=1)(
        functools.partial(epoch_batches, len(y), config.local.batch_size, config.master_seed, "baseline")
    )

    def step(state: ServerState, t: int):
        epoch, slot = divmod(t - 1, per_epoch)
        idx = epoch_of(epoch)[slot]
        grad = model_ops.gradient_from_arrays(config.model, state.weights, X[idx], y[idx])
        try:
            if config.baseline_mode is BaselineMode.CENTRAL_ADAM:
                state = server.apply_adam(state, grad, config.strategy)
            else:
                state = server.apply_plain(state, grad, config.local.eta_local)
        except FloatingPointError as exc:
            raise FloatingPointError(f"step {t}: diverged; {exc}") from None
        return state, 0.0, functools.partial(model_ops.loss_from_arrays, config.model, state.weights, X, y)

    metrics, report, steps_to_target, _ = _optimize(
        config, ServerState.initial(w0), step, "step", federation, dev, test, t0
    )
    report.update(steps_to_target=steps_to_target, pooled_examples=len(y))
    return _finish(config, report, metrics)


def _set_dotted(mapping: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = mapping
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    node[keys[-1]] = value


def _with_message(exc: Exception, message: str) -> Exception:
    """`message` as an exception of exc's type, or of its nearest base type that takes a message alone."""
    for cls in type(exc).__mro__:  # UnicodeDecodeError takes five arguments; UnicodeError, any
        with contextlib.suppress(TypeError):
            return cls(message)


def sweep(config: ExperimentConfig, grid: dict[str, list]) -> list[dict]:
    """Cross-product sweep over dotted config paths.

    Every grid point's config is built, and so checked, before any point
    runs; so is its model's fit to a loaded file, read from the file's header
    line. Point i uses master seed base+i, so a singleton grid reproduces
    run_experiment exactly; the grid may not set master_seed, nor output_dir.
    Returns one row per (point, evaluated round): the point's grid values,
    round, dev_metric and train_loss_mean. When the base config has
    an output_dir, each point's rows are appended to sweep.csv as the point
    finishes, so a failing point keeps the earlier points' rows; its error
    names the point.
    """
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep grid must be a nonempty mapping of parameter lists")
    for key, values in grid.items():
        if key.split(".")[0] in ("master_seed", "output_dir"):
            raise ConfigError(f"sweep grid may not set {key!r}; the sweep sets it per point")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep grid entry {key!r} must be a nonempty list")

    keys = list(grid)
    base = config.to_dict()
    points: list[tuple[dict, ExperimentConfig]] = []
    for index, combo in enumerate(itertools.product(*(grid[k] for k in keys))):
        raw = json.loads(json.dumps(base))
        for key, value in zip(keys, combo):
            _set_dotted(raw, key, value)
        raw["master_seed"] = config.master_seed + index
        raw["output_dir"] = None
        try:
            point_config = config_from_dict(raw)
            if (path := point_config.federation.load) is not None:
                _check_fit(point_config.model, *read_header(path))
        except (ValueError, OSError) as exc:  # a ConfigError, or a header that cannot be read
            raise ConfigError(f"sweep point {dict(zip(keys, combo))}: {exc}") from None
        points.append((dict(zip(keys, combo)), point_config))

    if config.output_dir is not None:  # an earlier sweep's rows must not sit beside this one's
        (config.output_dir / "sweep.csv").unlink(missing_ok=True)
    rows: list[dict] = []
    for params, point_config in points:
        try:
            result = run_experiment(point_config)
        except (ValueError, EvaluationError, FloatingPointError, OSError, MemoryError) as exc:
            raise _with_message(exc, f"sweep point {params}: {exc}") from None
        cells = [json.dumps(v) if isinstance(v, (dict, list)) else v for v in params.values()]
        for rec in result.metrics:
            values = {"round": rec.round, "dev_metric": rec.dev_metric, "train_loss_mean": rec.train_loss_mean}
            if config.output_dir is not None:
                _write_row(
                    config.output_dir / "sweep.csv",
                    keys + list(values),
                    cells + list(values.values()),
                    first=not rows,
                )
            rows.append({**params, **values})
    return rows
