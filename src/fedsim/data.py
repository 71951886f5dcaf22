"""Synthetic non-i.i.d. federations: generation, user splits, file I/O.

A federation is a set of user partitions with heavy-tailed sizes, a
per-user feature offset (speaker-shift analog) on top of class-conditional
Gaussian features, and per-example durations so false alarms per hour are
computable downstream.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, pairwise
from pathlib import Path

import numpy as np
import orjson

from .errors import ConfigError, FederationFormatError, check_fields

# Class index counted as a detection by the evaluation pipeline.
POSITIVE_LABEL = 1

# Distance scale between class-conditional feature means (unit noise).
CLASS_SEPARATION = 3.0


@dataclass(frozen=True, eq=False)
class Federation:
    """Every user's examples, stored column-wise.

    Row i is one example: features X[i], label y[i], duration[i] seconds.
    User user_ids[k] owns rows offsets[k]:offsets[k + 1] (CSR offsets), so
    each user's rows are contiguous; segments keep the order they were
    generated or loaded in.
    """

    X: np.ndarray
    y: np.ndarray
    duration: np.ndarray
    user_ids: np.ndarray
    offsets: np.ndarray
    class_count: int

    def __post_init__(self):
        for name, dtype in (("X", np.float64), ("y", np.intp), ("duration", np.float64),
                            ("user_ids", np.intp), ("offsets", np.intp)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if type(self.class_count) is not int or self.class_count < 2:  # the rule of a federation file's header
            raise ValueError(f"class_count must be an integer >= 2, got {self.class_count!r}")
        X, y, duration, user_ids, offsets = self.X, self.y, self.duration, self.user_ids, self.offsets
        if user_ids.ndim != 1 or len(user_ids) == 0:
            raise ValueError("federation needs at least one partition")
        n = len(y)
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != n or duration.shape != (n,):
            raise ValueError(
                f"features have shape {X.shape}, labels {y.shape} and durations {duration.shape}; "
                "expected (N, feature_dim), (N,) and (N,)"
            )
        if offsets.shape != (len(user_ids) + 1,) or offsets[0] != 0 or offsets[-1] != n:
            raise ValueError(f"offsets must run from 0 to {n} with one entry per user plus one")
        if np.any(np.diff(offsets) < 1):
            uid = user_ids[np.argmax(np.diff(offsets) < 1)]
            raise ValueError(f"user {uid}: partition must hold at least one example")
        ordered = np.sort(user_ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError(f"duplicate user id {ordered[1:][ordered[1:] == ordered[:-1]][0]}")
        bad = (y < 0) | (y >= self.class_count) | ~(duration >= 0)
        if np.any(bad):
            row = np.argmax(bad)
            uid = user_ids[np.searchsorted(offsets, row, side="right") - 1]
            raise ValueError(f"user {uid}: label {y[row]} out of range or duration {duration[row]} negative")
        object.__setattr__(self, "_segment", {int(u): k for k, u in enumerate(user_ids)})

    @property
    def feature_dim(self) -> int:
        return self.X.shape[1]

    def segments(self, user_ids) -> np.ndarray:
        """Segment index k of each given user id, in the order given."""
        try:
            return np.array([self._segment[u] for u in user_ids], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"unknown user id {exc.args[0]}") from None

    def sizes(self, user_ids) -> np.ndarray:
        """Example count of each given user, in the order given."""
        k = self.segments(user_ids)
        return self.offsets[k + 1] - self.offsets[k]

    def rows(self, user_ids) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the given users' rows, concatenated in the order given, and their sizes."""
        k = self.segments(user_ids)
        starts, sizes = self.offsets[k], self.offsets[k + 1] - self.offsets[k]
        # pool row j of a user whose rows start at pool row p is federation row starts + j - p
        return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes), sizes


@dataclass(frozen=True)
class FederationSpec:
    """Target statistics for a synthesized federation."""

    user_count: int
    size_mean: float = 39.0
    size_std: float = 32.0
    positive_rate: float = 0.18
    feature_dim: int = 10
    class_count: int = 2
    user_shift_scale: float = 1.0
    negative_duration_s: float = 3.0

    def __post_init__(self):
        check_fields(self)
        if self.user_count < 1:
            raise ConfigError("user_count must be >= 1")
        if self.size_mean <= 0:
            raise ConfigError("size_mean must be positive")
        if self.size_std < 0:
            raise ConfigError("size_std must be nonnegative")
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError("positive_rate must be in (0, 1)")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.class_count < 2:
            raise ConfigError("class_count must be >= 2")
        if self.user_shift_scale < 0:
            raise ConfigError("user_shift_scale must be nonnegative")
        if self.negative_duration_s <= 0:
            raise ConfigError("negative_duration_s must be positive")
        if self.user_count * self.feature_dim * 8 >= 2**63:  # the users' float64 shifts; numpy indexes no more
            raise ConfigError(f"user_count {self.user_count} and feature_dim {self.feature_dim} give 2**63 bytes "
                              "or more of user shifts")


# Rows synthesis assembles a pass at a time, so the pass's temporaries stay small beside X.
SYNTH_BLOCK_ROWS = 1024


def _partition_sizes(spec: FederationSpec, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed per-user sizes: log-normal fitted to (mean, std), rounded half to even, clamped >= 1.
    ConfigError unless their total is below 2**63, as offsets and row indices need, and their rows'
    float64 features take less than 2**63 bytes, as numpy needs."""
    if spec.size_std == 0:
        raw = np.full(spec.user_count, spec.size_mean)
    else:
        ratio = spec.size_std / spec.size_mean
        sigma2 = np.log1p(ratio * ratio)
        mu = np.log(spec.size_mean) - 0.5 * sigma2
        raw = rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=spec.user_count)
    sizes = np.maximum(np.rint(raw), 1.0)
    # fsum rounds the exact sum once, so it is below 1 only if the total is below 2**63; the scaling is exact,
    # keeps the sum finite, and leaves an inf size inf
    if not math.fsum((sizes * 2.0**-63).tolist()) < 1.0:
        raise ConfigError(f"size_mean {spec.size_mean} and size_std {spec.size_std} give 2**63 or more examples")
    sizes = sizes.astype(np.intp)
    if (n := int(sizes.sum())) * spec.feature_dim * 8 >= 2**63:  # exact: the total fits int64
        raise ConfigError(f"size_mean {spec.size_mean}, size_std {spec.size_std} and feature_dim {spec.feature_dim} "
                          f"give {n} examples, 2**63 bytes or more of features")
    return sizes


def synthesize_federation(spec: FederationSpec, seed: int) -> Federation:
    """Generate an unbalanced federation, deterministically from (spec, seed).

    Each user carries a private feature offset of norm user_shift_scale added
    to every example, so user distributions differ while label semantics are
    shared. Positive examples get a uniform [1, 3] s duration; negatives get
    the fixed configured duration. Only the random draws are made user by
    user, in the order README's data section gives, so a user's data depends
    only on the users before it; whole-array passes then assemble the rest.
    """
    rng = np.random.default_rng(seed)
    sizes = _partition_sizes(spec, rng)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n, d = int(offsets[-1]), spec.feature_dim
    X, duration, draws = np.empty((n, d)), np.empty(n), np.empty(n)
    y = np.zeros(n, dtype=np.intp)  # 0 is the one negative class when class_count == 2
    shifts, squares = np.empty((spec.user_count, d)), np.empty(spec.user_count)
    negatives = [c for c in range(spec.class_count) if c != POSITIVE_LABEL]
    for k, (start, stop) in enumerate(pairwise(offsets.tolist())):
        direction = rng.standard_normal(out=shifts[k])
        squares[k] = direction @ direction  # np.linalg.norm of a vector is the root of this dot
        rng.random(out=draws[start:stop])
        if spec.class_count > 2:
            y[start:stop] = rng.choice(negatives, size=stop - start)
        rng.standard_normal(out=X[start:stop])
        rng.random(out=duration[start:stop])  # uniform(1, 3) draws this and gives 1 + 2 * it, bit for bit

    is_positive = draws < spec.positive_rate
    del draws  # freed before the assembly, whose temporaries set synthesis's peak memory
    y[is_positive] = POSITIVE_LABEL
    duration = np.where(is_positive, 1.0 + 2.0 * duration, spec.negative_duration_s)
    # shift = scale * direction / norm; a zero norm leaves signed zeros, which add to a mean as zeros do
    np.divide(spec.user_shift_scale * shifts, np.sqrt(squares)[:, None], out=shifts, where=squares[:, None] > 0)
    means = np.zeros((spec.class_count, d))  # class c's mean: CLASS_SEPARATION on axis c mod d
    means[np.arange(spec.class_count), np.arange(spec.class_count) % d] = CLASS_SEPARATION
    owner = np.repeat(np.arange(spec.user_count), sizes)
    for start in range(0, n, SYNTH_BLOCK_ROWS):  # X = (class mean + shift) + noise, the noise in place
        rows = slice(start, start + SYNTH_BLOCK_ROWS)
        X[rows] += means[y[rows]] + shifts[owner[rows]]
    return Federation(X, y, duration, np.arange(spec.user_count), offsets, spec.class_count)


def check_split(train_frac: float, dev_frac: float) -> None:
    """Raise ConfigError unless both fractions are nonnegative and sum to at most 1."""
    if train_frac < 0 or dev_frac < 0:
        raise ConfigError("split fractions must be nonnegative")
    if train_frac + dev_frac > 1.0 + 1e-12:
        raise ConfigError("train_frac + dev_frac must not exceed 1")


def split_users(
    federation: Federation, train_frac: float, dev_frac: float, seed: int
) -> tuple[list[int], list[int], list[int]]:
    """Disjoint, exhaustive (train, dev, test) user-id split; test takes the rest.

    Splits are by user, never by example, so no user's data leaks across sets.
    """
    check_split(train_frac, dev_frac)
    ids = np.sort(federation.user_ids)
    k = len(ids)
    n_train = min(k, int(np.floor(train_frac * k + 0.5)))
    n_dev = min(k - n_train, int(np.floor(dev_frac * k + 0.5)))
    perm = np.random.default_rng(seed).permutation(ids)
    train = sorted(int(u) for u in perm[:n_train])
    dev = sorted(int(u) for u in perm[n_train : n_train + n_dev])
    test = sorted(int(u) for u in perm[n_train + n_dev :])
    return train, dev, test


@contextmanager
def replacing(path: Path):
    """A text file to write in place of `path`: written beside it and renamed
    over it only when the block completes, so a failed write leaves no
    truncated file and no partial one."""
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("w", encoding="utf-8") as fh:
            yield fh
        partial.replace(path)  # os.replace: atomic
    finally:
        partial.unlink(missing_ok=True)


def save_federation(federation: Federation, path: str | Path) -> None:
    """Write newline-delimited JSON: a header line, then one example per line.

    Written through `replacing`, so a failed write leaves no truncated file
    that would load as a smaller federation. Rows become Python lists
    LOAD_BLOCK_LINES at a time, never the whole federation at once.
    """
    if not (np.isfinite(federation.X).all() and np.isfinite(federation.duration).all()):
        raise ValueError("features and durations must be finite to be saved")
    owners = np.repeat(federation.user_ids, np.diff(federation.offsets))
    columns = (owners, federation.X, federation.y, federation.duration)
    with replacing(Path(path)) as fh:
        header = {"feature_dim": federation.feature_dim, "class_count": federation.class_count}
        fh.write(json.dumps(header) + "\n")
        for start in range(0, len(federation.y), LOAD_BLOCK_LINES):
            block = (a[start : start + LOAD_BLOCK_LINES].tolist() for a in columns)
            for user_id, features, label, duration in zip(*block):
                record = {"user_id": user_id, "features": features, "label": label, "duration_s": duration}
                fh.write(json.dumps(record) + "\n")


_RECORD_KEYS = {"user_id", "features", "label", "duration_s"}

# Values decoded from JSON are exactly int, float, bool, str, list, dict or
# None, so exact type tests suffice (and exclude bool). A number x is finite
# when -_FLOAT_MAX <= x <= _FLOAT_MAX: false for NaN, the infinities Python's
# json accepts, and integers too large for a float.
_FLOAT_MAX = sys.float_info.max
_ID_RANGE = np.iinfo(np.intp)  # user ids are stored as intp


def _decode(raw: str, line_no: int, what: str):
    """json.loads of one line; a failure is a FederationFormatError naming the line."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FederationFormatError(f"invalid {what}: {exc.msg}", line=line_no) from None
    except RecursionError:
        raise FederationFormatError(f"invalid {what}: nested too deeply", line=line_no) from None


def _parse_record(raw: str, line_no: int, feature_dim: int, class_count: int) -> tuple[int, list, int, float]:
    """(user_id, features, label, duration_s) of one validated record line."""
    obj = _decode(raw, line_no, "JSON")
    if not isinstance(obj, dict) or set(obj) != _RECORD_KEYS:
        raise FederationFormatError(
            f"record must have exactly keys {sorted(_RECORD_KEYS)}", line=line_no
        )
    user_id = obj["user_id"]
    features = obj["features"]
    label = obj["label"]
    duration = obj["duration_s"]
    if type(user_id) is not int or not _ID_RANGE.min <= user_id <= _ID_RANGE.max:
        raise FederationFormatError(f"user_id must be an {_ID_RANGE.dtype} integer", line=line_no)
    if type(label) is not int or not 0 <= label < class_count:
        raise FederationFormatError(f"label must be an integer in [0, {class_count})", line=line_no)
    if not isinstance(features, list) or len(features) != feature_dim:
        raise FederationFormatError(
            f"features must be a list of {feature_dim} reals", line=line_no
        )
    if not all(type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX for v in features):
        raise FederationFormatError("features must be finite numbers", line=line_no)
    if type(duration) not in (int, float) or not 0 <= duration <= _FLOAT_MAX:
        raise FederationFormatError("duration_s must be a finite nonnegative real", line=line_no)
    return user_id, features, label, duration


# Nonblank lines load_federation decodes per orjson.loads call: 128 to 1024 load equally fast
# (2 vCPU, json or orjson), and one json decode of a whole 5.4 MB file raised peak RSS from 38 to 61 MB.
LOAD_BLOCK_LINES = 512


def _parse_header(raw: str) -> tuple[int, int]:
    """(feature_dim, class_count) of a validated header line."""
    header = _decode(raw, 1, "JSON header")
    if not isinstance(header, dict) or set(header) != {"feature_dim", "class_count"}:
        raise FederationFormatError(
            'header must be {"feature_dim": int, "class_count": int}', line=1
        )
    feature_dim, class_count = header["feature_dim"], header["class_count"]
    if type(feature_dim) is not int or feature_dim < 1:
        raise FederationFormatError("feature_dim must be a positive integer", line=1)
    if type(class_count) is not int or class_count < 2:
        raise FederationFormatError("class_count must be an integer >= 2", line=1)
    return feature_dim, class_count


@contextmanager
def _federation_file(path: Path):
    """(the text file after its header line, feature_dim, class_count); errors met in the block name the file."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            head = fh.readline()
            if not head.strip() and not any(line.strip() for line in fh):
                raise ConfigError(f"{path}: empty federation file")
            yield fh, *_parse_header(head)
    except UnicodeDecodeError as exc:
        raise FederationFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except FederationFormatError as exc:  # the file, then the line the message names
        exc.args = (f"{path}: {exc}",)
        raise


def read_header(path: str | Path) -> tuple[int, int]:
    """(feature_dim, class_count) of a federation file, read as load_federation reads it."""
    with _federation_file(Path(path)) as (_, feature_dim, class_count):
        return feature_dim, class_count


def _load_lines(path: Path) -> Federation:
    """load_federation's per-line loop, the one home of its errors and their line numbers."""
    features = array("d")  # row-major, feature_dim values a record
    labels: list[int] = []
    durations: list[float] = []
    user_ids: list[int] = []
    offsets: list[int] = []
    seen: set[int] = set()
    with _federation_file(path) as (fh, feature_dim, class_count):
        lines = (raw.removesuffix("\n") for raw in fh)  # universal newlines: \r\n and \r read as \n
        for line_no, raw in enumerate(lines, start=2):
            if not raw.strip():
                continue
            user_id, row, label, duration = _parse_record(raw, line_no, feature_dim, class_count)
            if not user_ids or user_id != user_ids[-1]:
                if user_id in seen:
                    raise FederationFormatError(f"duplicate user id {user_id}", line=line_no)
                seen.add(user_id)
                user_ids.append(user_id)
                offsets.append(len(labels))
            features.extend(row)
            labels.append(label)
            durations.append(duration)

    if not labels:
        raise ConfigError(f"{path}: federation file holds no examples")
    offsets.append(len(labels))
    return Federation(
        X=np.frombuffer(features, dtype=np.float64).reshape(len(labels), feature_dim),
        y=np.array(labels, dtype=np.intp),
        duration=np.array(durations, dtype=np.float64),
        user_ids=np.array(user_ids, dtype=np.intp),
        offsets=np.array(offsets, dtype=np.intp),
        class_count=class_count,
    )


def load_federation(path: str | Path) -> Federation:
    """Load a federation file, enforcing all invariants.

    Records of one user must be contiguous; a user id reappearing after its
    run ended is rejected as a duplicate. Nonblank lines are decoded
    LOAD_BLOCK_LINES at a time by orjson and checked as text and arrays, Federation
    checking ranges and user runs; on any defect, _load_lines reruns to name it.
    """
    path = Path(path)
    try:
        with _federation_file(path) as (fh, feature_dim, class_count):
            lines, blocks = (line for line in fh if not line.isspace()), []
            while block := list(islice(lines, LOAD_BLOCK_LINES)):
                text, n = "[" + ",".join(block) + "]", len(block)
                # One record a line: one object whose only strings are its four keys (8 quotes)
                # and whose only list is its features, without booleans, which np.array takes
                # as 0 and 1. The text is checked first: orjson has no nesting limit, and a
                # line of 200,000 '[' overflowed its stack (a crash, not an exception).
                if not (all(s[0] == "{" and s[-1] == "}" for s in (raw.strip(" \t\r\n") for raw in block))
                        and text.count('"') == 8 * n and text.count("[") == n + 1
                        and "true" not in text and "false" not in text):
                    raise ValueError
                records = orjson.loads(text)  # NaN, infinities and lone surrogates raise a ValueError
                duration, X, y, uid = (np.array([r[key] for r in records]) for key in sorted(_RECORD_KEYS))
                # np.isfinite raises TypeError on what is not a number
                if not (uid.dtype == y.dtype == np.intp and X.shape == (n, feature_dim)
                        and np.isfinite(X).all() and np.isfinite(duration).all()):
                    raise ValueError
                blocks.append((uid, X, y, duration))
        # no block leaves nothing to unpack: a ValueError, as for any defect
        uid, X, y, duration = (np.concatenate(column) for column in zip(*blocks))
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        return Federation(X, y, duration, uid[starts], np.append(starts, len(uid)), class_count)
    except (ValueError, TypeError, KeyError):
        return _load_lines(path)
