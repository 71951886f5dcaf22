"""Synthetic non-i.i.d. federations: generation, user splits, file I/O, stats.

A federation is a set of user partitions with heavy-tailed sizes, a
per-user feature offset (speaker-shift analog) on top of class-conditional
Gaussian features, and per-example durations so false alarms per hour are
computable downstream.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FederationFormatError
from .model import LabeledExample

# Class index counted as a detection by the evaluation pipeline.
POSITIVE_LABEL = 1

# Distance scale between class-conditional feature means (unit noise).
CLASS_SEPARATION = 3.0


@dataclass(frozen=True)
class ClientPartition:
    """One user's private labeled examples."""

    user_id: int
    examples: tuple[LabeledExample, ...]

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if len(self.examples) < 1:
            raise ValueError(f"user {self.user_id}: partition must hold at least one example")

    @property
    def size(self) -> int:
        return len(self.examples)


@dataclass(frozen=True)
class Federation:
    """All user partitions plus the feature/class dimensions they share."""

    partitions: tuple[ClientPartition, ...]
    feature_dim: int
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if not self.partitions:
            raise ValueError("federation needs at least one partition")
        index: dict[int, ClientPartition] = {}
        for part in self.partitions:
            if part.user_id in index:
                raise ValueError(f"duplicate user id {part.user_id}")
            for ex in part.examples:
                if ex.features.shape[0] != self.feature_dim:
                    raise ValueError(
                        f"user {part.user_id}: feature length {ex.features.shape[0]} "
                        f"!= feature_dim {self.feature_dim}"
                    )
                if ex.label >= self.class_count:
                    raise ValueError(f"user {part.user_id}: label {ex.label} out of range")
            index[part.user_id] = part
        object.__setattr__(self, "_by_user", index)

    @property
    def user_count(self) -> int:
        return len(self.partitions)

    @property
    def total_examples(self) -> int:
        return sum(p.size for p in self.partitions)

    @property
    def user_ids(self) -> tuple[int, ...]:
        return tuple(sorted(p.user_id for p in self.partitions))

    def partition(self, user_id: int) -> ClientPartition:
        try:
            return self._by_user[user_id]
        except KeyError:
            raise ValueError(f"unknown user id {user_id}") from None


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


def _partition_sizes(spec: FederationSpec, rng: np.random.Generator) -> np.ndarray:
    """Heavy-tailed per-user sizes: log-normal fitted to (mean, std), clamped >= 1."""
    if spec.size_std == 0:
        return np.full(spec.user_count, max(1, round(spec.size_mean)), dtype=np.intp)
    ratio = spec.size_std / spec.size_mean
    sigma2 = np.log1p(ratio * ratio)
    mu = np.log(spec.size_mean) - 0.5 * sigma2
    raw = rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=spec.user_count)
    return np.maximum(np.rint(raw), 1.0).astype(np.intp)


def _class_means(spec: FederationSpec) -> np.ndarray:
    means = np.zeros((spec.class_count, spec.feature_dim))
    for c in range(spec.class_count):
        means[c, c % spec.feature_dim] = CLASS_SEPARATION
    return means


def synthesize_federation(spec: FederationSpec, seed: int) -> Federation:
    """Generate an unbalanced federation, deterministically from (spec, seed).

    Each user carries a private feature offset of norm user_shift_scale added
    to every example, so user distributions differ while label semantics are
    shared. Positive examples get a uniform [1, 3] s duration; negatives get
    the fixed configured duration.
    """
    rng = np.random.default_rng(seed)
    sizes = _partition_sizes(spec, rng)
    means = _class_means(spec)

    partitions = []
    for user_id in range(spec.user_count):
        n_k = int(sizes[user_id])
        direction = rng.standard_normal(spec.feature_dim)
        norm = np.linalg.norm(direction)
        offset = spec.user_shift_scale * direction / norm if norm > 0 else np.zeros(spec.feature_dim)

        is_positive = rng.random(n_k) < spec.positive_rate
        labels = np.where(is_positive, POSITIVE_LABEL, 0)
        if spec.class_count > 2:
            negatives = [c for c in range(spec.class_count) if c != POSITIVE_LABEL]
            labels = np.where(is_positive, POSITIVE_LABEL, rng.choice(negatives, size=n_k))
        features = means[labels] + offset + rng.standard_normal((n_k, spec.feature_dim))
        durations = np.where(
            is_positive, rng.uniform(1.0, 3.0, size=n_k), spec.negative_duration_s
        )

        examples = tuple(
            LabeledExample(features=features[i], label=int(labels[i]), duration_s=float(durations[i]))
            for i in range(n_k)
        )
        partitions.append(ClientPartition(user_id=user_id, examples=examples))
    return Federation(
        partitions=tuple(partitions),
        feature_dim=spec.feature_dim,
        class_count=spec.class_count,
    )


def split_users(
    federation: Federation, train_frac: float, dev_frac: float, seed: int
) -> tuple[list[int], list[int], list[int]]:
    """Disjoint, exhaustive (train, dev, test) user-id split; test takes the rest.

    Splits are by user, never by example, so no user's data leaks across sets.
    """
    if train_frac < 0 or dev_frac < 0:
        raise ConfigError("split fractions must be nonnegative")
    if train_frac + dev_frac > 1.0 + 1e-12:
        raise ConfigError("train_frac + dev_frac must not exceed 1")
    ids = np.array(federation.user_ids)
    k = len(ids)
    n_train = min(k, int(np.floor(train_frac * k + 0.5)))
    n_dev = min(k - n_train, int(np.floor(dev_frac * k + 0.5)))
    perm = np.random.default_rng(seed).permutation(ids)
    train = sorted(int(u) for u in perm[:n_train])
    dev = sorted(int(u) for u in perm[n_train : n_train + n_dev])
    test = sorted(int(u) for u in perm[n_train + n_dev :])
    return train, dev, test


def save_federation(federation: Federation, path: str | Path) -> None:
    """Write newline-delimited JSON: a header line, then one example per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {"feature_dim": federation.feature_dim, "class_count": federation.class_count}
        fh.write(json.dumps(header) + "\n")
        for part in federation.partitions:
            for ex in part.examples:
                record = {
                    "user_id": part.user_id,
                    "features": ex.features.tolist(),
                    "label": ex.label,
                    "duration_s": ex.duration_s,
                }
                fh.write(json.dumps(record) + "\n")


_RECORD_KEYS = {"user_id", "features", "label", "duration_s"}

# Values decoded from JSON are exactly int, float, bool, str, list, dict or
# None, so exact type tests suffice (and exclude bool). A number x is finite
# when -_FLOAT_MAX <= x <= _FLOAT_MAX: false for NaN, the infinities Python's
# json accepts, and integers too large for a float.
_FLOAT_MAX = sys.float_info.max


def _parse_record(raw: str, line_no: int, feature_dim: int, class_count: int) -> tuple[int, LabeledExample]:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FederationFormatError(f"invalid JSON: {exc.msg}", line=line_no) from None
    if not isinstance(obj, dict) or set(obj) != _RECORD_KEYS:
        raise FederationFormatError(
            f"record must have exactly keys {sorted(_RECORD_KEYS)}", line=line_no
        )
    user_id = obj["user_id"]
    features = obj["features"]
    label = obj["label"]
    duration = obj["duration_s"]
    if type(user_id) is not int:
        raise FederationFormatError("user_id must be an integer", line=line_no)
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
    example = LabeledExample(
        features=np.array(features, dtype=np.float64), label=label, duration_s=float(duration)
    )
    return user_id, example


def load_federation(path: str | Path) -> Federation:
    """Load a federation file, enforcing all invariants.

    Records of one user must be contiguous; a user id reappearing after its
    run ended is rejected as a duplicate.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or all(not line.strip() for line in lines):
        raise ConfigError(f"{path}: empty federation file")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FederationFormatError(f"invalid JSON header: {exc.msg}", line=1) from None
    if not isinstance(header, dict) or set(header) != {"feature_dim", "class_count"}:
        raise FederationFormatError(
            'header must be {"feature_dim": int, "class_count": int}', line=1
        )
    feature_dim, class_count = header["feature_dim"], header["class_count"]
    if type(feature_dim) is not int or feature_dim < 1:
        raise FederationFormatError("feature_dim must be a positive integer", line=1)
    if type(class_count) is not int or class_count < 2:
        raise FederationFormatError("class_count must be an integer >= 2", line=1)

    partitions: list[ClientPartition] = []
    seen: set[int] = set()
    current_user: int | None = None
    current_examples: list[LabeledExample] = []

    def flush():
        if current_user is not None:
            partitions.append(ClientPartition(user_id=current_user, examples=tuple(current_examples)))

    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        user_id, example = _parse_record(raw, line_no, feature_dim, class_count)
        if user_id != current_user:
            flush()
            if user_id in seen:
                raise FederationFormatError(f"duplicate user id {user_id}", line=line_no)
            seen.add(user_id)
            current_user = user_id
            current_examples = []
        current_examples.append(example)
    flush()

    if not partitions:
        raise ConfigError(f"{path}: federation file holds no examples")
    return Federation(partitions=tuple(partitions), feature_dim=feature_dim, class_count=class_count)


def partition_stats(federation: Federation) -> dict[str, float]:
    """Sample statistics over users; std is the population standard deviation."""
    sizes = np.array([p.size for p in federation.partitions], dtype=np.float64)
    positives = sum(
        1 for p in federation.partitions for ex in p.examples if ex.label == POSITIVE_LABEL
    )
    total = federation.total_examples
    return {
        "size_mean": float(sizes.mean()),
        "size_std": float(sizes.std()),
        "positive_rate": positives / total,
        "user_count": federation.user_count,
        "total_examples": total,
    }
