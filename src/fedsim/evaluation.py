"""Scoring, operating-point selection at a false-alarms-per-hour budget,
per-user and pooled recall aggregation, and the early-stopping rule.

The detection score of an example is the model's positive-class
probability; an example triggers when its score is >= the threshold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .data import POSITIVE_LABEL, Federation
from .errors import ConfigError, EvaluationError
from .model import ModelSpec

logger = logging.getLogger(__name__)

# Sentinel threshold just above every attainable score: nothing triggers.
TAU_ABOVE_ALL = math.nextafter(1.0, 2.0)


@dataclass(frozen=True)
class EvalTargets:
    """False-alarm budget (per hour) and the recall that stops training."""

    fah_budget: float = 5.0
    recall_target: float = 0.95

    def __post_init__(self):
        if self.fah_budget <= 0:
            raise ConfigError("fah_budget must be positive")
        if not 0.0 <= self.recall_target <= 1.0:
            raise ConfigError("recall_target must lie in [0, 1]")


@dataclass(frozen=True)
class OperatingPoint:
    tau: float
    recall: float
    fah: float
    feasible: bool = True


def score_examples(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Positive-class probability of every row of X, order preserved."""
    return model.batch_probs(spec, w, X)[:, POSITIVE_LABEL]


def operating_point(
    scores: np.ndarray, labels: np.ndarray, durations: np.ndarray, targets: EvalTargets
) -> OperatingPoint:
    """Threshold maximizing recall subject to FAH <= budget.

    Candidate thresholds are the observed scores plus a sentinel above all of
    them, so the search is finite and exact. Ties in recall break toward the
    larger threshold (fewer false alarms).
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == POSITIVE_LABEL
    pos_sorted = np.sort(scores[positive])
    neg_sorted = np.sort(scores[~positive])
    n_pos, n_neg = len(pos_sorted), len(neg_sorted)
    if not n_pos or not n_neg:
        raise ValueError("operating point needs at least one positive and one negative example")
    # summed left to right, as a reference loop over the examples would
    neg_hours = sum(np.asarray(durations, dtype=np.float64)[~positive].tolist()) / 3600.0
    if neg_hours <= 0:
        raise ValueError("total negative duration must be positive")

    candidates = np.append(np.unique(scores), TAU_ABOVE_ALL)
    recall = (n_pos - np.searchsorted(pos_sorted, candidates, side="left")) / n_pos
    fah = (n_neg - np.searchsorted(neg_sorted, candidates, side="left")) / neg_hours
    feasible = np.flatnonzero(fah <= targets.fah_budget)
    if not feasible.size:
        return OperatingPoint(tau=TAU_ABOVE_ALL, recall=0.0, fah=0.0, feasible=False)
    best = feasible[recall[feasible] == recall[feasible].max()][-1]
    return OperatingPoint(tau=float(candidates[best]), recall=float(recall[best]), fah=float(fah[best]))


def _usable(federation: Federation, user_ids) -> np.ndarray:
    """Per given user: holds a positive and a negative of positive duration,
    as operating_point needs. Column 0 is the former, column 1 the latter."""
    y, starts = federation.y, federation.offsets[:-1]
    has_pos = np.logical_or.reduceat(y == POSITIVE_LABEL, starts)
    has_neg_time = np.logical_or.reduceat((y != POSITIVE_LABEL) & (federation.duration > 0), starts)
    return np.stack([has_pos, has_neg_time], axis=1)[federation.segments(user_ids)]


def can_evaluate(federation: Federation, user_ids, pooled: bool) -> bool:
    """Whether pooled_eval (pooled) or federated_eval can produce a metric."""
    usable = _usable(federation, user_ids)
    if pooled:
        return bool(usable.any(axis=0).all())
    return bool(usable.all(axis=1).any())


def federated_eval(
    spec: ModelSpec,
    w: np.ndarray,
    federation: Federation,
    eval_user_ids,
    targets: EvalTargets,
) -> float:
    """Example-count-weighted mean of per-user recalls at per-user budgets.

    Users whose partitions lack positives, negatives, or negative duration
    are skipped and excluded from the weight normalizer.
    """
    acc = 0.0
    total_weight = 0
    skipped = []
    user_ids = sorted(eval_user_ids)
    for uid, usable in zip(user_ids, _usable(federation, user_ids).all(axis=1)):
        if not usable:
            skipped.append(uid)
            continue
        part = federation.partition(uid)
        point = operating_point(score_examples(spec, w, part.X), part.y, part.duration, targets)
        acc += part.size * point.recall
        total_weight += part.size
    if skipped:
        logger.info("federated_eval skipped %d user(s) without both classes: %s", len(skipped), skipped)
    if total_weight == 0:
        raise EvaluationError("every evaluation user was skipped; no metric available")
    return acc / total_weight


def pooled_eval(
    spec: ModelSpec,
    w: np.ndarray,
    federation: Federation,
    eval_user_ids,
    targets: EvalTargets,
) -> float:
    """Recall at a single operating point over all eval users' pooled examples."""
    user_ids = sorted(eval_user_ids)
    if not can_evaluate(federation, user_ids, pooled=True):
        raise EvaluationError("pooled evaluation set lacks positives, negatives, or duration")
    X, y, duration = federation.pool(user_ids)
    return operating_point(score_examples(spec, w, X), y, duration, targets).recall


def early_stop_check(metric: float, targets: EvalTargets) -> bool:
    """True once the metric meets the recall target (inclusive)."""
    return metric >= targets.recall_target
