"""Scoring, operating-point selection at a false-alarms-per-hour budget,
and per-user and pooled recall aggregation.

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
from .errors import ConfigError, EvaluationError, check_fields
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
        check_fields(self)
        if self.fah_budget <= 0:
            raise ConfigError("fah_budget must be positive")
        if not 0.0 <= self.recall_target <= 1.0:
            raise ConfigError("recall_target must lie in [0, 1]")


def sequential_sum(values) -> float:
    """The floats added one by one, left to right. The builtin sum() of floats
    compensates its rounding from Python 3.12 on, so its bits depend on the version."""
    total = 0.0
    for value in values:
        total += value
    return total


def score_examples(spec: ModelSpec, w: np.ndarray, X: np.ndarray, rows=None) -> np.ndarray:
    """Positive-class probability of every row of X, or of X[rows], order preserved."""
    return model.batch_probs(spec, w, X, rows)[:, POSITIVE_LABEL]


def operating_points(
    scores: np.ndarray, labels: np.ndarray, durations: np.ndarray, sizes, targets: EvalTargets
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, recall, FAH) of every segment, segment s owning the next sizes[s]
    rows: the threshold maximizing recall subject to FAH <= budget among the
    segment's scores and TAU_ABOVE_ALL, ties toward the larger, exactly.
    Recall and FAH fall as the threshold rises. So with k the most false
    alarms that k / neg_hours <= budget allows, the thresholds within budget
    lie above v, the (k+1)-th largest negative score (-inf if k covers them
    all); the recall is the share of positives above v, and tau the smallest
    of their scores (TAU_ABOVE_ALL if none). Only v needs a sort.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == POSITIVE_LABEL
    owner = np.repeat(np.arange(len(sizes)), sizes)
    pos_owner, neg_owner = owner[positive], owner[~positive]
    pos_scores, neg_scores = scores[positive], scores[~positive]
    n_pos, n_neg = (np.bincount(segment, minlength=len(sizes)) for segment in (pos_owner, neg_owner))
    if not (n_pos.all() and n_neg.all()):
        raise ValueError("operating point needs at least one positive and one negative example")
    neg_start = np.cumsum(n_neg) - n_neg
    # summed left to right per segment, as a reference loop over the examples would
    neg_durations = np.asarray(durations, dtype=np.float64)[~positive].tolist()
    spans = zip(neg_start.tolist(), n_neg.tolist())
    neg_hours = np.array([sequential_sum(neg_durations[s : s + n]) for s, n in spans]) / 3600.0
    if not (neg_hours > 0).all():
        raise ValueError("total negative duration must be positive")
    # a segment's j-th false alarm (j from 1) is within budget iff j / neg_hours is
    rank = np.arange(1, len(neg_owner) + 1) - neg_start[neg_owner]
    k = np.bincount(neg_owner[rank / neg_hours[neg_owner] <= targets.fah_budget], minlength=len(sizes))
    # complex numbers sort by real part, then imaginary: by segment, then score
    keys = np.empty(len(neg_owner), dtype=np.complex128)
    keys.real, keys.imag = neg_owner, neg_scores
    neg_sorted = np.sort(keys).imag
    # (where k covers every negative, the index is a neighbour's and unread)
    v = np.where(k < n_neg, neg_sorted[neg_start + n_neg - 1 - k], -np.inf)
    # positives come segment by segment, every segment holding one
    above = pos_scores > v[pos_owner]
    tau = np.minimum.reduceat(np.where(above, pos_scores, TAU_ABOVE_ALL), np.cumsum(n_pos) - n_pos)
    hits = np.bincount(pos_owner[above], minlength=len(sizes))
    false_alarms = np.bincount(neg_owner[neg_scores >= tau[neg_owner]], minlength=len(sizes))
    return tau, hits / n_pos, false_alarms / neg_hours


def eval_segments(federation: Federation, user_ids, pooled: bool) -> tuple[np.ndarray, np.ndarray, list]:
    """(rows to score, in ascending user id; sizes of the segments whose
    recalls are found; users skipped). A segment is one user (federated) or
    every given user's rows (pooled). It is usable, as operating_points
    needs, when it holds a positive and its negative durations, summed and
    divided by 3600, are positive; federated evaluation skips the users that
    are not. EvaluationError when no segment is usable.

    The order of that sum cannot change the outcome: nonnegative floats sum
    to hours that round to 0 only when every term is subnormal, and sums of
    subnormals are exact.
    """
    user_ids = sorted(user_ids)
    rows, sizes = federation.rows(user_ids)
    if pooled:
        sizes = np.cumsum(sizes)[-1:]  # one segment, none without users
    starts = np.cumsum(sizes) - sizes
    negative = federation.y[rows] != POSITIVE_LABEL
    has_pos = np.logical_or.reduceat(~negative, starts)
    neg_hours = np.add.reduceat(np.where(negative, federation.duration[rows], 0.0), starts) / 3600.0
    usable = has_pos & (neg_hours > 0)
    if not usable.any():
        unit = "pool" if pooled else "user"
        raise EvaluationError(f"no {unit} with a positive and a negative time above 0 hours")
    if usable.all():
        return rows, sizes, []
    skipped = [uid for uid, ok in zip(user_ids, usable.tolist()) if not ok]
    return rows[np.repeat(usable, sizes)], sizes[usable], skipped


def _segment_recalls(spec, w, federation, user_ids, targets, pooled) -> tuple[np.ndarray, np.ndarray]:
    """Sizes and recalls of the eval_segments segments, every segment's operating
    point in one search. The rows are scored in one pass, whatever the segments."""
    rows, sizes, skipped = eval_segments(federation, user_ids, pooled)
    if skipped:
        logger.info("federated_eval skipped %d user(s) without both classes: %s", len(skipped), skipped)
    scores = score_examples(spec, w, federation.X, rows)
    return sizes, operating_points(scores, federation.y[rows], federation.duration[rows], sizes, targets)[1]


def federated_eval(
    spec: ModelSpec, w: np.ndarray, federation: Federation, eval_user_ids, targets: EvalTargets
) -> float:
    """Example-count-weighted mean of per-user recalls at per-user budgets.
    Users that are not usable (eval_segments) are skipped and excluded from
    the weight normalizer."""
    sizes, recalls = _segment_recalls(spec, w, federation, eval_user_ids, targets, pooled=False)
    weighted = sequential_sum(size * recall for size, recall in zip(sizes.tolist(), recalls.tolist()))
    return weighted / sum(sizes.tolist())


def pooled_eval(
    spec: ModelSpec, w: np.ndarray, federation: Federation, eval_user_ids, targets: EvalTargets
) -> float:
    """Recall at a single operating point over all eval users' pooled
    examples: the recall of the one segment."""
    return _segment_recalls(spec, w, federation, eval_user_ids, targets, pooled=True)[1].item()
