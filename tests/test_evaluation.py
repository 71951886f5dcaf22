from __future__ import annotations

import dataclasses
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.evaluation
from fedsim import (
    ConfigError,
    EvalTargets,
    EvaluationError,
    FederationSpec,
    ModelSpec,
    OperatingPoint,
    POSITIVE_LABEL,
    early_stop_check,
    federated_eval,
    loss_from_arrays,
    operating_point,
    pooled_eval,
    score_examples,
    synthesize_federation,
)
from fedsim.evaluation import eval_segments, operating_points, row_chunks
from fedsim.server import cohort_loss, pool_row_losses

from conftest import LabeledExample, brute_force_operating_point, forward, make_federation, scored, scored_set


class TestScoreExamples:
    def test_zero_weights_all_half(self):
        spec = ModelSpec((3, 2))
        X = np.stack([np.ones(3) * i for i in range(5)])
        scores = score_examples(spec, np.zeros(spec.param_count), X)
        assert scores.tolist() == [0.5] * 5

    def test_scores_in_unit_interval(self, rng):
        spec = ModelSpec((4, 5, 2))
        w = rng.standard_normal(spec.param_count)
        X = np.stack([rng.standard_normal(4) for _ in range(20)])
        scores = score_examples(spec, w, X)
        assert np.all((0.0 <= scores) & (scores <= 1.0))

    def test_perturbing_one_example_moves_only_its_score(self):
        # positive logit tracks the first feature for this weight layout
        spec = ModelSpec((2, 2))
        w = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        X = np.array([[x, 0.0] for x in (-1.0, 0.0, 1.0)])
        before = score_examples(spec, w, X)
        bumped = X.copy()
        bumped[1] = [2.0, 0.0]
        after = score_examples(spec, w, bumped)
        assert after[1] > before[1]
        assert after[0] == before[0]
        assert after[2] == before[2]


class TestOperatingPoint:
    def test_perfectly_separated(self):
        point = operating_point(*scored([(0.9, 1, 2.0)] * 4 + [(0.1, 0, 2.0)] * 6), EvalTargets(fah_budget=5.0))
        assert point.recall == 1.0
        assert point.fah == 0.0
        assert 0.1 < point.tau <= 0.9

    def test_hour_of_negatives_within_budget(self):
        # 3 negatives of 1200 s: even the lowest threshold stays within 5 FAH,
        # so the recall-optimal candidate wins
        rng = np.random.default_rng(5)
        examples = [(float(rng.random()), 1, 2.0) for _ in range(10)]
        examples += [(float(rng.random()), 0, 1200.0) for _ in range(3)]
        targets = EvalTargets(fah_budget=5.0)
        point = operating_point(*scored(examples), targets)
        assert point.recall == 1.0
        assert (point.tau, point.recall, point.fah) == brute_force_operating_point(*scored(examples), targets)

    @pytest.mark.parametrize("budget,expected_recall", [(5000.0, 1.0), (1.0, 0.0)])
    def test_all_scores_identical(self, budget, expected_recall):
        # 3 negatives over 3 s = 3600 FAH when everything triggers
        examples = scored([(0.5, 1, 1.0)] * 3 + [(0.5, 0, 1.0)] * 3)
        targets = EvalTargets(fah_budget=budget)
        point = operating_point(*examples, targets)
        assert point.recall == expected_recall
        assert (point.tau, point.recall, point.fah) == brute_force_operating_point(*examples, targets)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            examples = scored_set(rng, int(rng.integers(2, 120)))
            targets = EvalTargets(fah_budget=float(rng.uniform(1.0, 2000.0)))
            point = operating_point(*examples, targets)
            expected = brute_force_operating_point(*examples, targets)
            assert (point.tau, point.recall, point.fah) == expected

    def test_curve_monotone_in_threshold(self):
        rng = np.random.default_rng(31)
        scores, labels, durations = scored_set(rng, 60)
        pos = sorted(scores[labels == POSITIVE_LABEL])
        neg_scores = sorted(scores[labels != POSITIVE_LABEL])
        hours = sum(durations[labels != POSITIVE_LABEL].tolist()) / 3600.0
        candidates = sorted(set(scores.tolist())) + [math.nextafter(1.0, 2.0)]
        last_recall, last_fah = 2.0, float("inf")
        for tau in candidates:
            recall = (len(pos) - np.searchsorted(pos, tau, side="left")) / len(pos)
            fah = (len(neg_scores) - np.searchsorted(neg_scores, tau, side="left")) / hours
            assert recall <= last_recall
            assert fah <= last_fah
            last_recall, last_fah = recall, fah

    def test_duration_scaling_inverts_fah(self):
        rng = np.random.default_rng(41)
        scores, labels, durations = scored_set(rng, 50)
        targets = EvalTargets(fah_budget=64.0)
        point = operating_point(scores, labels, durations, targets)
        half_budget = operating_point(scores, labels, 2.0 * durations, EvalTargets(fah_budget=32.0))
        assert half_budget.tau == point.tau
        assert half_budget.recall == point.recall
        assert half_budget.fah == point.fah / 2.0

    def test_missing_class_rejected(self):
        message = "^operating point needs at least one positive and one negative example$"
        with pytest.raises(ValueError, match=message):
            operating_point(*scored([(0.5, 1, 1.0)]), EvalTargets())
        with pytest.raises(ValueError, match=message):
            operating_point(*scored([(0.5, 0, 1.0)]), EvalTargets())

    def test_zero_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="^total negative duration must be positive$"):
            operating_point(*scored([(0.9, 1, 1.0), (0.1, 0, 0.0)]), EvalTargets())


def two_user_partitions():
    """User 1 is perfectly separable (recall 1); user 2 has one stray positive
    below every threshold that stays within budget (recall 0.5)."""
    high = np.array([1.0])
    low = np.array([-1.0])

    def ex(x, label):
        # negatives get tiny durations so any threshold admitting them blows the budget
        return LabeledExample(x, label, duration_s=2.0 if label == 1 else 0.36)

    return {
        1: [ex(high, 1)] * 3 + [ex(low, 0)] * 7,
        2: [ex(high, 1), ex(low, 1)] + [ex(low, 0)] * 28,
    }


def two_user_federation():
    return make_federation(two_user_partitions())


SPEC_1D = ModelSpec((1, 2))
W_1D = np.array([-1.0, 1.0, 0.0, 0.0])  # positive logit = x, negative logit = -x


class TestFederatedEval:
    def test_single_user_equals_operating_point(self):
        fed = two_user_federation()
        part = fed.partition(1)
        scores = score_examples(SPEC_1D, W_1D, part.X)
        expected = operating_point(scores, part.y, part.duration, EvalTargets()).recall
        assert federated_eval(SPEC_1D, W_1D, fed, [1], EvalTargets()) == expected == 1.0

    def test_hand_weighted_combination(self):
        # sizes 10 and 30 with recalls 1.0 and 0.5 combine to 0.625
        fed = two_user_federation()
        metric = federated_eval(SPEC_1D, W_1D, fed, [1, 2], EvalTargets())
        assert metric == pytest.approx(0.625, abs=1e-15)

    def test_order_invariant(self):
        fed = two_user_federation()
        a = federated_eval(SPEC_1D, W_1D, fed, [1, 2], EvalTargets())
        b = federated_eval(SPEC_1D, W_1D, fed, [2, 1], EvalTargets())
        assert a == b

    def test_skips_users_without_both_classes(self, caplog):
        only_neg = [LabeledExample(np.array([0.0]), 0, 1.0) for _ in range(4)]
        fed = make_federation({**two_user_partitions(), 3: only_neg})
        with caplog.at_level(logging.INFO, logger="fedsim.evaluation"):
            metric = federated_eval(SPEC_1D, W_1D, fed, [1, 2, 3], EvalTargets())
        # user 3 is excluded from the normalizer: same result as [1, 2]
        assert metric == pytest.approx(0.625, abs=1e-15)
        assert any("skipped" in rec.message for rec in caplog.records)

    def test_skipped_users_are_not_scored(self, monkeypatch, caplog):
        scored_rows = []

        def recording_score_examples(spec, w, X):
            scored_rows.append(X.copy())
            return score_examples(spec, w, X)

        monkeypatch.setattr(fedsim.evaluation, "score_examples", recording_score_examples)
        only_neg = [LabeledExample(np.array([0.0]), 0, 1.0) for _ in range(4)]
        only_pos = [LabeledExample(np.array([0.0]), 1, 1.0) for _ in range(5)]
        no_neg_time = [LabeledExample(np.array([0.0]), label, 0.0) for label in (0, 1, 1, 0, 1, 0)]
        fed = make_federation({**two_user_partitions(), 3: only_neg, 4: only_pos, 5: no_neg_time})
        with caplog.at_level(logging.INFO, logger="fedsim.evaluation"):
            metric = federated_eval(SPEC_1D, W_1D, fed, [5, 4, 3, 2, 1], EvalTargets())
        # exactly the usable users' 40 rows, in ascending user id
        usable_rows = np.concatenate([fed.partition(uid).X for uid in (1, 2)])
        assert np.array_equal(np.concatenate(scored_rows), usable_rows)
        assert metric == pytest.approx(0.625, abs=1e-15)
        assert "skipped 3 user(s) without both classes: [3, 4, 5]" in caplog.text

    def test_skips_users_whose_negative_hours_underflow(self, caplog):
        # each negative lasts a positive 1e-321 s, but 2e-321 / 3600 rounds to 0 hours
        tiny = [LabeledExample(np.array([1.0]), 1, 2.0)] + [LabeledExample(np.array([-1.0]), 0, 1e-321)] * 2
        fed = make_federation({**two_user_partitions(), 3: tiny})
        with caplog.at_level(logging.INFO, logger="fedsim.evaluation"):
            metric = federated_eval(SPEC_1D, W_1D, fed, [1, 2, 3], EvalTargets())
        assert metric == federated_eval(SPEC_1D, W_1D, fed, [1, 2], EvalTargets())
        assert "skipped 1 user(s) without both classes: [3]" in caplog.text

    def test_all_users_skipped_raises(self):
        fed = make_federation({1: [LabeledExample(np.array([0.0]), 0, 1.0) for _ in range(4)]})
        with pytest.raises(EvaluationError):
            federated_eval(SPEC_1D, W_1D, fed, [1], EvalTargets())

    def test_unknown_user_rejected(self):
        fed = two_user_federation()
        with pytest.raises(ValueError):
            federated_eval(SPEC_1D, W_1D, fed, [1, 99], EvalTargets())


class TestPooledEval:
    def test_matches_manual_pooling(self):
        fed = two_user_federation()
        parts = [fed.partition(uid) for uid in (1, 2)]
        X, y, duration = (np.concatenate([getattr(p, c) for p in parts]) for c in ("X", "y", "duration"))
        expected = brute_force_operating_point(score_examples(SPEC_1D, W_1D, X), y, duration, EvalTargets())[1]
        assert pooled_eval(SPEC_1D, W_1D, fed, [1, 2], EvalTargets()) == expected

    def test_unusable_pool_raises(self):
        fed = make_federation({1: [LabeledExample(np.array([0.0]), 0, 1.0) for _ in range(2)]})
        with pytest.raises(EvaluationError):
            pooled_eval(SPEC_1D, W_1D, fed, [1], EvalTargets())

    def test_returns_the_recall_itself(self):
        # 1 of 5 positives above the one negative, which alone blows the budget;
        # a count-weighted mean over the 6 rows, (6 * 0.2) / 6, would not be 0.2
        fed = make_federation({1: [LabeledExample(np.array([1.0]), 1, 2.0)]
                                  + [LabeledExample(np.array([-1.0]), 1, 2.0)] * 4
                                  + [LabeledExample(np.array([-1.0]), 0, 0.36)]})
        assert pooled_eval(SPEC_1D, W_1D, fed, [1], EvalTargets()) == 1 / 5 != (6 * (1 / 5)) / 6

    def test_pool_whose_negative_hours_underflow_raises(self):
        tiny = [LabeledExample(np.array([1.0]), 1, 2.0)] + [LabeledExample(np.array([-1.0]), 0, 1e-321)] * 2
        fed = make_federation({1: tiny[:2], 2: tiny[2:]})
        with pytest.raises(EvaluationError, match="no pool with a positive and a negative time above 0 hours"):
            pooled_eval(SPEC_1D, W_1D, fed, [1, 2], EvalTargets())


class TestSegments:
    """The evaluations against a reference that scores row by row with
    `forward` and searches each user's (or the pool's) threshold by brute
    force: every score must land in its own user's segment."""

    @staticmethod
    def random_users(rng):
        # user ids out of order in the rows, some users without a positive,
        # one negative of zero duration per user
        users = {}
        for uid in rng.permutation(40).tolist():
            n = int(rng.integers(1, 16))
            users[uid] = [
                LabeledExample(rng.standard_normal(4), int(rng.random() < 0.3), float(rng.uniform(0.5, 30.0)) if i else 0.0)
                for i in range(n)
            ]
        return users

    @staticmethod
    def reference(spec, w, examples, targets):
        scores = np.array([forward(spec, w, ex.features)[POSITIVE_LABEL] for ex in examples])
        labels = np.array([ex.label for ex in examples])
        durations = np.array([ex.duration_s for ex in examples])
        negative = labels != POSITIVE_LABEL
        if labels.all() or negative.all() or not np.any(durations[negative] > 0):
            return None
        return brute_force_operating_point(scores, labels, durations, targets)[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evals_match_per_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        spec = ModelSpec((4, 6, 2), activation="tanh")
        users = self.random_users(rng)
        federation = make_federation(users)
        w = rng.standard_normal(spec.param_count)
        eval_ids = rng.choice(40, size=25, replace=False).tolist()
        targets = EvalTargets(fah_budget=float(rng.uniform(50.0, 500.0)))

        acc, total = 0.0, 0
        for uid in sorted(eval_ids):
            recall = self.reference(spec, w, users[uid], targets)
            if recall is not None:
                acc += len(users[uid]) * recall
                total += len(users[uid])
        assert total > 0
        assert federated_eval(spec, w, federation, eval_ids, targets) == acc / total

        pooled = [ex for uid in sorted(eval_ids) for ex in users[uid]]
        assert pooled_eval(spec, w, federation, eval_ids, targets) == self.reference(spec, w, pooled, targets)


def usable(labels, durations) -> bool:
    """Whether the operating-point search can take this user's rows."""
    negative = labels != POSITIVE_LABEL
    return bool(negative.any() and not negative.all() and (durations[negative] > 0).any())


def per_user_federated_eval(spec, w, federation, eval_user_ids, targets):
    """federated_eval as one score_examples and one brute-force search per user."""
    acc, total = 0.0, 0
    for uid in sorted(eval_user_ids):
        part = federation.partition(uid)
        if usable(part.y, part.duration):
            _, recall, _ = brute_force_operating_point(score_examples(spec, w, part.X), part.y, part.duration, targets)
            acc += part.size * recall
            total += part.size
    return acc / total


# few distinct values, so scores tie within and across classes, and some
# negatives last no time at all
SCORES = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
DURATIONS = (0.0, 0.5, 1.0, 3.0, 7.2, 1200.0)
user_rows = st.lists(
    st.tuples(st.sampled_from(SCORES), st.integers(0, 2), st.sampled_from(DURATIONS)), min_size=1, max_size=12
)


class TestSegmentedRecall:
    @given(
        users=st.lists(user_rows, min_size=1, max_size=8),
        budget=st.floats(0.01, 5000.0),
        on_boundary=st.booleans(),
        pick=st.integers(0, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_operating_point_for_every_user(self, users, budget, on_boundary, pick):
        users = [scored(rows) for rows in users]  # label 2 is a second negative class
        kept = [u for u in users if usable(u[1], u[2])]
        if not kept:
            return
        if on_boundary:
            # a budget that k / neg_hours meets exactly for one user and count
            scores, labels, durations = kept[pick % len(kept)]
            negative = labels != POSITIVE_LABEL
            neg_hours = sum(durations[negative].tolist()) / 3600.0
            budget = (1 + pick % int(negative.sum())) / neg_hours
        targets = EvalTargets(fah_budget=budget)
        expected = [brute_force_operating_point(*u, targets) for u in kept]
        tau, recall, fah = operating_points(
            *(np.concatenate(column) for column in zip(*kept)), [len(u[0]) for u in kept], targets
        )
        assert list(zip(tau.tolist(), recall.tolist(), fah.tolist())) == expected

    @given(
        users=st.lists(
            st.lists(st.tuples(st.sampled_from((-2.0, -0.5, 0.0, 0.5, 2.0)), st.integers(0, 1),
                               st.sampled_from(DURATIONS)), min_size=1, max_size=12),
            min_size=1, max_size=10,
        ),
        budget=st.floats(1.0, 5000.0),
        eval_rows=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_federated_eval_equals_per_user_loop(self, users, budget, eval_rows):
        # skipped users (no positive, or no negative time) included
        federation = make_federation(
            {uid: [LabeledExample(np.array([x]), label, d) for x, label, d in rows] for uid, rows in enumerate(users)}
        )
        parts = [federation.partition(uid) for uid in range(len(users))]
        targets = EvalTargets(fah_budget=budget)
        ids = list(range(len(users)))[::-1]
        with mock.patch.object(fedsim.evaluation, "EVAL_ROWS", eval_rows):
            if any(usable(p.y, p.duration) for p in parts):
                got = federated_eval(SPEC_1D, W_1D, federation, ids, targets)
                assert got == per_user_federated_eval(SPEC_1D, W_1D, federation, ids, targets)
            else:
                with pytest.raises(EvaluationError):
                    federated_eval(SPEC_1D, W_1D, federation, ids, targets)
            # the pooled leg: the pool's recall as the brute-force search finds it on the pooled rows
            X, y, duration = (np.concatenate([getattr(p, c) for p in parts]) for c in ("X", "y", "duration"))
            if usable(y, duration):
                expected = brute_force_operating_point(score_examples(SPEC_1D, W_1D, X), y, duration, targets)[1]
                assert pooled_eval(SPEC_1D, W_1D, federation, ids, targets) == expected
            else:
                with pytest.raises(EvaluationError):
                    pooled_eval(SPEC_1D, W_1D, federation, ids, targets)

    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=30), eval_rows=st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_row_chunks_hold_whole_users_in_order(self, sizes, eval_rows):
        rows = np.arange(sum(sizes)) * 3  # any row indices
        with mock.patch.object(fedsim.evaluation, "EVAL_ROWS", eval_rows):
            runs = row_chunks(rows, sizes)
        assert np.array_equal(np.concatenate(runs), rows)
        bounds = np.cumsum([0] + sizes).tolist()  # where each user's rows start, then the end
        start = 0
        for run in runs:
            assert start + len(run) in bounds  # whole users
            users = sizes[bounds.index(start) : bounds.index(start + len(run))]
            assert len(run) < eval_rows + users[-1]
            assert len(users) == 1 or 1 not in users  # a one-row user is alone
            start += len(run)

    @given(
        users=st.lists(
            # negatives near 0 hours: 1e-321 s is positive, but 2e-321 / 3600 rounds to 0
            st.lists(st.tuples(st.integers(0, 2), st.sampled_from((0.0, 5e-324, 1e-321, 1e-318, 1.0))),
                     min_size=1, max_size=12),
            min_size=1, max_size=8,
        ),
        pooled=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_eval_segments_keeps_what_the_search_takes(self, users, pooled):
        federation = make_federation(
            {uid: [LabeledExample(np.array([0.0]), label, d) for label, d in rows] for uid, rows in enumerate(users)},
            class_count=3,
        )
        ids = list(range(len(users)))
        segments = [federation.rows(ids)[0]] if pooled else [federation.rows([uid])[0] for uid in ids]

        def searchable(rows):
            y, duration = federation.y[rows], federation.duration[rows]
            try:
                with np.errstate(over="ignore"):  # j / a subnormal number of hours is inf
                    operating_points(np.zeros(len(rows)), y, duration, [len(rows)], EvalTargets())
            except ValueError:
                return False
            return True

        kept = [rows for rows in segments if searchable(rows)]
        if not kept:
            with pytest.raises(EvaluationError):
                eval_segments(federation, ids[::-1], pooled)
            return
        rows, sizes, skipped = eval_segments(federation, ids[::-1], pooled)
        assert np.array_equal(rows, np.concatenate(kept))
        assert sizes.tolist() == [len(rows) for rows in kept]
        assert skipped == ([] if pooled else [uid for uid in ids if not searchable(segments[uid])])

    def test_user_without_negative_time_rejected(self):
        scores, labels, durations = scored([(0.9, 1, 1.0), (0.1, 0, 0.0)])
        with pytest.raises(ValueError, match="^total negative duration must be positive$"):
            operating_points(scores, labels, durations, [2], EvalTargets())


class TestChunkedPasses:
    """federated_eval and the cohort loss do not depend on EVAL_ROWS; on
    [10, 2] they equal the one-pass-per-user results bit for bit, and the
    mean of a pool's chunked row losses equals its one-pass loss."""

    @staticmethod
    def setting(layer_dims, seed):
        federation = synthesize_federation(
            FederationSpec(user_count=150, size_mean=5.0, size_std=5.0, positive_rate=0.4), seed
        )
        assert (np.diff(federation.offsets) == 1).sum() >= 5  # one-row users are in the cohort
        spec = ModelSpec(layer_dims)
        w = np.random.default_rng(seed).standard_normal(spec.param_count)
        return federation, spec, w, federation.user_ids.tolist()

    @staticmethod
    def per_user_cohort_loss(spec, w, federation, user_ids):
        parts = [federation.partition(uid) for uid in sorted(user_ids)]
        n_r = sum(p.size for p in parts)
        return float(sum((p.size / n_r) * loss_from_arrays(spec, w, p.X, p.y) for p in parts))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_bit_identical_on_linear_model(self, monkeypatch, seed):
        federation, spec, w, users = self.setting((10, 2), seed)
        targets = EvalTargets(fah_budget=200.0)
        results = []
        for eval_rows in (1, 10**9):
            monkeypatch.setattr(fedsim.evaluation, "EVAL_ROWS", eval_rows)
            results.append((federated_eval(spec, w, federation, users, targets),
                            cohort_loss(spec, w, federation, users)))
        assert results[0] == results[1]
        assert results[0][0] == per_user_federated_eval(spec, w, federation, users, targets)
        assert results[0][1] == self.per_user_cohort_loss(spec, w, federation, users)

    def test_cohort_loss_close_on_hidden_layer_model(self, monkeypatch):
        federation, spec, w, users = self.setting((10, 16, 2), 5)
        losses = []
        for eval_rows in (1, 10**9):
            monkeypatch.setattr(fedsim.evaluation, "EVAL_ROWS", eval_rows)
            losses.append(cohort_loss(spec, w, federation, users))
        reference = self.per_user_cohort_loss(spec, w, federation, users)
        assert losses[0] == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert losses[1] == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eval_rows", [1, 64, 512])
    @pytest.mark.parametrize("layer_dims", [(10, 2), (10, 16, 2)])
    def test_pool_loss_is_the_gathered_pools_loss(self, monkeypatch, layer_dims, eval_rows):
        # the baseline's train loss: the mean of the chunked row losses of a pool
        federation, spec, w, users = self.setting(layer_dims, 6)
        rows, sizes = federation.rows(users)
        monkeypatch.setattr(fedsim.evaluation, "EVAL_ROWS", eval_rows)
        X, y = federation.X[rows], federation.y[rows]
        got = float(pool_row_losses(spec, w, X, y, sizes).mean())
        expected = loss_from_arrays(spec, w, X, y)
        if len(layer_dims) == 2:
            assert got == expected
        else:  # a hidden layer's matmul rounds by the run's row count
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestEarlyStop:
    def test_inclusive_boundary(self):
        assert early_stop_check(0.95, EvalTargets(recall_target=0.95))

    def test_below_boundary(self):
        assert not early_stop_check(0.9499, EvalTargets(recall_target=0.95))

    def test_zero_target_always_stops(self):
        assert early_stop_check(0.0, EvalTargets(recall_target=0.0))

    def test_targets_validation(self):
        with pytest.raises(ConfigError):
            EvalTargets(fah_budget=0.0)
        with pytest.raises(ConfigError):
            EvalTargets(recall_target=1.5)


def test_operating_point_holds_tau_recall_and_fah():
    point = OperatingPoint(tau=0.5, recall=0.8, fah=1.0)
    assert dataclasses.astuple(point) == (0.5, 0.8, 1.0)
