from __future__ import annotations

import json

import numpy as np
import pytest

from fedsim import (
    ConfigError,
    Federation,
    FederationFormatError,
    FederationSpec,
    POSITIVE_LABEL,
    load_federation,
    partition_stats,
    save_federation,
    split_users,
    synthesize_federation,
)

from conftest import LabeledExample, make_federation


def example(value: float = 0.0, label: int = 0, duration: float = 2.0, dim: int = 2) -> LabeledExample:
    return LabeledExample(features=np.full(dim, value), label=label, duration_s=duration)


def tiny_federation() -> Federation:
    return make_federation({1: [example(0.1, 0), example(0.2, 1)], 2: [example(0.3, 1)]})


class TestSynthesize:
    def test_matches_table_statistics(self):
        # crowdsourced-style target: heavy per-user imbalance around mean 39 / std 32
        # with an 18% positive rate; windows absorb sampling noise at K=1374
        spec = FederationSpec(
            user_count=1374, size_mean=39.0, size_std=32.0, positive_rate=0.18, feature_dim=4
        )
        stats = partition_stats(synthesize_federation(spec, seed=2024))
        assert 35.0 <= stats["size_mean"] <= 43.0
        assert 27.0 <= stats["size_std"] <= 37.0
        assert 0.16 <= stats["positive_rate"] <= 0.20
        assert stats["user_count"] == 1374

    def test_degenerate_spread_single_user(self):
        spec = FederationSpec(user_count=1, size_mean=39.0, size_std=0.0)
        fed = synthesize_federation(spec, seed=3)
        assert fed.user_count == 1
        assert fed.partition(0).size == 39

    def test_deterministic_and_seed_sensitive(self):
        spec = FederationSpec(user_count=12, size_mean=5.0, size_std=3.0, feature_dim=3)
        a = synthesize_federation(spec, seed=1)
        b = synthesize_federation(spec, seed=1)
        c = synthesize_federation(spec, seed=2)
        assert a == b
        assert a != c

    def test_sizes_clamped_and_total_consistent(self):
        spec = FederationSpec(user_count=60, size_mean=2.0, size_std=6.0, feature_dim=2)
        fed = synthesize_federation(spec, seed=9)
        sizes = [fed.partition(u).size for u in fed.user_ids]
        assert min(sizes) >= 1
        assert sum(sizes) == fed.total_examples

    def test_durations(self):
        spec = FederationSpec(
            user_count=8, size_mean=20.0, size_std=5.0, feature_dim=2, negative_duration_s=7.5
        )
        fed = synthesize_federation(spec, seed=4)
        for label, duration in zip(fed.y, fed.duration):
            if label == POSITIVE_LABEL:
                assert 1.0 <= duration <= 3.0
            else:
                assert duration == 7.5

    def test_user_offsets_shift_feature_means(self):
        # users share labels but sit at different spots in feature space
        spec = FederationSpec(
            user_count=6, size_mean=200.0, size_std=0.0, feature_dim=4, user_shift_scale=5.0
        )
        fed = synthesize_federation(spec, seed=11)
        means = [np.mean(fed.partition(u).X, axis=0) for u in fed.user_ids]
        spread = np.std(np.stack(means), axis=0).max()
        assert spread > 1.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            FederationSpec(user_count=0)
        with pytest.raises(ConfigError):
            FederationSpec(user_count=5, positive_rate=0.0)
        with pytest.raises(ConfigError):
            FederationSpec(user_count=5, size_mean=-1.0)


class TestSplitUsers:
    @staticmethod
    def _flat_federation(k: int) -> Federation:
        spec = FederationSpec(user_count=k, size_mean=1.0, size_std=0.0, feature_dim=2)
        return synthesize_federation(spec, seed=0)

    def test_table_proportions(self):
        fed = self._flat_federation(1774)
        train, dev, test = split_users(fed, 1374 / 1774, 200 / 1774, seed=5)
        assert (len(train), len(dev), len(test)) == (1374, 200, 200)

    def test_all_train(self):
        fed = self._flat_federation(10)
        train, dev, test = split_users(fed, 1.0, 0.0, seed=1)
        assert len(train) == 10 and not dev and not test

    @pytest.mark.parametrize("fracs", [(0.5, 0.25), (0.9, 0.1), (0.33, 0.33)])
    def test_partition_property(self, fracs):
        fed = self._flat_federation(57)
        train, dev, test = split_users(fed, *fracs, seed=7)
        assert set(train) | set(dev) | set(test) == set(fed.user_ids)
        assert not set(train) & set(dev)
        assert not set(train) & set(test)
        assert not set(dev) & set(test)

    def test_deterministic(self):
        fed = self._flat_federation(30)
        assert split_users(fed, 0.6, 0.2, seed=3) == split_users(fed, 0.6, 0.2, seed=3)
        assert split_users(fed, 0.6, 0.2, seed=3) != split_users(fed, 0.6, 0.2, seed=4)

    def test_invalid_fractions_rejected(self):
        fed = self._flat_federation(4)
        with pytest.raises(ConfigError):
            split_users(fed, 0.8, 0.3, seed=0)
        with pytest.raises(ConfigError):
            split_users(fed, -0.1, 0.5, seed=0)


class TestFederationFile:
    def test_round_trip(self, tmp_path):
        spec = FederationSpec(user_count=9, size_mean=6.0, size_std=4.0, feature_dim=3)
        fed = synthesize_federation(spec, seed=21)
        path = tmp_path / "federation.jsonl"
        save_federation(fed, path)
        assert load_federation(path) == fed

    def test_duplicate_user_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        lines = [
            json.dumps({"feature_dim": 1, "class_count": 2}),
            json.dumps({"user_id": 1, "features": [0.5], "label": 0, "duration_s": 1.0}),
            json.dumps({"user_id": 2, "features": [0.5], "label": 1, "duration_s": 1.0}),
            json.dumps({"user_id": 1, "features": [0.1], "label": 0, "duration_s": 1.0}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FederationFormatError, match="line 4.*duplicate user id"):
            load_federation(path)

    def test_feature_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            json.dumps({"feature_dim": 2, "class_count": 2}),
            json.dumps({"user_id": 1, "features": [0.5, 0.5], "label": 0, "duration_s": 1.0}),
            json.dumps({"user_id": 1, "features": [0.5], "label": 1, "duration_s": 1.0}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FederationFormatError, match="line 3") as exc_info:
            load_federation(path)
        assert exc_info.value.line == 3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_federation(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text(json.dumps({"feature_dim": 2, "class_count": 2}) + "\n")
        with pytest.raises(ConfigError, match="no examples"):
            load_federation(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        # Python's json reads NaN and Infinity, which are not JSON numbers
        for bad_line in (
            "{not json",
            json.dumps({"user_id": 1, "features": [float("nan")], "label": 1, "duration_s": 1.0}),
            json.dumps({"user_id": 1, "features": [0.5], "label": 1, "duration_s": float("inf")}),
        ):
            path.write_text(
                json.dumps({"feature_dim": 1, "class_count": 2})
                + "\n"
                + json.dumps({"user_id": 1, "features": [0.5], "label": 0, "duration_s": 1.0})
                + "\n"
                + bad_line
                + "\n"
            )
            with pytest.raises(FederationFormatError, match="line 3"):
                load_federation(path)

    def test_unexpected_record_keys_rejected(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        record = {"user_id": 1, "features": [0.5], "label": 0, "duration_s": 1.0, "notes": "x"}
        path.write_text(
            json.dumps({"feature_dim": 1, "class_count": 2}) + "\n" + json.dumps(record) + "\n"
        )
        with pytest.raises(FederationFormatError, match="line 2"):
            load_federation(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "badheader.jsonl"
        record = json.dumps({"user_id": 1, "features": [0.5], "label": 0, "duration_s": 1.0})
        for header in ({"feature_dim": 2}, {"feature_dim": True, "class_count": 2}):
            path.write_text(json.dumps(header) + "\n" + record + "\n")
            with pytest.raises(FederationFormatError, match="line 1"):
                load_federation(path)


class TestPartitionStats:
    def test_hand_arithmetic(self):
        fed = make_federation({0: [example(0.0, 0)] * 10, 1: [example(0.0, 0)] * 30})
        stats = partition_stats(fed)
        assert stats["size_mean"] == 20.0
        assert stats["size_std"] == 10.0
        assert stats["total_examples"] == 40

    def test_all_positive(self):
        fed = make_federation({0: [example(0.0, 1), example(1.0, 1)]})
        assert partition_stats(fed)["positive_rate"] == 1.0


class TestInvariants:
    def test_duplicate_user_ids_rejected_at_construction(self):
        fed = make_federation({1: [example()], 2: [example()]})
        with pytest.raises(ValueError, match="duplicate"):
            Federation(fed.X, fed.y, fed.duration, [1, 1], fed.offsets, class_count=2)

    def test_empty_partition_rejected(self):
        fed = make_federation({1: [example()], 2: [example()]})
        with pytest.raises(ValueError, match="user 3: partition must hold at least one example"):
            Federation(fed.X, fed.y, fed.duration, [1, 2, 3], [0, 1, 2, 2], class_count=2)

    def test_feature_dim_mismatch_rejected(self):
        # the feature matrix needs one row of feature_dim values per label
        fed = make_federation({1: [example(dim=3), example(dim=3)]})
        for X in (fed.X[:1], fed.X.ravel()):
            with pytest.raises(ValueError, match="features have shape"):
                Federation(X, fed.y, fed.duration, fed.user_ids, fed.offsets, class_count=2)

    def test_label_out_of_range_rejected(self):
        for label in (5, -1):
            with pytest.raises(ValueError, match=f"user 1: label {label} out of range"):
                make_federation({1: [example(label=label)]})

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="user 2: .* duration -1.0 negative"):
            make_federation({1: [example()], 2: [example(), example(duration=-1.0)]})

    def test_partition_lookup(self):
        fed = tiny_federation()
        assert fed.partition(2).user_id == 2
        with pytest.raises(ValueError, match="unknown user"):
            fed.partition(99)
