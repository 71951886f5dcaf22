from __future__ import annotations

import importlib.util
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.data
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
from fedsim.data import LOAD_BLOCK_LINES

FEDFILE = Path(__file__).resolve().parents[1] / "bench" / "fedfile.py"


def example(value: float = 0.0, label: int = 0, duration: float = 2.0, dim: int = 2) -> LabeledExample:
    return LabeledExample(features=np.full(dim, value), label=label, duration_s=duration)


def tiny_federation() -> Federation:
    return make_federation({1: [example(0.1, 0), example(0.2, 1)], 2: [example(0.3, 1)]})


def reference_synthesize(spec: FederationSpec, seed: int) -> Federation:
    """synthesize_federation as a per-user loop that also assembles each user's rows."""
    rng = np.random.default_rng(seed)
    sizes = fedsim.data._partition_sizes(spec, rng)
    means = np.zeros((spec.class_count, spec.feature_dim))
    for c in range(spec.class_count):
        means[c, c % spec.feature_dim] = fedsim.data.CLASS_SEPARATION
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    X = np.empty((offsets[-1], spec.feature_dim))
    y = np.empty(offsets[-1], dtype=np.intp)
    duration = np.empty(offsets[-1])
    negatives = [c for c in range(spec.class_count) if c != POSITIVE_LABEL]

    for user_id, n_k in enumerate(sizes.tolist()):
        rows = slice(offsets[user_id], offsets[user_id + 1])
        direction = rng.standard_normal(spec.feature_dim)
        norm = np.linalg.norm(direction)
        offset = spec.user_shift_scale * direction / norm if norm > 0 else np.zeros(spec.feature_dim)

        is_positive = rng.random(n_k) < spec.positive_rate
        labels = np.where(is_positive, POSITIVE_LABEL, 0)
        if spec.class_count > 2:
            labels = np.where(is_positive, POSITIVE_LABEL, rng.choice(negatives, size=n_k))
        y[rows] = labels
        X[rows] = means[labels] + offset + rng.standard_normal((n_k, spec.feature_dim))
        duration[rows] = np.where(
            is_positive, rng.uniform(1.0, 3.0, size=n_k), spec.negative_duration_s
        )
    return Federation(
        X=X,
        y=y,
        duration=duration,
        user_ids=np.arange(spec.user_count),
        offsets=offsets,
        class_count=spec.class_count,
    )


def column_bytes(federation: Federation) -> dict:
    return {name: (getattr(federation, name).dtype, getattr(federation, name).tobytes())
            for name in ("X", "y", "duration", "offsets", "user_ids")}


class TestSynthesize:
    @pytest.mark.parametrize(
        "user_count,class_count,size_std,user_shift_scale,feature_dim",
        list(itertools.product([1, 400], [2, 4], [0.0, 5.0], [0.0, 1.5], [1, 10])),
    )
    def test_equals_the_per_user_reference_bit_for_bit(
        self, user_count, class_count, size_std, user_shift_scale, feature_dim
    ):
        spec = FederationSpec(user_count=user_count, size_mean=6.0, size_std=size_std, class_count=class_count,
                              user_shift_scale=user_shift_scale, feature_dim=feature_dim)
        for seed in (0, 1, 2, 2024):
            got, want = synthesize_federation(spec, seed), reference_synthesize(spec, seed)
            assert got.class_count == want.class_count
            assert column_bytes(got) == column_bytes(want)

    def test_rows_span_several_blocks_bit_for_bit(self):
        spec = FederationSpec(user_count=300, size_mean=20.0, size_std=15.0, class_count=3, feature_dim=5)
        fed = synthesize_federation(spec, seed=5)
        assert fed.total_examples > 3 * fedsim.data.SYNTH_BLOCK_ROWS
        assert column_bytes(fed) == column_bytes(reference_synthesize(spec, seed=5))

    def test_peak_memory_at_paper_scale(self):
        # the draws land in the output arrays; what else synthesis holds is small beside X
        spec = FederationSpec(user_count=1774, feature_dim=40)
        tracemalloc.start()
        try:
            fed = synthesize_federation(spec, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (fed.X.nbytes + fed.y.nbytes + fed.duration.nbytes)
        assert column_bytes(fed) == column_bytes(reference_synthesize(spec, seed=0))

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
        assert fed.sizes([0])[0] == 39

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
        sizes = fed.sizes(fed.user_ids.tolist()).tolist()
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
        means = [np.mean(fed.X[fed.rows([u])[0]], axis=0) for u in fed.user_ids.tolist()]
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
        assert load_outcome(load_federation, path) == load_outcome(fedsim.data._load_lines, path)

    def test_block_save_equals_a_per_line_writer(self, tmp_path):
        # three blocks, the last one short
        fed = synthesize_federation(FederationSpec(user_count=60, size_mean=20.0, feature_dim=3), seed=4)
        assert 2 * LOAD_BLOCK_LINES < len(fed.y) < 3 * LOAD_BLOCK_LINES
        lines = [json.dumps({"feature_dim": 3, "class_count": 2})]
        for k, uid in enumerate(fed.user_ids.tolist()):
            for row in range(fed.offsets[k], fed.offsets[k + 1]):
                record = {"user_id": uid, "features": fed.X[row].tolist(), "label": int(fed.y[row]),
                          "duration_s": float(fed.duration[row])}
                lines.append(json.dumps(record))
        save_federation(fed, tmp_path / "federation.jsonl")
        assert (tmp_path / "federation.jsonl").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        # the write fails after some records: the file already there stays whole
        # and no partial file is left, so no truncated file loads as a smaller federation
        path = tmp_path / "federation.jsonl"
        old = synthesize_federation(FederationSpec(user_count=9, feature_dim=3), seed=1)
        save_federation(old, path)
        real, calls = json.dumps, []

        def failing_dumps(obj, **kwargs):
            calls.append(obj)
            if len(calls) > 20:
                raise OSError("injected: disk full")
            return real(obj, **kwargs)

        monkeypatch.setattr(fedsim.data.json, "dumps", failing_dumps)
        with pytest.raises(OSError, match="injected"):
            save_federation(synthesize_federation(FederationSpec(user_count=9, feature_dim=3), seed=2), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["federation.jsonl"]
        assert load_federation(path) == old

    @pytest.mark.parametrize("column, value", [("X", np.nan), ("X", np.inf), ("duration", np.inf)])
    def test_save_rejects_non_finite_values(self, tmp_path, column, value):
        # the loader would reject the NaN or infinity written, so nothing is written
        fed = tiny_federation()
        getattr(fed, column)[1] = value
        with pytest.raises(ValueError, match="finite"):
            save_federation(fed, tmp_path / "federation.jsonl")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["header", "first block", "after the first block"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, where):
        path = tmp_path / "federation.jsonl"
        spec = FederationSpec(user_count=300, size_mean=3.0, size_std=1.0)
        save_federation(synthesize_federation(spec, seed=1), path)
        lines = path.read_bytes().splitlines(keepends=True)
        at = {"header": 0, "first block": 3, "after the first block": len(lines) - 1}[where]
        assert at < LOAD_BLOCK_LINES or len(lines) > LOAD_BLOCK_LINES + 1
        lines[at] = b"\xff\xfe\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(FederationFormatError) as info:
            load_federation(path)
        assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte)"

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

    @pytest.mark.parametrize("user_id", [2**63, -(2**63) - 1])
    def test_user_id_outside_intp_names_line(self, tmp_path, user_id):
        record = {"user_id": 1, "features": [0.5], "label": 0, "duration_s": 1.0}
        lines = render({"feature_dim": 1, "class_count": 2}, [record, record | {"user_id": user_id}])
        path = write_lines(tmp_path / "ids.jsonl", lines)
        with pytest.raises(FederationFormatError) as exc_info:
            load_federation(path)
        assert str(exc_info.value) == f"{path}: line 3: user_id must be an int64 integer"
        assert exc_info.value.line == 3

    def test_form_feed_in_a_record_line_names_that_line(self, tmp_path):
        # a form feed breaks no line: two records joined by one are one line, and not JSON
        record = json.dumps({"user_id": 1, "features": [0.5], "label": 0, "duration_s": 1.0})
        lines = [json.dumps({"feature_dim": 1, "class_count": 2}), record, record + "\x0c" + record, record]
        path = write_lines(tmp_path / "ff.jsonl", lines)
        with pytest.raises(FederationFormatError) as exc_info:
            load_federation(path)
        assert str(exc_info.value) == f"{path}: line 3: invalid JSON: Extra data"
        assert exc_info.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "badheader.jsonl"
        record = json.dumps({"user_id": 1, "features": [0.5], "label": 0, "duration_s": 1.0})
        for header in ({"feature_dim": 2}, {"feature_dim": True, "class_count": 2}):
            path.write_text(json.dumps(header) + "\n" + record + "\n")
            with pytest.raises(FederationFormatError, match="line 1"):
                load_federation(path)


def load_outcome(load, path):
    """What a loader makes of a file: its error (type, message, line) or its arrays' dtypes and bytes."""
    try:
        fed = load(path)
    except Exception as exc:  # any outcome is compared
        return type(exc), str(exc), getattr(exc, "line", None)
    arrays = (fed.X, fed.y, fed.duration, fed.user_ids, fed.offsets)
    return fed.class_count, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def federation_records(rng: np.random.Generator, user_count: int, feature_dim: int, class_count: int) -> list[dict]:
    """Records of a valid federation, users in runs of 1-40 records."""
    records = []
    for user_id in rng.permutation(user_count * 3)[:user_count].tolist():
        for _ in range(int(rng.integers(1, 41))):
            records.append({
                "user_id": user_id,
                "features": rng.standard_normal(feature_dim).tolist(),
                "label": int(rng.integers(0, class_count)),
                "duration_s": float(rng.uniform(0.0, 4.0)),
            })
    return records


def no_per_line_loop(path):
    raise AssertionError("the per-line loop ran on a plain file")


def write_lines(path, lines, newline="\n"):
    path.write_bytes(newline.join(lines + [""]).encode("utf-8"))  # as given: no newline translation
    return path


def render(header: dict, records) -> list[str]:
    """A federation file's lines: the header, then one record a line."""
    return [json.dumps(header)] + [json.dumps(r) for r in records]


# Defects for the block loader: each takes a valid file's header and records
# and returns the file's lines, with one defect (or a valid variation) in them.

def set_field(value):
    """One field of one record, or one of its features, becomes `value`."""

    def defect(header, records, rng):
        r = records[rng.integers(len(records))]
        key = ["user_id", "features", "label", "duration_s"][rng.integers(4)]
        if key == "features":
            r["features"][rng.integers(len(r["features"]))] = value
        else:
            r[key] = value
        return render(header, records)

    return defect


def integer_features(header, records, rng):
    for r in records[rng.integers(len(records)):]:  # from one record on, often whole blocks
        r["features"] = [int(v * 1e6) * 2**40 for v in r["features"]]
    return render(header, records)


def scalar_as_list(header, records, rng):
    key = ["user_id", "label", "duration_s"][rng.integers(3)]
    for r in records if rng.integers(2) else records[-1:]:  # in every record or in one
        r[key] = [r[key]]
    return render(header, records)


def extra_key(header, records, rng):
    records[rng.integers(len(records))]["notes"] = 1
    return render(header, records)


def header_dim_mismatch(header, records, rng):
    return render({**header, "feature_dim": header["feature_dim"] + int(rng.choice([-1, 1]))}, records)


def header_split(header, records, rng):
    # valid JSON with the header's keys, which str.splitlines breaks in two
    return ['{"feature_dim": "\u2028", ' + render(header, records)[0][1:]] + render(header, records)[1:]


def reappearing_user(header, records, rng):
    return render(header, records + [dict(records[0])])


def insert_lines(*choices):
    def defect(header, records, rng):
        lines = render(header, records)
        for _ in range(rng.integers(1, 4)):
            lines.insert(rng.integers(1, len(lines) + 1), choices[rng.integers(len(choices))])
        return lines

    return defect


def long_blank_run(header, records, rng):
    lines = render(header, records)
    lines.insert(rng.integers(1, len(lines) + 1), "\n" * (LOAD_BLOCK_LINES + rng.integers(1, 50)))
    return lines


def char_in_line(char):
    """`char` at a random place of a random line, the header's end included."""

    def defect(header, records, rng):
        lines = render(header, records)
        i = rng.integers(len(lines))
        at = rng.choice([0, len(lines[i]), rng.integers(len(lines[i]) + 1)])
        lines[i] = lines[i][:at] + char + lines[i][at:]
        return lines

    return defect


def split_record(header, records, rng):
    lines = render(header, records)
    i = rng.integers(1, len(lines))
    cut = lines[i].index(', "label"')
    lines[i : i + 1] = [lines[i][: cut + 1], lines[i][cut + 1 :]]
    return lines


def three_line_construction(header, records, rng):
    # three more records of the last user, rejoined as three lines whose middle
    # one holds `...}, {...`: the joined text decodes to as many records as lines
    lines = render(header, records + [records[-1]] * 3)
    a, b, c = lines[-3:]
    ca, cc = a.index(', "label"'), c.index(', "label"')
    lines[-3:] = [a[:ca], a[ca + 2 :] + ", " + b + ", " + c[:cc], c[cc + 2 :]]
    return lines


def duplicate_key(header, records, rng):
    lines = render(header, records)
    i = rng.integers(1, len(lines))
    key, value = [("user_id", "7"), ("label", "0"), ("user_id", '"x"'), ("duration_s", "true"),
                  ("user_id", '"\u2028"'), ("label", '"\x85"')][rng.integers(6)]
    lines[i] = '{"%s": %s, ' % (key, value) + lines[i][1:]
    return lines


def deep_nesting_after_a_boolean(header, records, rng):
    # the block's decode overflows the stack; the per-line loop stops at the boolean first
    records[0]["label"] = True
    lines = render(header, records)
    lines[-1] = lines[-1].replace("[", "[" * 5000, 1).replace("]", "]" * 5000, 1)
    return lines


DEFECTS = {
    "none": lambda header, records, rng: render(header, records),
    "true": set_field(True),
    "false": set_field(False),
    "null": set_field(None),
    "number_as_string": set_field("1.5"),
    "integer_as_string": set_field("1"),
    "integer_features": integer_features,
    "negative_zero": set_field(-0.0),
    "two_to_63": set_field(2**63),
    "ten_to_400": set_field(10**400),
    "nan": set_field(float("nan")),
    "infinity": set_field(float("inf")),
    "minus_infinity": set_field(float("-inf")),
    "blank_lines": insert_lines("", " ", "\t \t", "\xa0", "\x0c", "\u2028"),
    "long_blank_run": long_blank_run,
    "crlf": char_in_line("\r\n"),
    "lone_cr": char_in_line("\r"),
    "form_feed": char_in_line("\x0c"),
    "line_separator": char_in_line("\u2028"),
    "next_line": char_in_line("\x85"),
    "no_break_space": char_in_line("\xa0"),
    "record_split": split_record,
    "three_line_construction": three_line_construction,
    "reappearing_user": reappearing_user,
    "duplicate_key": duplicate_key,
    "scalar_as_list": scalar_as_list,
    "extra_key": extra_key,
    "header_dim_mismatch": header_dim_mismatch,
    "header_split": header_split,
    "deep_nesting_after_a_boolean": deep_nesting_after_a_boolean,
}


class TestBlockLoad:
    """load_federation's block decode against the per-line loop, the one home of its errors."""

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @given(
        seed=st.integers(0, 2**32 - 1),
        user_count=st.integers(1, 30),
        feature_dim=st.integers(1, 3),
        class_count=st.integers(2, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_matches_per_line_loop(self, tmp_path_factory, defect, seed, user_count, feature_dim, class_count):
        rng = np.random.default_rng(seed)
        records = federation_records(rng, user_count, feature_dim, class_count)
        header = {"feature_dim": feature_dim, "class_count": class_count}
        path = write_lines(tmp_path_factory.mktemp("defect") / "federation.jsonl", DEFECTS[defect](header, records, rng))
        assert load_outcome(load_federation, path) == load_outcome(fedsim.data._load_lines, path)

    def test_plain_files_skip_the_per_line_loop(self, tmp_path, monkeypatch):
        # what a valid file may hold besides plain records loads without the per-line loop:
        # a block of integer features only, -0.0, mixed ints and floats, JSON
        # whitespace around a record, blank lines, and any of the three newlines
        records = federation_records(np.random.default_rng(5), 60, 2, 2)
        for r in records[: LOAD_BLOCK_LINES + 9]:
            r["features"] = [int(v * 1e6) * 2**40 for v in r["features"]]
        records[-1]["features"] = [-0.0, 3]
        lines = render({"feature_dim": 2, "class_count": 2}, records)
        lines[5] = " \t" + lines[5] + " "
        lines[7:7] = [""] * (2 * LOAD_BLOCK_LINES) + ["\xa0", " \t"]
        expected = load_outcome(fedsim.data._load_lines, write_lines(tmp_path / "lf.jsonl", lines))
        monkeypatch.setattr(fedsim.data, "_load_lines", no_per_line_loop)
        for newline in ("\n", "\r\n", "\r"):
            path = write_lines(tmp_path / "plain.jsonl", lines, newline)
            assert load_outcome(load_federation, path) == expected, repr(newline)

    def test_decodes_are_bounded(self, tmp_path, monkeypatch):
        # a file of more than four blocks is never decoded more than one block at a time
        records = federation_records(np.random.default_rng(6), 120, 2, 2)
        assert len(records) > 4 * LOAD_BLOCK_LINES
        path = write_lines(tmp_path / "big.jsonl", render({"feature_dim": 2, "class_count": 2}, records))
        real, counts = json.loads, []

        def counted(text, *args, **kwargs):
            obj = real(text, *args, **kwargs)
            counts.append(len(obj) if isinstance(obj, list) else 1)
            return obj

        monkeypatch.setattr(fedsim.data.json, "loads", counted)
        fed = load_federation(path)
        assert fed.total_examples == len(records) == sum(counts) - 1  # the header is one decode
        assert max(counts) == LOAD_BLOCK_LINES

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_file_equals_per_line_loop(self, tmp_path, monkeypatch, seed):
        spec = importlib.util.spec_from_file_location("bench_fedfile", FEDFILE)
        fedfile = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fedfile)
        path = tmp_path / "federation.jsonl"
        fedfile.write_federation(path, seed)
        expected = load_outcome(fedsim.data._load_lines, path)
        monkeypatch.setattr(fedsim.data, "_load_lines", no_per_line_loop)
        assert load_outcome(load_federation, path) == expected




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

    @pytest.mark.parametrize("class_count", [1, 0, 2.5, 2.0, True, "2", np.int64(3)])
    def test_class_count_a_file_cannot_hold_rejected(self, class_count):
        # the rule of a federation file's header, so that what saves also loads; json.dumps refuses numpy's ints
        fed = tiny_federation()
        message = rf"^class_count must be an integer >= 2, got {re.escape(repr(class_count))}$"
        with pytest.raises(ValueError, match=message):
            Federation(fed.X, fed.y, fed.duration, fed.user_ids, fed.offsets, class_count)

    @pytest.mark.parametrize("class_count", [2, 3])
    def test_federation_saves_and_reloads(self, tmp_path, class_count):
        fed = tiny_federation()
        fed = Federation(fed.X, fed.y, fed.duration, fed.user_ids, fed.offsets, class_count)
        save_federation(fed, tmp_path / "federation.jsonl")
        assert load_federation(tmp_path / "federation.jsonl") == fed

    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lookup_agrees_with_offsets(self, sizes, data):
        # segments is the one lookup; sizes and rows read offsets through it, in the order given
        ids = data.draw(st.lists(st.integers(-1000, 10**9), min_size=len(sizes), max_size=len(sizes), unique=True))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        n = int(offsets[-1])
        fed = Federation(np.arange(n, dtype=np.float64)[:, None], np.zeros(n), np.ones(n), ids, offsets, 2)
        subset = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids)))]
        segments = fed.segments(subset).tolist()
        assert [ids[k] for k in segments] == subset
        assert fed.sizes(subset).tolist() == [sizes[k] for k in segments]
        rows, row_sizes = fed.rows(subset)
        assert rows.tolist() == [r for k in segments for r in range(offsets[k], offsets[k + 1])]
        assert row_sizes.tolist() == [sizes[k] for k in segments]
        unknown = data.draw(st.integers(-(2**62), 2**62).filter(lambda u: u not in ids))
        at = data.draw(st.integers(0, len(subset)))
        for lookup in (fed.segments, fed.sizes, fed.rows):
            with pytest.raises(ValueError, match=f"^unknown user id {unknown}$"):
                lookup(subset[:at] + [unknown] + subset[at:])
