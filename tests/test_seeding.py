"""Seed derivation and the one-pass seeding of a cohort's epoch orders.

`client.epoch_orders` reimplements numpy's `SeedSequence` entropy mixing and
`generate_state`, and PCG64's seeding from its output, and only calls numpy
for the permutation itself. These tests compare it with `client.epoch_order`,
which seeds through `np.random.default_rng`; they fail if a numpy release
changes how `SeedSequence` or PCG64 turns a seed into a state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.client
from fedsim.client import epoch_order, epoch_orders
from fedsim.seeding import derive_seed, derive_seeds

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def _reference(round_seed, user_ids, sizes):
    return [epoch_order(n, round_seed, u, 0) for u, n in zip(user_ids, sizes)]


def _assert_orders_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


@st.composite
def cohorts(draw):
    """1-64 distinct user ids, each with a size from a palette of 1-64, so sizes repeat as in a FedSGD block."""
    k = draw(st.integers(1, 64))
    palette = draw(st.lists(st.integers(1, 64), min_size=1, max_size=k))
    user_ids = draw(st.lists(st.integers(0, 10**9), min_size=k, max_size=k, unique=True))
    return user_ids, draw(st.lists(st.sampled_from(palette), min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(round_seed=st.integers(0, 2**63 - 1), cohort=cohorts())
def test_epoch_orders_equal_epoch_order(round_seed, cohort):
    user_ids, sizes = cohort
    _assert_orders_equal(epoch_orders(round_seed, user_ids, sizes), _reference(round_seed, user_ids, sizes))


@pytest.mark.parametrize("round_seed", EDGE_SEEDS)
def test_epoch_orders_at_edge_round_seeds_and_one_client(round_seed):
    _assert_orders_equal(epoch_orders(round_seed, [5], [7]), _reference(round_seed, [5], [7]))
    ids, sizes = list(range(40)), [1 + i % 6 for i in range(40)]
    _assert_orders_equal(epoch_orders(round_seed, ids, sizes), _reference(round_seed, ids, sizes))


def test_epoch_orders_seed_numpy_alike_at_edge_seeds(monkeypatch):
    # the seeds themselves at the edges of SeedSequence's one- and two-word entropy, each alone
    # and all in one cohort: below 2**32 a seed is one word, numpy's padding of it is zeros
    monkeypatch.setattr(fedsim.client, "derive_seeds", lambda prefix, middles, suffix: EDGE_SEEDS[: len(middles)])
    sizes = [1, 2, 9, 33, 64]
    want = [np.random.default_rng(s).permutation(n) for s, n in zip(EDGE_SEEDS, sizes)]
    _assert_orders_equal(epoch_orders(0, list(range(5)), sizes), want)
    for s, n in zip(EDGE_SEEDS, sizes):
        monkeypatch.setattr(fedsim.client, "derive_seeds", lambda prefix, middles, suffix, s=s: [s])
        _assert_orders_equal(epoch_orders(0, [0], [n]), [np.random.default_rng(s).permutation(n)])


def test_derive_seeds_equals_derive_seed():
    ids = np.random.default_rng(3).integers(0, 2**62, 1000).tolist()
    assert derive_seeds((12345,), ids, (0,)) == [derive_seed(12345, u, 0) for u in ids]
    assert derive_seeds((7, "round"), ["a", "é", ""], ()) == [derive_seed(7, "round", s) for s in ["a", "é", ""]]
    assert derive_seeds((), [1, "x"], ("y", -2)) == [derive_seed(1, "y", -2), derive_seed("x", "y", -2)]


@pytest.mark.parametrize("bad", [True, 1.0, None, b"1", (1,)])
def test_derive_seeds_rejects_the_part_types_derive_seed_rejects(bad):
    for call in (
        lambda: derive_seed(1, bad),
        lambda: derive_seeds((1, bad), [2], ()),
        lambda: derive_seeds((1,), [bad], ()),
        lambda: derive_seeds((1,), [2], (bad,)),
    ):
        with pytest.raises(TypeError, match="seed parts must be int or str"):
            call()


def test_derive_seed_needs_a_part():
    with pytest.raises(ValueError):
        derive_seed()
