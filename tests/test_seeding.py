"""Seed derivation: `derive_seed` over tagged, length-prefixed int and string parts."""

from __future__ import annotations

import pytest

from fedsim.seeding import derive_seed


def test_derive_seed_values_are_pinned():
    # any change to the part encoding or the hash moves every run's bytes
    assert derive_seed(0) == 1670818705416132863
    assert derive_seed(1, "round", 1) == 3621244591603921859
    assert derive_seed(12345, 7, 0) == 1898730133458930393
    assert derive_seed("é", -2) == 5478741665152706902


def test_derive_seed_tells_ints_from_strings_and_splits_from_joins():
    assert derive_seed(1) != derive_seed("1")
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert all(0 <= derive_seed(u, "x") < 2**63 for u in range(100))


@pytest.mark.parametrize("bad", [True, 1.0, None, b"1", (1,)])
def test_derive_seed_rejects_parts_that_are_not_int_or_str(bad):
    with pytest.raises(TypeError, match="seed parts must be int or str"):
        derive_seed(1, bad)


def test_derive_seed_needs_a_part():
    with pytest.raises(ValueError):
        derive_seed()
