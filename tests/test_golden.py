"""Every output keeps its bytes: the cases of tests/golden.py against the
committed manifest, tests/golden.json.

The hashes are compared where the platform (numpy's version, its BLAS and
kernel, the machine) is the manifest's. Elsewhere a last-bit difference
from the manifest is allowed, and each case checks only that two runs agree.
"""

from __future__ import annotations

import json

import pytest

import golden

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
SAME_PLATFORM = MANIFEST["platform"] == golden.platform_key()


def test_manifest_holds_every_case_at_every_seed():
    assert {name: sorted(seeds) for name, seeds in MANIFEST["hashes"].items()} == {
        name: sorted(map(str, golden.SEEDS)) for name in golden.CASES
    }


@pytest.mark.parametrize("name", list(golden.CASES))
def test_outputs_keep_their_bytes(name, tmp_path):
    for seed in golden.SEEDS:
        hashes = golden.case_hashes(name, seed, tmp_path / str(seed))
        if SAME_PLATFORM:
            assert hashes == MANIFEST["hashes"][name][str(seed)], (
                f"seed {seed}: the outputs moved; a change that means to move them reruns tests/golden.py"
            )
        else:
            assert hashes == golden.case_hashes(name, seed, tmp_path / f"{seed}-again"), f"seed {seed}"
