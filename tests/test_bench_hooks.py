"""The benchmark's boundary tracer wraps fedsim functions by module attribute
(`bench/spans.py`, `HOOKS`) and names each span after the function. A
refactor that removes, renames or wraps one of those attributes would
silently zero its per-layer metrics, or crash the traced run; this guard
fails instead."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# hook targets whose functions were deleted on purpose; their metrics read 0
DELETED = {"fedsim.model.loss", "fedsim.model.batch_arrays"}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = load_spans()
TARGETS = [(module, attr) for module, attrs in SPANS_MODULE.HOOKS for attr in attrs]


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_hook_target_is_a_named_function(module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr, None)
    if f"{module_name}.{attr}" in DELETED:
        assert fn is None
        return
    assert fn is not None, f"{module_name}.{attr} is gone"
    # the span is named after the function, so it must carry its own name
    assert SPANS_MODULE.span_name(fn).rsplit(".", 1)[-1] == attr
