"""Boundary tracing for the benchmark's traced run.

Each hook replaces a function at the module attribute its caller looks it
up from (`fedsim.server.train_local`, not `fedsim.client.train_local`, for
the call inside `run_round`) with a generic `*args/**kwargs` timer. Nothing
in fedsim changes. A span records its name, start, end, parent span and the
id of the top-level call it belongs to; spans stay in flat in-memory arrays
and are written out once, after the run.

A span is named `<layer>.<function>`, where the layer is the fedsim module
that defines the function, so `derive_seed` looked up from four modules is
always `seeding.derive_seed`.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module the caller looks the function up from, attribute names).
HOOKS = (
    (
        "fedsim.experiment",
        (
            "synthesize_federation",
            "load_federation",
            "split_users",
            "run_round",
            "pooled_eval",
            "federated_eval",
            "derive_seed",
        ),
    ),
    (
        "fedsim.server",
        ("train_local", "select_clients", "pseudo_gradient", "apply_adam", "apply_plain", "derive_seed"),
    ),
    ("fedsim.model", ("gradient_from_arrays", "loss", "loss_from_arrays", "batch_arrays", "batch_probs")),
    ("fedsim.evaluation", ("score_examples", "operating_point")),
    ("fedsim.client", ("derive_seed",)),
)


def span_name(fn) -> str:
    """`<defining module without the package>.<function name>`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records nested spans around hooked functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.call_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._call = -1
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str | None = None):
        nid = self._intern(name or span_name(fn))
        stack = self._stack
        name_ids, parents, calls, starts, ends = self.name_id, self.parent, self.call_id, self.start, self.end
        clock = time.perf_counter

        def timed(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            calls.append(self._call)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return timed

    def install(self) -> None:
        """Patch every hook target that exists; note the ones that do not.

        A target a later change deleted (say `model.batch_arrays`, or a whole
        module) is recorded as absent, so its metrics read zero instead of
        the run crashing.
        """
        self.absent = []
        for module_name, attrs in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            for attr in attrs:
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def call(self, fn, name: str, *args):
        """Run one top-level call as its own span tree; return its result."""
        self._call += 1
        return self.wrap(fn, name)(*args)

    def arrays(self) -> dict[str, np.ndarray]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name_id": name_id, "parent": parent, "dur": dur, "self": dur - child}

    def write(self, path: Path) -> None:
        """One CSV line per span: name, call id, span id, parent id, start, end."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write("name,call,span,parent,start_s,end_s\n")
            for i, (nid, call, parent, start, end) in enumerate(
                zip(self.name_id, self.call_id, self.parent, self.start, self.end)
            ):
                fh.write(f"{self.names[nid]},{call},{i},{parent},{start:.9f},{end:.9f}\n")
