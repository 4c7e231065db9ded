"""Outside-in tracing: spans around calls into each ``bctsim`` module's public functions.

Nothing under ``src/`` changes. :func:`Tracer.install` replaces every name a
module bound to a public function (``from .protocol import evaluate_bob``
binds one name in ``harness`` and another in ``analysis``) with a wrapper that
records a span: name, binding site, start, end, parent span, run id and item
count. The parent stack is thread-local; a span opened on a worker thread with
an empty stack takes the main thread's innermost open span as its parent, so
the harness thread pool's batches count as children of the runner that
started them. Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the union of its children's
intervals. With one thread the children are disjoint and the self times of a
tree add up to its root's duration; with two, children overlap and the
difference is reported as parallel overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("geometry", "qm", "protocol", "analysis", "harness", "cli")


def _theta_items(arg_index: int):
    def items(args, kwargs, result):
        theta = args[arg_index] if len(args) > arg_index else kwargs["theta"]
        return int(np.size(theta))
    return items


#: item counters for spans whose work scales with an argument or result
ITEMS = {
    "protocol.evaluate_bob": _theta_items(4),
    "protocol.alice_slot_arrays": _theta_items(1),
    "harness.render_text": lambda args, kwargs, result: len(result.encode("utf-8")),
}


class Tracer:
    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []  # (span name, binding site)
        self._key_ids: dict[tuple[str, str], int] = {}
        # (span id, key id, start ns, end ns, parent span id, run id, items)
        self.spans: list[tuple] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _key(self, name: str, site: str) -> int:
        key = (name, site)
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return self._key_ids[key]

    def wrap(self, name: str, site: str, fn):
        kid = self._key(name, site)
        items_of = ITEMS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            n = items_of(args, kwargs, result) if items_of else 1
            tracer.spans.append((sid, kid, t0, t1, parent, tracer.run_id, n))
            return result

        return traced

    def operation(self, name: str):
        """Context manager for one benchmark operation: a root span with a fresh run id."""
        return _Operation(self, self._key(name, "perfbench"))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every public (not underscored) function of the six modules."""
        import importlib

        modules = {m: importlib.import_module(f"bctsim.{m}") for m in LAYERS}
        public: dict[int, tuple[str, object]] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    public[id(obj)] = (f"{short}.{attr}", obj)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in public:
                    name, fn = public[id(obj)]
                    self._patch(mod, attr, self.wrap(name, f"{short}.{attr}", fn))
        record = modules["protocol"].TrialRecord
        self._patch(record, "to_json", self.wrap("protocol.record_json", "protocol.TrialRecord", record.to_json))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, items, total and self seconds, plus accounting totals."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid, kid, t0, t1, parent, run, n in self.spans:
            children[parent].append((t0, t1))
        names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
        sites: dict[str, int] = defaultdict(int)
        overlap_ns = 0
        busy_ns: dict[str, int] = defaultdict(int)
        for sid, kid, t0, t1, parent, run, n in self.spans:
            name, site = self.keys[kid]
            kids = children.get(sid, ())
            covered = union_length(kids)
            total = t1 - t0
            overlap_ns += sum(b - a for a, b in kids) - covered
            busy_ns[name] += sum(b - a for a, b in kids)
            entry = names[name]
            entry["calls"] += 1
            entry["items"] += n
            entry["total_s"] += total / 1e9
            entry["self_s"] += (total - covered) / 1e9
            sites[site] += 1
        for name, entry in names.items():
            entry["children_busy_s"] = busy_ns[name] / 1e9
        roots = [(t0, t1) for sid, kid, t0, t1, parent, run, n in self.spans if parent == 0]
        return {
            "names": dict(names),
            "binding_sites": dict(sites),
            "spans": len(self.spans),
            "root_s": sum(b - a for a, b in roots) / 1e9,
            "self_sum_s": sum(e["self_s"] for e in names.values()),
            "parallel_overlap_s": overlap_ns / 1e9,
        }

    def write(self, path: Path) -> None:
        """Write every span, columnar and compressed, with the name table as JSON."""
        cols = np.array(self.spans, dtype=np.int64).reshape(-1, 7)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            span_id=cols[:, 0], key=cols[:, 1], start_ns=cols[:, 2], end_ns=cols[:, 3],
            parent=cols[:, 4], run_id=cols[:, 5], items=cols[:, 6],
            keys=np.array(json.dumps(self.keys)),
        )


class _Operation:
    def __init__(self, tracer: Tracer, kid: int) -> None:
        self.tracer = tracer
        self.kid = kid

    def __enter__(self):
        t = self.tracer
        t.run_id = next(t._runs)
        self.sid = next(t._ids)
        t._main_stack.append(self.sid)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t1 = perf_counter_ns()
        t._main_stack.pop()
        t.spans.append((self.sid, self.kid, self.t0, t1, 0, t.run_id, 1))
        return False


def union_length(intervals) -> int:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
