"""Span recording for the traced run, installed from outside the package.

``install`` wraps every public function of the ``sympb`` modules, plus the
two report writers and the one private helper that counts bath-action draws,
and rebinds each wrapper at every module attribute that held the original.
The modules import functions by name (``from .bottleneck import j_max_cnf``),
so patching only the defining module would miss those calls.

Spans live in flat arrays (name id, parent span, start, end) until
``Recorder.summary`` turns them into per-name call counts, total and self
times, and [parent, child, calls] edges.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from array import array

# Layers of the traced run: the sympb modules a span can belong to.
LAYERS = ("cli", "tables", "models", "bottleneck", "kernels", "ensembles",
          "integrators", "evolution", "linalg")

# The one private helper that is a span too: one call per bath-action draw.
DRAW_HELPER = "ensembles._solve_reactive_integral"
REPORT_WRITERS = ("to_csv", "to_json")


class Recorder:
    """In-memory span store with argument-derived counters."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def summary(self) -> dict:
        """Aggregate the recorded spans and counters, then clear them."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans = {}
        edges = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur[i]
            agg[2] += dur[i] - child[i]
            p = self.parent[i]
            parent = self.names[self.name_of[p]] if p >= 0 else ""
            edges[(parent, name)] = edges.get((parent, name), 0) + 1
        out = {
            "spans": {k: {"calls": c, "s": t, "self_s": s} for k, (c, t, s) in spans.items()},
            "edges": [[p, c, k] for (p, c), k in edges.items()],
            "counters": dict(self.counters),
        }
        for buf in (self.name_of, self.parent, self.start, self.end):
            del buf[:]
        self.counters.clear()
        return out


def _bound(fn, args, kwargs, name):
    """Argument ``name`` of a call, or None when the signature lacks it."""
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _count_box_hits(rec, fn, args, kwargs, result):
    samples = _bound(fn, args, kwargs, "j_samples")
    if samples is not None:
        rec.count("kernels.count_box_hits.samples", len(samples))
        rec.count("kernels.count_box_hits.bytes", int(getattr(samples, "nbytes", 0)))
        rec.count("kernels.count_box_hits.hits", int(result))


def _verlet_run(rec, fn, args, kwargs, result):
    nsteps = _bound(fn, args, kwargs, "nsteps")
    q0 = _bound(fn, args, kwargs, "q0")
    if nsteps is not None and q0 is not None:
        # a batched kernel takes (k, d) start states: k trajectories
        shape = getattr(q0, "shape", (len(q0),))
        rec.count("kernels.verlet_run.steps", int(nsteps) * (shape[0] if len(shape) > 1 else 1))


def _sample_ensemble(rec, fn, args, kwargs, result):
    spec = _bound(fn, args, kwargs, "spec")
    if spec is not None:
        rec.count("ensembles.sample_ensemble.points", int(spec.n_traj))


def _report_write(rec, fn, args, kwargs, result):
    target = _bound(fn, args, kwargs, "target")
    if isinstance(target, str):
        rec.count("tables.bytes", os.path.getsize(target))


COUNTERS = {
    "kernels.count_box_hits": _count_box_hits,
    "kernels.verlet_run": _verlet_run,
    "ensembles.sample_ensemble": _sample_ensemble,
    "tables.ExperimentReport.to_csv": _report_write,
    "tables.ExperimentReport.to_json": _report_write,
}


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.finish(idx)
        if counter is not None:
            counter(rec, fn, args, kwargs, result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the sympb functions and rebind the wrappers."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == "sympb" or name.startswith("sympb.")}
    wrapped = {}
    for modname, mod in modules.items():
        layer = modname[len("sympb."):]
        if layer not in LAYERS:
            continue
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (isinstance(obj, types.FunctionType) and obj.__module__ == modname
                    and (not attr.startswith("_") or name == DRAW_HELPER)):
                wrapped[id(obj)] = (obj, _wrap(rec, name, obj))
    report = getattr(modules.get("sympb.tables"), "ExperimentReport", None)
    for method in REPORT_WRITERS:
        fn = vars(report).get(method) if report is not None else None
        if fn is not None:
            setattr(report, method, _wrap(rec, f"tables.ExperimentReport.{method}", fn))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            orig, wrapper = wrapped.get(id(obj), (None, None))
            if orig is obj:
                setattr(mod, attr, wrapper)
