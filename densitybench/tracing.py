"""Span wrappers installed from the benchmark's side around the library's
public functions, one layer (module) at a time.

A wrapper is installed at every binding site of a traced function: the
defining module, every density_lab module that imported the name, and the
class for methods. Spans record name, start, end, parent and the root op
span they belong to; they stay in memory and are written when the run ends.
Per-name aggregates (calls, total time, self time) are kept online, so the
span store can be capped without losing the layer numbers. Counters that
the library does not report are computed here from arguments and results.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
import time
from typing import Callable, Optional

# module -> traced qualified names (the per-layer metrics use "<module>.<name>")
TRACED = {
    "windows": ("real_shift_sup", "real_threshold_witness", "zd_shift_sup", "real_mass"),
    "intervals": (
        "IntervalUnion.translate",
        "IntervalUnion.intersect",
        "IntervalUnion.union",
        "IntervalUnion.minkowski",
        "IntervalUnion.contains",
        "IntervalUnion.complement_within",
        "PeriodicPattern.mass_on",
    ),
    "density": (
        "window_density_profile",
        "auud_window",
        "translation_witness",
        "rudin_window",
        "kahane_oracle_finite",
        "oracle_counting_sweep",
    ),
    "structure": (
        "syndetic_pipeline",
        "auto_H",
        "partition_by_coloring",
        "fatten",
        "greedy_translates",
        "packing_bound_check",
    ),
    "additive": ("minimal_translates", "syndetic_check", "gap_analysis"),
    "sets": ("difference_set", "minkowski_sum"),
    "instances": ("parse_instance", "to_jsonable", "canonical_json"),
    "cli": ("main",),
}

ROOT = "bench.op"
SPAN_CAP = 50_000


def _cells(args, result):
    period = getattr(getattr(args[0], "of", None), "period", None)
    n = 1
    for m in period or (0,):
        n *= m
    return {"cells": n}


def _pairs(args, result):
    return {"pairs": ((1 << args[1].order) - 1) ** 2}


def _greedy(args, result):
    accepted = len(result.translates)
    return {"accepted": accepted, "candidates": accepted + len(result.blocked)}


# name -> counters computed from (args, result)
COUNTERS: dict[str, Callable] = {
    "windows.real_shift_sup": lambda a, r: {"candidates": r.candidates},
    "windows.zd_shift_sup": _cells,
    "density.kahane_oracle_finite": _pairs,
    "density.rudin_window": lambda a, r: {"tried": len(r.tried)},
    "structure.greedy_translates": _greedy,
    "structure.partition_by_coloring": lambda a, r: {"classes": r.n, "k_bound": r.k_bound},
    "instances.canonical_json": lambda a, r: {"report_bytes": len(r.encode("utf-8"))},
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0
        self.self_time = 0
        self.depth = 0  # open spans of this name, so recursion is not double counted


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, float] = {}
        self.counter_errors: set[str] = set()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child ns]
        self._root = 0
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- span recording ---------------------------------------------------

    def span(self, name: str, fn: Callable, args=(), kwargs=None):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1][0] if self._stack else 0
        if not self._stack:
            self._root = sid
        frame = [sid, 0]
        self._stack.append(frame)
        stat.depth += 1
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            stat.depth -= 1
            dur = end - start
            stat.calls += 1
            if stat.depth == 0:
                stat.total += dur
            stat.self_time += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, self._root, name, start, end))
            else:
                self.dropped += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                for key, value in counter(args, result).items():
                    key = f"{name}.{key}"
                    self.counters[key] = self.counters.get(key, 0) + value
            except (AttributeError, TypeError, IndexError):
                self.counter_errors.add(name)
        return result

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function at each of its binding sites. A module
        the workload never imported is left alone; a module or name that no
        longer exists is reported as missing."""
        self.missing = []
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "density_lab" or n.startswith("density_lab."))]
        for module_name, names in TRACED.items():
            full_name = f"density_lab.{module_name}"
            module = sys.modules.get(full_name)
            if module is None and importlib.util.find_spec(full_name) is not None:
                continue
            for qualname in names:
                metric = f"{module_name}.{qualname}"
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".", 1)
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(metric)
                    continue
                wrapper = self._wrap(metric, original)
                if owner is not module:
                    self._set(owner, attr, wrapper)
                    continue
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper)

    def _wrap(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._stack:  # only inside an op span
                return original(*args, **kwargs)
            return tracer.span(name, original, args, kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for module_name, names in TRACED.items():
            for qualname in names:
                name = f"{module_name}.{qualname}"
                stat = self.stats.get(name, _Stat())
                out[f"{name}.calls"] = (stat.calls, "count")
                out[f"{name}.total_s"] = (stat.total / 1e9, "s")
                out[f"{name}.self_s"] = (stat.self_time / 1e9, "s")
        root = self.stats.get(ROOT, _Stat())
        out[f"{ROOT}.calls"] = (root.calls, "count")
        out[f"{ROOT}.total_s"] = (root.total / 1e9, "s")
        out[f"{ROOT}.self_s"] = (root.self_time / 1e9, "s")
        c = self.counters.get
        out["windows.real_shift_sup.candidates"] = (c("windows.real_shift_sup.candidates", 0), "count")
        out["windows.zd_shift_sup.cells"] = (c("windows.zd_shift_sup.cells", 0), "count")
        out["density.kahane_oracle_finite.pairs"] = (c("density.kahane_oracle_finite.pairs", 0), "count")
        out["density.rudin_window.tried"] = (c("density.rudin_window.tried", 0), "count")
        scanned = c("structure.greedy_translates.candidates", 0)
        out["structure.greedy_translates.candidates"] = (scanned, "count")
        out["structure.greedy_translates.accept_ratio"] = (
            c("structure.greedy_translates.accepted", 0) / scanned if scanned else 0.0, "ratio")
        k_bound = c("structure.partition_by_coloring.k_bound", 0)
        out["structure.partition_by_coloring.k_bound"] = (float(k_bound), "count")
        out["structure.partition_by_coloring.class_ratio"] = (
            float(c("structure.partition_by_coloring.classes", 0) / k_bound) if k_bound else 0.0,
            "ratio")
        out["instances.report_bytes"] = (c("instances.canonical_json.report_bytes", 0), "bytes")
        return out

    def table(self) -> str:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].self_time)
        lines = [f"{'span':<44} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
        for name, s in rows:
            lines.append(f"{name:<44} {s.calls:>9} {s.total / 1e9:>10.4f} {s.self_time / 1e9:>10.4f}")
        for name in self.missing:
            lines.append(f"{name:<44} missing: not found in this version of the library")
        for name in sorted(self.counter_errors):
            lines.append(f"{name:<44} counters not computed: the result lacks a field they read")
        if self.dropped:
            lines.append(f"({self.dropped} spans beyond the in-memory cap of {SPAN_CAP} were not stored)")
        return "\n".join(lines)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, root, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": root, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")


def root_span(tracer: Optional[Tracer], fn: Callable):
    """Run one op, inside a root span when tracing."""
    if tracer is None:
        return fn()
    return tracer.span(ROOT, fn)
