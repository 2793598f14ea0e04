"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions and methods
of each ``choquet_lab`` layer (``intervals``, ``measures``, ``choquet``,
``product``, ``economy``, ``io``, ``cli``) plus scipy's ``linprog`` as the
``product`` and ``economy`` modules call it (layer ``lp``).  Module-level
names that other modules imported (``economy.product_set_from_levels``,
``product.linprog``, ...) are rebound too, so every call path goes through a
wrapper.

Each call is a span with a parent; its self time is its duration minus the
durations of its child spans.  Methods of the ``HOT_CLASSES`` (set algebra,
scalar measure and distortion evaluations) and the ``HOT_FUNCTIONS`` (per-node
and per-trial helpers) run up to millions of times per run, so they are folded
into per-parent totals instead of being kept one by one.  Nothing here is imported by the package itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("intervals", "measures", "choquet", "product", "economy", "io", "cli")
DUNDERS = ("__init__", "__call__", "__add__")

# Classes whose every method runs per cell, per node or per sample.
HOT_CLASSES = {
    "IntervalSet",
    "Distortion",
    "FuzzyMeasure",
    "FilteringFamily",
    "StepFunction",
    "SectionFamily",
    "ProductSet",
    "ProductStepFunction",
    "Preferences",
    "Economy",
    "ExcessSample",
}
# Module functions called per node, per section or per random trial.
HOT_FUNCTIONS = {
    "choquet.choquet",
    "choquet.threshold_table",
    "choquet.choquet_restricted",
    "choquet.superlevel_set",
    "choquet.random_step_function",
    "choquet.comonotone_pair",
    "intervals.uniform_partition",
    "intervals.random_interval_set",
    "measures.filtering_family",
    "product.as_sectional",
    "product.product_measure",
    "product.integrate_sectional_over",
    "product.product_set_from_levels",
    "economy.normalize_price",
    "economy.is_maximal_in_budget",
    "economy.budget_check",
    "economy.is_feasible",
    "economy.verify_improvement",
}
PREFERS = ("strictly_prefers", "weakly_prefers", "strict_rows")


class Tracer:
    """In-memory spans, per-layer self time and call counts."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # "layer.name" -> [layer, calls, self seconds]
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (job, id, parent, layer, name, start, end, self)
        self.folded: dict[str, dict] = {}  # "layer.name" -> {parent id: [calls, dur, self]}
        self.job = None
        self._frames: list[list] = [[0.0]]  # child seconds per open call, over a sentinel
        self._open: list = [None]  # ids of open recorded spans, over a sentinel
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, hot: bool, on_call=None, on_result=None):
        frames, opened, clock = self._frames, self._open, time.perf_counter
        key = f"{layer}.{name}"
        stat = self.stats.setdefault(key, [layer, 0, 0.0])
        folded = self.folded.setdefault(key, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            frame = [0.0]
            frames.append(frame)
            if not hot:
                span_id = self._next_id = self._next_id + 1
                opened.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                own = duration - frame[0]
                frames[-1][0] += duration
                stat[1] += 1
                stat[2] += own
                if hot:
                    slot = folded.get(opened[-1])
                    if slot is None:
                        slot = folded[opened[-1]] = [0, 0.0, 0.0]
                    slot[0] += 1
                    slot[1] += duration
                    slot[2] += own
                else:
                    opened.pop()
                    self.spans.append((self.job, span_id, opened[-1], layer, name, start, end, own))
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def run_job(self, job, fn, *args):
        """Run ``fn(*args)`` as the root span of ``job`` (its own layer 'bench')."""
        self.job = job
        try:
            return self.wrap(fn, "bench", "job", hot=False)(*args)
        finally:
            self.job = None

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer, then rebind the names other modules imported."""
        hooks = {
            "choquet.choquet": {"on_call": _count_cells},
            "choquet.threshold_table": {"on_call": _count_cells},
            "economy.sample_excess_points": {"on_result": _count_excess},
            "economy.find_price": {"on_result": _count_kept},
            "economy.search_improvement": {"on_result": _count_candidates},
        }
        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"choquet_lab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer, wrapped)
                elif callable(obj):
                    key = f"{layer}.{name}"
                    wrapper = self.wrap(obj, layer, name, key in HOT_FUNCTIONS, **hooks.get(key, {}))
                    wrapped[id(obj)] = wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "choquet_lab" or mod_name.startswith("choquet_lab."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        self._set(mod, attr, wrapped[id(obj)])
        for layer in ("product", "economy"):
            mod = sys.modules[f"choquet_lab.{layer}"]
            self._set(mod, "linprog", self.wrap(mod.linprog, "lp", "linprog", False, on_result=_count_lp))

    def _wrap_class(self, cls, layer: str, wrapped: dict) -> None:
        hot = cls.__name__ in HOT_CLASSES
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if id(obj) in wrapped:  # an alias such as FuzzyMeasure.__call__ = measure
                self._set(cls, attr, wrapped[id(obj)])
            elif isinstance(obj, staticmethod):
                wrapped[id(obj)] = staticmethod(self.wrap(obj.__func__, layer, name, hot))
                self._set(cls, attr, wrapped[id(obj)])
            elif isinstance(obj, property):
                getter = self.wrap(obj.fget, layer, name, hot)
                wrapped[id(obj)] = property(getter, obj.fset, obj.fdel, obj.__doc__)
                self._set(cls, attr, wrapped[id(obj)])
            elif inspect.isfunction(obj):
                wrapped[id(obj)] = self.wrap(obj, layer, name, hot)
                self._set(cls, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def merge(self, summary: dict) -> None:
        """Add the counts of another process's ``summary()``."""
        for key, (layer, calls, own) in summary["stats"].items():
            stat = self.stats.setdefault(key, [layer, 0, 0.0])
            stat[1] += calls
            stat[2] += own
        for key, value in summary["counters"].items():
            self.counters[key] += value

    def summary(self) -> dict:
        return {"stats": self.stats, "counters": dict(self.counters)}

    def metrics(self) -> dict:
        """Per-layer metrics, without the ``cli.interpreter_s``/``import_s``
        and ``trace.overhead_s`` figures that only the caller can time."""
        calls = defaultdict(int, {key: stat[1] for key, stat in self.stats.items()})
        layer_calls, layer_s = defaultdict(int), defaultdict(float)
        for layer, n, own in self.stats.values():
            layer_calls[layer] += n
            layer_s[layer] += own
        n = defaultdict(float, self.counters)
        points = n["economy.excess_points"]
        return {
            "intervals.calls": layer_calls["intervals"],
            "intervals.self_s": layer_s["intervals"],
            "measures.mu_calls": calls["measures.FuzzyMeasure.measure"],
            "measures.g_calls": calls["measures.Distortion.__call__"]
            + calls["measures.Distortion.inverse"],
            "measures.self_s": layer_s["measures"],
            "choquet.calls": calls["choquet.choquet"] + calls["choquet.threshold_table"],
            "choquet.cells": int(n["choquet.cells"]),
            "choquet.self_s": layer_s["choquet"],
            "product.calls": layer_calls["product"],
            "product.self_s": layer_s["product"],
            "economy.self_s": layer_s["economy"],
            "economy.excess_points": int(points),
            "economy.excess_kept_ratio": n["economy.excess_kept"] / points if points else 0.0,
            "economy.candidates": int(n["economy.candidates"]),
            "economy.prefers_calls": sum(calls[f"economy.Preferences.{m}"] for m in PREFERS),
            "lp.calls": calls["lp.linprog"],
            "lp.s": layer_s["lp"],
            "lp.failed": int(n["lp.failed"]),
            "io.self_s": layer_s["io"],
            "cli.self_s": layer_s["cli"],
        }

    def records(self):
        """Recorded spans, then folded hot-call totals per parent span, as dicts."""
        fields = ("job", "id", "parent", "layer", "name", "start", "end", "self_s")
        for span in self.spans:
            yield dict(zip(fields, span))
        for key, by_parent in self.folded.items():
            layer, name = self.stats[key][0], key.split(".", 1)[1]
            for parent, (calls, dur, own) in by_parent.items():
                yield {"parent": parent, "layer": layer, "name": name,
                       "calls": calls, "duration_s": dur, "self_s": own}

    def dump(self, path, extra=()) -> None:
        """Write ``records()`` and ``extra`` records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in (*self.records(), *extra):
                fh.write(json.dumps(record) + "\n")


def _count_cells(tracer, args, kwargs):
    f = args[0] if args else kwargs["f"]
    if f.values.ndim == 1:  # vector calls recurse once per component
        tracer.counters["choquet.cells"] += len(f.cells)


def _count_excess(tracer, result):
    tracer.counters["economy.excess_points"] += len(result)


def _count_kept(tracer, result):
    tracer.counters["economy.excess_kept"] += result.samples_used


def _count_candidates(tracer, result):
    if hasattr(result, "candidates_checked"):  # ExhaustedReport; a witness ends early
        tracer.counters["economy.candidates"] += result.candidates_checked + result.two_level


def _count_lp(tracer, result):
    if result.status != 0:
        tracer.counters["lp.failed"] += 1
