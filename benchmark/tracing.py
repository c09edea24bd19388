"""Spans around the public functions of matchcore, installed from outside.

The tracer wraps every public function defined in a layer module and
rebinds the wrapper under every name that refers to the original in any
``matchcore`` module, so calls through ``from .lp import solve`` style
imports are caught as well as attribute calls. Spans stay in memory and
are written out when the run ends; a layer's self time is its spans'
duration minus the duration of their direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Modules under matchcore whose public functions get spans; rationals and
# caps are left out because their helpers run per coefficient.
LAYER_MODULES = ("lp", "oracle", "formulations", "games", "analysis",
                 "instance_io", "cli", "fixtures")

_START, _END, _PARENT, _NAME, _OP, _EXTRA = range(6)


def matchcore_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "matchcore" or name.startswith("matchcore."))]


class Tracer:
    """In-memory span recorder; install() and uninstall() bracket a pass.

    Spans are recorded only while ``on`` is true, so answer checks that
    call the library between operations leave no spans; ``op`` numbers the
    operation the spans belong to.
    """

    def __init__(self):
        self.on = False
        self.op = 0
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_solve = name == "lp.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [clock(), 0.0, stack[-1] if stack else -1, name, self.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = clock()
            if is_solve:
                lp = args[0]
                span[_EXTRA] = (len(lp.constraints), len(lp.variables),
                                result.status.value == "optimal")
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in matchcore_modules():
            short = mod.__name__.rpartition(".")[2]
            if short not in LAYER_MODULES:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in matchcore_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "op": span[_OP], "name": span[_NAME],
                    "parent": span[_PARENT], "start": span[_START],
                    "end": span[_END]}) + "\n")


def layer_metrics(tracer: Tracer, caches: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from the recorded spans and cache counters.

    ``caches`` maps a module's last name to its summed (hits, misses).
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    rows_max = cells = nonoptimal = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        module, _, func = span[_NAME].partition(".")
        for key in _groups(module, func):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own
        if span[_EXTRA] is not None:
            rows, variables, optimal = span[_EXTRA]
            rows_max = max(rows_max, rows)
            cells += rows * variables
            nonoptimal += not optimal
    hits, misses = caches.get("oracle", (0, 0))
    dual_hits, dual_misses = caches.get("analysis", (0, 0))
    return {
        "lp.solve.calls": (calls.get("lp.solve", 0), "count"),
        "lp.solve.self_s": (self_s.get("lp.solve", 0.0), "s"),
        "lp.solve.rows_max": (rows_max, "rows"),
        "lp.solve.cells": (cells, "cells"),
        "lp.solve.nonoptimal": (nonoptimal, "count"),
        "oracle.calls": (calls.get("oracle", 0), "count"),
        "oracle.self_s": (self_s.get("oracle", 0.0), "s"),
        "oracle.cache_hits": (hits, "count"),
        "oracle.cache_misses": (misses, "count"),
        "oracle.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "formulations.build.calls": (calls.get("formulations.build", 0), "count"),
        "formulations.build.self_s": (self_s.get("formulations.build", 0.0), "s"),
        "formulations.tum.calls": (calls.get("formulations.tum", 0), "count"),
        "formulations.tum.self_s": (self_s.get("formulations.tum", 0.0), "s"),
        "games.restrict.calls": (calls.get("games.restrict", 0), "count"),
        "games.restrict.self_s": (self_s.get("games.restrict", 0.0), "s"),
        "analysis.calls": (calls.get("analysis", 0), "count"),
        "analysis.self_s": (self_s.get("analysis", 0.0), "s"),
        "analysis.dual_cache_hits": (dual_hits, "count"),
        "analysis.dual_cache_misses": (dual_misses, "count"),
        "instance_io.parse.calls": (calls.get("instance_io.parse", 0), "count"),
        "instance_io.parse.self_s": (self_s.get("instance_io.parse", 0.0), "s"),
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
    }


def _groups(module: str, func: str):
    """The metric groups one span of ``module.func`` counts toward."""
    if module in ("oracle", "analysis", "cli"):
        yield module
    if module == "lp" and func == "solve":
        yield "lp.solve"
    elif module == "formulations" and func in ("build_dual", "build_primal"):
        yield "formulations.build"
    elif module == "formulations" and func == "is_totally_unimodular":
        yield "formulations.tum"
    elif module == "games" and func == "restrict":
        yield "games.restrict"
    elif module == "instance_io" and func == "parse_instance_with_imputation":
        yield "instance_io.parse"
    elif module == "cli" and func == "main":
        yield "cli.main"

