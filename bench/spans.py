"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the layer modules from the
outside: each call becomes a span (name, start, end, parent span) appended
to an in-memory list, and per-layer metrics are computed from that list once
the run ends.  A function can be bound under several module names (``from
.core import cholesky_pivots`` gives ``optimality`` and ``solver`` their own
binding), so every binding of a wrapped function is replaced, including the
package namespace.  Cached lookups (``functools.lru_cache`` objects such as
``all_pairs``) are not plain functions and stay unwrapped; their cost lands
in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

from measure import quantile

LAYERS = ("core", "optimality", "graphs", "regions", "four_alt", "solver", "cli")

# Spans are lists [name, start, end, parent_index]; parent -1 is the root.
NAME, START, END, PARENT = range(4)


class Tracer:
    """Records one span per wrapped call; observers see selected results."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.results: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[ModuleType, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        results = self.results[name] if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if results is not None:
                results.append(observe(return_value))
            return return_value

        return traced

    def install(self, package: str, observers: dict[str, Callable] | None = None) -> None:
        """Wrap every binding of the layer modules' public functions.

        ``observers`` maps a span name such as ``"solver.solve"`` to a
        function that summarizes the call's result; the summaries are kept
        in ``results``.
        """
        observers = observers or {}
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self.wrap(name, fn, observers.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never counts a moment twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, kw_tolerance: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans and observed results.

    Ratios whose base is zero (a layer the workload never reaches) read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    in_solve = [False] * len(spans)
    chol_in_solve = 0
    for idx, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        total[name] += span[END] - span[START]
        own[name] += selfs[idx]
        layer_self[name.split(".", 1)[0]] += selfs[idx]
        parent = span[PARENT]
        in_solve[idx] = name == "solver.solve" or (parent >= 0 and in_solve[parent])
        if name == "core.cholesky_pivots" and in_solve[idx]:
            chol_in_solve += 1

    intensity = ("core.intensity", "core.intensity_array", "core.intensity_vector", "core.intensity_table")
    candidates = ("four_alt.full_support_raw", "four_alt.five_point_raw",
                  "four_alt.four_point_shared_raw", "four_alt.saturated_inequality_values")
    labels = tracer.results["four_alt.classify_m4"]
    kw = tracer.results["optimality.kw_check"]
    found = tracer.results["regions.find_optimal_saturated"]
    solves = sorted(tracer.results["solver.solve"])
    iterations = [it for it, _ in solves]
    n_candidates = sum(calls[n] for n in candidates)

    out: dict[str, tuple[float, str]] = {
        "core.chol_calls": (calls["core.cholesky_pivots"], "count"),
        "core.chol_s": (own["core.cholesky_pivots"], "s"),
        "core.intensity_calls": (sum(calls[n] for n in intensity), "count"),
        "core.intensity_s": (sum(own[n] for n in intensity), "s"),
        "core.info_matrix_s": (own["core.information_matrix"], "s"),
        "core.log_det_s": (own["core.log_det"], "s"),
        "optimality.kw_calls": (calls["optimality.kw_check"], "count"),
        "optimality.kw_self_s": (own["optimality.kw_check"], "s"),
        "optimality.kw_us_per_call": (1e6 * _ratio(total["optimality.kw_check"], calls["optimality.kw_check"]), "us"),
        "optimality.kw_pass_ratio": (_ratio(sum(kw), len(kw)), "ratio"),
        "four_alt.candidates": (n_candidates, "count"),
        "four_alt.hit_ratio": (_ratio(len(labels), n_candidates), "ratio"),
        "four_alt.self_s": (layer_self["four_alt"], "s"),
    }
    for kind in ("full-support", "five-point", "four-point-shared-vertex", "saturated"):
        out[f"four_alt.kind.{kind}"] = (sum(1 for k, _ in labels if k == kind), "count")
    out["four_alt.widened"] = (sum(1 for _, tol in labels if tol > kw_tolerance), "count")
    out.update({
        "regions.membership_calls": (calls["regions.region_membership"], "count"),
        "regions.us_per_path": (1e6 * _ratio(total["regions.find_optimal_saturated"], calls["regions.region_membership"]), "us"),
        "regions.self_s": (layer_self["regions"], "s"),
        "regions.hit_ratio": (_ratio(sum(found), len(found)), "ratio"),
        "graphs.path_orders_s": (total["graphs.path_vertex_orders"], "s"),
        "graphs.tree_checks": (calls["graphs.is_tree"], "count"),
        "graphs.self_s": (layer_self["graphs"], "s"),
        "solver.calls": (len(solves), "count"),
        "solver.iterations": (sum(iterations), "count"),
        "solver.iterations_p90": (quantile(iterations, 0.9, min_beyond=0) if iterations else 0, "count"),
        "solver.iterations_max": (max(iterations, default=0), "count"),
        "solver.self_s": (layer_self["solver"], "s"),
        "solver.us_per_iteration": (1e6 * _ratio(total["solver.solve"], sum(iterations)), "us"),
        "solver.chol_per_iteration": (_ratio(chol_in_solve, sum(iterations)), "ratio"),
        "solver.nonconverged": (sum(1 for _, ok in solves if not ok), "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "trace.spans": (len(spans), "count"),
    })
    return out


OBSERVERS = {
    "four_alt.classify_m4": lambda label: (label.kind.value, label.certificate.tolerance),
    "optimality.kw_check": lambda cert: cert.is_optimal,
    "regions.find_optimal_saturated": lambda found: found is not None,
    "solver.solve": lambda result: (result.iterations, result.converged),
}
