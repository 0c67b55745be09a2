"""Tests of the benchmark's own code: statistics, spans, output checks, failure counts.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from compare import verdict  # noqa: E402
from measure import Attempts, grid_digest, quantile  # noqa: E402
from spans import END, PARENT, START, Tracer, self_times  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(100))
    assert quantile(values, 0.9) == 89
    assert sum(v > quantile(values, 0.9) for v in values) == 10
    with pytest.raises(ValueError):
        quantile(list(range(99)), 0.9)
    assert quantile(list(range(99)), 0.9, min_beyond=0) == 89


def test_self_time_subtracts_merged_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["e", 8.0, 12.0, 0],  # overlaps d and outlives the root: only [9, 10] is new
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_tracer_records_nesting():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    outer_fn = tracer.wrap("outer", lambda x: traced_inner(x) * 2)
    traced_inner = tracer.wrap("inner", inner, observe=lambda r: r)
    assert outer_fn(1) == 4
    (outer, inner_span) = tracer.spans
    assert inner_span[PARENT] == 0 and outer[PARENT] == -1
    assert outer[START] < inner_span[START] < inner_span[END] < outer[END]
    assert tracer.results["inner"] == [2]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import btdesign
    from btdesign import core, optimality, solver

    originals = (core.cholesky_pivots, optimality.cholesky_pivots, solver.cholesky_pivots, btdesign.kw_check)
    tracer = Tracer()
    tracer.install("btdesign", {"optimality.kw_check": lambda cert: cert.is_optimal})
    try:
        assert all(getattr(fn, "__wrapped__", None) is not None
                   for fn in (core.cholesky_pivots, optimality.cholesky_pivots, solver.cholesky_pivots))
        params = btdesign.Parameters(4, (0.5, 0.25, -0.5))
        btdesign.kw_check(btdesign.Design.uniform(4), params)
    finally:
        tracer.uninstall()
    assert (core.cholesky_pivots, optimality.cholesky_pivots, solver.cholesky_pivots, btdesign.kw_check) == originals
    names = [span[0] for span in tracer.spans]
    kw = names.index("optimality.kw_check")
    chol = names.index("core.cholesky_pivots")
    assert tracer.spans[chol][PARENT] == kw and len(tracer.results["optimality.kw_check"]) == 1


def test_digest_check_catches_one_flipped_kind():
    header = "beta1,beta2,beta3,kind,support_size,margin\n"
    rows = ["0,0,0,full-support,6,-0.1\n", "1,0,0,five-point,5,-0.01\n", "2,0,0,saturated,3,-0.2\n"]
    text = header + "".join(rows)
    flipped = header + rows[0] + "1,0,0,four-point-shared-vertex,5,-0.01\n" + rows[2]
    assert grid_digest(text) != grid_digest(flipped)

    workload = run.M4Classify(seed=0)
    workload.expected_digest = grid_digest(text)
    workload.check_grid(text, 3, 3)
    assert workload.problems == []
    fresh = run.M4Classify(seed=0)
    fresh.expected_digest = grid_digest(text)
    fresh.check_grid(flipped, 3, 3)
    assert len(fresh.problems) == 1 and "digest" in fresh.problems[0]


def test_raising_wrapped_call_counts_as_failed():
    tracer = Tracer()

    def boom():
        raise RuntimeError("no certificate")

    attempts = Attempts()
    assert attempts.call(tracer.wrap("layer.boom", boom)) is None
    assert attempts.call(lambda: 3, ok=lambda r: r == 3) == 3
    assert attempts.call(lambda: 2, ok=lambda r: r == 3) is None
    assert (attempts.attempted, attempts.failed) == (3, 2)
    assert attempts.error_rate == pytest.approx(2 / 3)
    assert tracer.spans[0][END] >= tracer.spans[0][START]  # the span closed despite the raise


def test_labeled_trees_match_the_program():
    from btdesign.graphs import enumerate_spanning_trees, is_path

    for m in (4, 5):
        ours = {edges for edges in run.labeled_trees(m)}
        theirs = {tuple(sorted((p.i, p.j) for p in t.edges)) for t in enumerate_spanning_trees(m)}
        assert ours == theirs and len(ours) == m ** (m - 2)
        paths = {tuple(sorted((p.i, p.j) for p in t.edges)) for t in enumerate_spanning_trees(m) if is_path(t)}
        assert {e for e in ours if run.is_path_tree(e)} == paths


def test_path_region_sampler_lands_inside_the_programs_region():
    from btdesign import Parameters
    from btdesign.regions import PathDesign, region_membership

    rng = np.random.default_rng(5)
    for m in (5, 6):
        order, beta = run.sample_in_path_region(rng, m)
        assert order[0] < order[-1]
        assert region_membership(PathDesign(order), Parameters(m, tuple(beta))).inside


def test_halton_points_cover_the_cube():
    u = run.halton(512, 3, np.random.default_rng(1))
    assert u.shape == (512, 3) and u.min() >= 0.0 and u.max() < 1.0
    counts = np.histogram(u[:, 2], bins=8, range=(0, 1))[0]
    assert counts.min() >= 56  # a shifted low-discrepancy set fills each eighth evenly


def test_verdict_rules():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.0]
    faster = [b * 1.5 for b in base]
    assert verdict(base, faster, "higher", 0.1) == (10, "improved")
    assert verdict(base, [b * 1.02 for b in base], "higher", 0.1)[1] == "no worse"
    assert verdict(base, [b * 0.8 for b in base], "higher", 0.1) == (0, "worse")
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert verdict(noisy, [b * 0.95 for b in noisy], "higher", 0.1)[1] == "unresolved"
    assert verdict(base, [b * 0.5 for b in base], "lower", 0.1) == (10, "improved")
    assert verdict(base[:2], faster[:2], "higher", 0.1) == (2, "no worse")  # too few pairs to claim a gain
