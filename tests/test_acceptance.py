"""Acceptance criteria for the package, one test per criterion.

Each test prints a PASS/FAIL line with its runtime (visible under
``pytest -s``) and enforces the criterion's tolerance and time budget.
"""

import io
import itertools
import time

import numpy as np

from btdesign import (
    Design,
    Parameters,
    RegionKind,
    classify_m4,
    claw_infeasibility_sample,
    claw_infeasibility_scan,
    d_efficiency,
    information_matrix,
    kw_check,
    log_det,
    search_disjoint_four_point,
    solve,
)
from btdesign.cli import ScanAxis, ScanSpec, run_scan
from btdesign.core import all_pairs, intensity_vector
from btdesign.four_alt import saturated_inequality_values
from btdesign.graphs import Permutation, apply_to_params, enumerate_spanning_trees, is_path, q_matrix
from btdesign.regions import PathDesign, path_g_values

from helpers import (
    line_params,
    ordered_regression_vector,
    path_orders,
    random_design,
    random_params,
    sample_in_path_region,
)


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_uniform_optimality_at_origin():
    t0 = time.time()
    params = Parameters(4, (0.0, 0.0, 0.0))
    result = solve(params)
    label = classify_m4(params)
    err_solver = max(abs(result.design.weight(p) - 1.0 / 6.0) for p in all_pairs(4))
    err_formula = max(abs(label.design.weight(p) - 1.0 / 6.0) for p in all_pairs(4))
    ok = (
        err_solver <= 1e-8
        and err_formula <= 1e-8
        and kw_check(result.design, params).is_optimal
        and kw_check(label.design, params).is_optimal
    )
    _report(
        "criterion 1 (uniform at origin)",
        ok,
        time.time() - t0,
        1.0,
        f"solver err {err_solver:.2e}, formula err {err_formula:.2e}",
    )


def test_criterion_2_efficiency_curve_and_transitions():
    t0 = time.time()

    def kind_at(t: float) -> RegionKind:
        return classify_m4(line_params(t)).kind

    def bisect(lo: float, hi: float) -> float:
        lo_kind = kind_at(lo)
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            if kind_at(mid) == lo_kind:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    order = [
        RegionKind.FULL_SUPPORT,
        RegionKind.FIVE_POINT,
        RegionKind.FOUR_POINT_SHARED_VERTEX,
        RegionKind.SATURATED,
    ]
    grid = np.arange(0.5, 4.01, 0.05)
    kinds = [kind_at(t) for t in grid]
    assert [k for k, _ in itertools.groupby(kinds)] == order, "kind sequence along the line"
    changes = [
        float(bisect(grid[i], grid[i + 1]))
        for i in range(len(grid) - 1)
        if kinds[i] != kinds[i + 1]
    ]

    eff_origin = d_efficiency(Design.uniform(4), classify_m4(line_params(0.0)).design, line_params(0.0))
    p12 = line_params(12.0)
    eff_far = d_efficiency(Design.uniform(4), classify_m4(p12).design, p12)

    targets = (1.4, 2.1, 2.9)
    ok = (
        len(changes) == 3
        and all(abs(c - t) <= 0.1 for c, t in zip(changes, targets))
        and abs(eff_origin - 1.0) <= 1e-9
        and abs(eff_far - 0.5) <= 0.02
    )
    _report(
        "criterion 2 (efficiency curve)",
        ok,
        time.time() - t0,
        30.0,
        f"transitions {[round(c, 3) for c in changes]}, eff(0)={eff_origin:.9f}, eff(12)={eff_far:.4f}",
    )


def test_criterion_3_saturated_region_certification():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_violation = float("-inf")
    support_mismatches = 0
    for m in (3, 4, 5, 6):
        for _ in range(200):
            path, params = sample_in_path_region(rng, m)
            cert = kw_check(path.design(), params)
            worst_violation = max(worst_violation, cert.max_violation)
            result = solve(params)
            if set(result.design.support()) != set(path.edges()):
                support_mismatches += 1
    ok = worst_violation <= 1e-8 and support_mismatches == 0
    _report(
        "criterion 3 (saturated regions)",
        ok,
        time.time() - t0,
        120.0,
        f"800 points, worst violation {worst_violation:.2e}, support mismatches {support_mismatches}",
    )


def test_criterion_4_path_theorem_evidence():
    t0 = time.time()
    rng = np.random.default_rng(425)
    saturated_hits = 0
    for m in (4, 5, 6):
        tree_designs = [
            Design.equal_on(m, t.edges) for t in enumerate_spanning_trees(m) if not is_path(t)
        ]
        for _ in range(500):
            params = random_params(rng, m, scale=6.0)
            result = solve(params)
            support = result.design.support()
            if len(support) == m - 1:
                saturated_hits += 1
                from btdesign.graphs import SupportGraph

                assert is_path(SupportGraph(m, frozenset(support))), support
                for p in support:
                    assert abs(result.design.weight(p) - 1.0 / (m - 1)) <= 1e-6
            for tree_design in tree_designs:
                assert not kw_check(tree_design, params).is_optimal
    _report(
        "criterion 4 (path theorem evidence)",
        True,
        time.time() - t0,
        180.0,
        f"1500 points, {saturated_hits} saturated solutions, all paths; no non-path tree certified",
    )


def test_criterion_5_claw_emptiness():
    t0 = time.time()
    grid = claw_infeasibility_scan(points_per_axis=100, lower=1e-3, upper=1e3)
    sample = claw_infeasibility_sample(n_samples=100_000, seed=9, lower=1e-3, upper=1e3)
    ok = (
        grid.points_checked == 1_000_000
        and grid.feasible_count == 0
        and sample.feasible_count == 0
        and grid.max_min_slack < 0.0
    )
    _report(
        "criterion 5 (claw emptiness)",
        ok,
        time.time() - t0,
        60.0,
        f"grid max min slack {grid.max_min_slack:.2e}, feasible {grid.feasible_count}+{sample.feasible_count}",
    )


def test_criterion_6_closed_form_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    worst_violation = 0.0
    for _ in range(1000):
        params = random_params(rng, 4, scale=5.0)
        label = classify_m4(params)  # raises on any classification failure
        result = solve(params)
        gap = abs(
            log_det(information_matrix(label.design, params))
            - log_det(information_matrix(result.design, params))
        )
        worst_gap = max(worst_gap, gap)
        worst_violation = max(worst_violation, label.certificate.max_violation)
    ok = worst_gap <= 1e-7 and worst_violation <= 1e-7
    _report(
        "criterion 6 (closed form vs solver)",
        ok,
        time.time() - t0,
        300.0,
        f"1000 points, worst log-det gap {worst_gap:.2e}, worst violation {worst_violation:.2e}",
    )


def test_criterion_7_symmetry_suite():
    t0 = time.time()
    rng = np.random.default_rng(707)
    m = 4
    perms = [Permutation(images) for images in itertools.permutations(range(1, m + 1))]

    for s, t in itertools.product(perms, perms):
        np.testing.assert_array_equal(q_matrix(s.compose(t)), q_matrix(s) @ q_matrix(t))

    for s in perms:
        Q = q_matrix(s)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i != j:
                    assert np.array_equal(
                        ordered_regression_vector(s(i), s(j), m),
                        Q @ ordered_regression_vector(i, j, m),
                    )

    worst = 0.0
    from btdesign.graphs import apply_to_design

    for _ in range(20):
        params = random_params(rng, m, scale=4.0)
        design = random_design(rng, m)
        ld = log_det(information_matrix(design, params))
        for s in perms:
            ld_t = log_det(
                information_matrix(apply_to_design(s, design), apply_to_params(s, params))
            )
            worst = max(worst, abs(ld_t - ld))
    ok = worst <= 1e-10
    _report(
        "criterion 7 (symmetry suite)",
        ok,
        time.time() - t0,
        10.0,
        f"24 permutations, homomorphism + relation exact, log-det drift {worst:.2e}",
    )


def test_criterion_8_region_form_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(808)
    n = 10_000
    betas = rng.uniform(-6.0, 6.0, size=(n, 3))
    lam = intensity_vector(betas)
    disagreements = 0
    for path in map(PathDesign, path_orders(4)):
        v1, v2, v3 = saturated_inequality_values(path, lam.T)
        poly_inside = (v1 <= 0.0) & (v2 <= 0.0) & (v3 <= 0.0)
        g_inside = (path_g_values(path, lam) <= 1.0).all(axis=1)
        disagreements += int(np.count_nonzero(poly_inside != g_inside))
    ok = disagreements == 0
    _report(
        "criterion 8 (region-form equivalence)",
        ok,
        time.time() - t0,
        10.0,
        f"12 paths x {n} points, {disagreements} disagreements",
    )


def test_criterion_9_disjoint_orbit_search():
    t0 = time.time()
    report = search_disjoint_four_point(n_starts=100_000, seed=1234)
    ok = report.certified_count == 0 and report.interior_count > 0
    _report(
        "criterion 9 (disjoint-orbit search)",
        ok,
        time.time() - t0,
        300.0,
        f"{report.n_starts} starts, {report.interior_count} interior stationary points, "
        f"0 certified, best slack {report.best_slack:.4f}",
    )


def test_region_figure_scan_completes_and_respects_symmetry():
    # The qualitative region figures are reproduced as a data grid: the scan
    # must classify every point (no failures), and the partition must be
    # equivariant under the full relabeling group.
    t0 = time.time()
    spec = ScanSpec(
        m=4,
        axes=tuple(
            ScanAxis(direction=tuple(float(i == k) for k in range(3)), start=-4.0, stop=4.0, count=51)
            for i in range(3)
        ),
        fixed=(0.0, 0.0, 0.0),
    )
    sink = io.StringIO()
    n_rows = run_scan(spec, sink)  # the default worker count, as `btdesign scan` runs
    assert n_rows == 51**3
    lines = sink.getvalue().strip().splitlines()
    assert len(lines) == n_rows + 1  # header + one row per grid point

    # Relabelings that fix the control alternative permute the beta
    # coordinates, hence act on the cube grid by permuting indices: the kind
    # partition must be invariant under that action (rows are written in
    # lexicographic index order).
    import csv as _csv

    rows = list(_csv.DictReader(io.StringIO(sink.getvalue())))
    kind_by_index = {}
    for r, row in enumerate(rows):
        kind_by_index[(r // 51**2, (r // 51) % 51, r % 51)] = row["kind"]
    coordinate_perms = [Permutation((*images, 4)) for images in itertools.permutations((1, 2, 3))]
    for sigma in coordinate_perms:
        inv = sigma.inverse()
        for idx, kind in itertools.islice(kind_by_index.items(), 0, None, 97):
            moved = tuple(idx[inv(k) - 1] for k in (1, 2, 3))
            assert kind_by_index[moved] == kind, (idx, sigma.images)

    # Pointwise equivariance for all 24 group elements on a subsample.
    perms = [Permutation(images) for images in itertools.permutations(range(1, 5))]
    mismatches = 0
    for _, params in itertools.islice(spec.grid(), 0, None, 157):
        label = classify_m4(params)
        for sigma in perms:
            transported = classify_m4(apply_to_params(sigma, params))
            if transported.kind is not label.kind:
                mismatches += 1
    ok = mismatches == 0
    _report(
        "figure scan (51^3 grid)",
        ok,
        time.time() - t0,
        600.0,
        f"{n_rows} points classified, 0 failures, {mismatches} equivariance mismatches",
    )
