"""Closed-form m=4 designs: weight formulas, regions, classifier, scans."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from btdesign import (
    Design,
    Pair,
    Parameters,
    RegionKind,
    classify_m4,
    claw_infeasibility_sample,
    claw_infeasibility_scan,
    disjoint_four_point_residuals,
    five_point_weights,
    four_point_shared_vertex_weights,
    full_support_weights,
    kw_check,
    information_matrix,
    log_det,
    region_margin,
    saturated_region_check_m4,
    search_disjoint_four_point,
    solve,
)
from btdesign.core import all_pairs, intensity_vector
from btdesign.four_alt import (
    _PAIRS4,
    five_point_raw,
    four_point_shared_raw,
    full_support_raw,
    shared_vertex_patterns,
)
from btdesign.graphs import Permutation, apply_to_params
from btdesign.regions import PathDesign

from helpers import geometric_params, line_params, path_orders, random_params


def random_lambda_tables(rng: np.random.Generator, n: int) -> list:
    """Free intensity columns in all_pairs(4) order, for vectorized identity checks."""
    return [rng.uniform(1e-3, 0.25, n) for _ in _PAIRS4]


def lambda_tables_from_betas(rng: np.random.Generator, n: int, scale: float = 5.0) -> list:
    betas = rng.uniform(-scale, scale, size=(n, 3))
    return list(intensity_vector(betas).T)


class TestSaturatedInequalities:
    def test_origin_outside_all_paths(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        assert all(not saturated_region_check_m4(p, PathDesign(order)) for order in path_orders(4))

    def test_geometric_point_inside_relabeled_path(self):
        # pi_i = 20^i makes the canonical order optimal.
        assert saturated_region_check_m4(geometric_params(4, 20.0), PathDesign.canonical(4))

    def test_agrees_with_g_form(self):
        from btdesign import region_membership

        rng = np.random.default_rng(101)
        for _ in range(500):
            p = random_params(rng, 4, scale=6.0)
            for path in map(PathDesign, path_orders(4)):
                assert saturated_region_check_m4(p, path) == region_membership(path, p).inside


class TestFullSupport:
    def test_origin_gives_uniform(self):
        d = full_support_weights(Parameters(4, (0.0, 0.0, 0.0)))
        assert d is not None
        for p in all_pairs(4):
            assert d.weight(p) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_weights_sum_to_one_identically(self):
        # The normalizer is transcribed separately from the numerators, so
        # the unit sum is a real double-entry check of both.
        rng = np.random.default_rng(103)
        for table in (random_lambda_tables(rng, 10_000), lambda_tables_from_betas(rng, 10_000)):
            raw = full_support_raw(table)
            total = sum(raw)
            np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_small_perturbation_certifies_and_matches_solver(self):
        p = Parameters(4, (0.1, -0.05, 0.02))
        d = full_support_weights(p)
        assert d is not None
        assert all(0.0 < w < 1.0 / 3.0 for w in d.weights.values())
        assert kw_check(d, p).max_violation <= 1e-12
        result = solve(p)
        for pair in all_pairs(4):
            assert d.weight(pair) == pytest.approx(result.design.weight(pair), abs=1e-7)

    def test_line_point_outside_six_point_region(self):
        assert full_support_weights(line_params(2.5)) is None

    def test_requires_m4(self):
        with pytest.raises(ValueError):
            full_support_weights(Parameters(3, (0.0, 0.0)))


class TestFivePoint:
    def test_origin_is_out_of_region(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        for missing in all_pairs(4):
            assert five_point_weights(p, missing) is None

    def test_origin_raw_solution(self):
        # The stationarity system still has a positive solution at the
        # origin; only the missing-direction condition fails.
        table = intensity_vector(Parameters(4, (0.0, 0.0, 0.0)).beta).tolist()
        raw, slack = five_point_raw(table)
        # Weights of (1,3), (1,4), (2,3), (2,4), (3,4).
        expected = (2.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 1.0 / 9.0)
        for got, w in zip(raw, expected, strict=True):
            assert got == pytest.approx(w, rel=1e-12)
        assert slack < 0.0

    def test_weights_sum_to_one_identically(self):
        rng = np.random.default_rng(107)
        table = lambda_tables_from_betas(rng, 10_000)
        raw, _ = five_point_raw(table)
        np.testing.assert_allclose(sum(raw), 1.0, atol=1e-8)

    def test_line_point_matches_solver(self):
        p = line_params(1.7)
        d = five_point_weights(p, Pair(3, 4))
        assert d is not None
        assert d.weight(Pair(3, 4)) == 0.0
        assert kw_check(d, p).max_violation <= 1e-10
        result = solve(p)
        for pair in all_pairs(4):
            assert d.weight(pair) == pytest.approx(result.design.weight(pair), abs=1e-6)

    def test_only_one_missing_pair_certifies_on_the_line(self):
        p = line_params(1.7)
        in_region = [missing for missing in all_pairs(4) if five_point_weights(p, missing) is not None]
        assert in_region == [Pair(3, 4)]

    def test_transport_consistency(self):
        # All four relabelings onto the representative give the same design.
        rng = np.random.default_rng(109)
        p = line_params(1.7)
        missing = Pair(3, 4)
        taus = []
        for a, b in ((3, 4), (4, 3)):
            others = [1, 2]
            for c, dd in (others, others[::-1]):
                taus.append({1: a, 2: b, 3: c, 4: dd})
        designs = [five_point_weights(p, missing, tau=t) for t in taus]
        assert all(d is not None for d in designs)
        for d in designs[1:]:
            for pair in all_pairs(4):
                assert d.weight(pair) == pytest.approx(designs[0].weight(pair), abs=1e-12)

    def test_rejects_mismatched_relabeling(self):
        with pytest.raises(ValueError):
            five_point_weights(line_params(1.7), Pair(3, 4), tau={1: 1, 2: 2, 3: 3, 4: 4})


class TestFourPointSharedVertex:
    def test_line_point_certifies(self):
        p = line_params(2.5)
        label = classify_m4(p)
        assert label.kind is RegionKind.FOUR_POINT_SHARED_VERTEX
        d = four_point_shared_vertex_weights(p, *label.missing_pairs)
        assert d is not None
        assert kw_check(d, p).max_violation <= 1e-10

    def test_shared_vertex_opposite_edge_weight_is_third(self):
        # The supported pair joining the shared vertex to the untouched
        # vertex always carries exactly 1/3.
        p = line_params(2.5)
        label = classify_m4(p)
        (m1, m2) = label.missing_pairs
        (shared,) = set((m1.i, m1.j)) & set((m2.i, m2.j))
        untouched = ({1, 2, 3, 4} - {m1.i, m1.j, m2.i, m2.j}).pop()
        assert label.design.weight(Pair(shared, untouched)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_oracle_agreement_in_region(self):
        rng = np.random.default_rng(113)
        checked = 0
        while checked < 50:
            t = rng.uniform(2.2, 2.8)
            jitter = rng.uniform(-0.25, 0.25, 3)
            p = Parameters(4, (t + jitter[0], t / 2 + jitter[1], 5 * t / 4 + jitter[2]))
            label = classify_m4(p)
            if label.kind is not RegionKind.FOUR_POINT_SHARED_VERTEX:
                continue
            result = solve(p)
            for pair in all_pairs(4):
                assert label.design.weight(pair) == pytest.approx(result.design.weight(pair), abs=1e-6)
            checked += 1

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(127)
        table = lambda_tables_from_betas(rng, 10_000)
        raw, _, _ = four_point_shared_raw(table)
        np.testing.assert_allclose(sum(raw), 1.0, atol=1e-10)

    def test_fraction_intensities_give_exact_weights(self):
        # lambda_ij = pi_i pi_j / (pi_i + pi_j)^2 is rational at rational pi.
        pi = (Fraction(3, 2), Fraction(1, 3), Fraction(5), Fraction(1))
        lam = [pi[p.i - 1] * pi[p.j - 1] / (pi[p.i - 1] + pi[p.j - 1]) ** 2 for p in _PAIRS4]
        raw, slack12, slack13 = four_point_shared_raw(lam)
        assert all(type(x) is Fraction for x in (*raw, slack12, slack13))
        assert sum(raw) == 1 and raw[0] == Fraction(1, 3)

    def test_transport_consistency(self):
        p = line_params(2.5)
        label = classify_m4(p)
        m1, m2 = label.missing_pairs
        (shared,) = set((m1.i, m1.j)) & set((m2.i, m2.j))
        b1 = m1.j if m1.i == shared else m1.i
        c1 = m2.j if m2.i == shared else m2.i
        (rest,) = {1, 2, 3, 4} - {shared, b1, c1}
        tau_a = {1: shared, 2: b1, 3: c1, 4: rest}
        tau_b = {1: shared, 2: c1, 3: b1, 4: rest}
        da = four_point_shared_vertex_weights(p, m1, m2, tau=tau_a)
        db = four_point_shared_vertex_weights(p, m2, m1, tau=tau_b)
        for pair in all_pairs(4):
            assert da.weight(pair) == pytest.approx(db.weight(pair), abs=1e-12)

    def test_disjoint_missing_pairs_rejected(self):
        with pytest.raises(ValueError):
            four_point_shared_vertex_weights(line_params(2.5), Pair(1, 2), Pair(3, 4))

    def test_pattern_count(self):
        assert len(shared_vertex_patterns()) == 12


class TestClaw:
    def test_equal_preferences_violate_first_inequality(self):
        # At pi = (1,1,1) the first inequality asks 4 <= 0.
        from btdesign.four_alt import _claw_min_slack

        s = _claw_min_slack(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert s[0] == -4.0

    def test_grid_scan_finds_nothing(self):
        report = claw_infeasibility_scan(points_per_axis=50)
        assert report.points_checked == 50**3
        assert report.feasible_count == 0
        assert report.max_min_slack < 0.0

    def test_random_scan_finds_nothing(self):
        report = claw_infeasibility_sample(n_samples=10_000, seed=3)
        assert report.feasible_count == 0

    def test_claw_design_never_certifies(self):
        rng = np.random.default_rng(131)
        claw = Design.equal_on(4, [Pair(1, 2), Pair(1, 3), Pair(1, 4)])
        for _ in range(100):
            assert not kw_check(claw, random_params(rng, 4, scale=6.0)).is_optimal


class TestDisjointFourPoint:
    def test_equal_case_satisfies_equations_but_not_inequalities(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        d = Design.equal_on(4, [Pair(1, 3), Pair(1, 4), Pair(2, 3), Pair(2, 4)])
        report = disjoint_four_point_residuals(p, d)
        assert all(abs(r) < 1e-15 for r in report.residuals)
        # Both scaled derivative expressions evaluate to 4, exceeding 3.
        assert report.slack1 == pytest.approx(-1.0, abs=1e-12)
        assert report.slack2 == pytest.approx(-1.0, abs=1e-12)

    def test_third_weight_saturation_forces_zero(self):
        # t(w) = lambda w (w - 1/3) vanishes only at w = 0 and w = 1/3, and
        # is strictly negative between them, so equalized t with one weight
        # at 1/3 forces every other weight to 0 or 1/3.
        w = np.linspace(1e-9, 1.0 / 3.0 - 1e-9, 10_000)
        t = 0.2 * w * (w - 1.0 / 3.0)
        assert t.max() < 0.0
        assert 0.2 * (1.0 / 3.0) * (1.0 / 3.0 - 1.0 / 3.0) == 0.0

    def test_rejects_shared_vertex_design(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        d = Design.equal_on(4, [Pair(1, 4), Pair(2, 3), Pair(2, 4), Pair(3, 4)])
        with pytest.raises(ValueError):
            disjoint_four_point_residuals(p, d)

    def test_search_finds_no_certified_solution(self):
        report = search_disjoint_four_point(n_starts=3000, seed=11)
        assert report.certified_count == 0
        assert report.interior_count > 0
        assert report.best_slack < 0.0


class TestClassify:
    def test_origin(self):
        label = classify_m4(Parameters(4, (0.0, 0.0, 0.0)))
        assert label.kind is RegionKind.FULL_SUPPORT
        for p in all_pairs(4):
            assert label.design.weight(p) == pytest.approx(1.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize(
        "t,kind",
        [
            (1.0, RegionKind.FULL_SUPPORT),
            (1.7, RegionKind.FIVE_POINT),
            (2.5, RegionKind.FOUR_POINT_SHARED_VERTEX),
            (3.5, RegionKind.SATURATED),
        ],
    )
    def test_line_kinds(self, t, kind):
        assert classify_m4(line_params(t)).kind is kind

    def test_certificates_attached(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            label = classify_m4(random_params(rng, 4, scale=5.0))
            assert label.certificate.is_optimal
            assert label.certificate.max_violation <= 1e-7

    def test_symmetry_equivariance(self):
        rng = np.random.default_rng(139)
        for _ in range(100):
            p = random_params(rng, 4, scale=4.0)
            label = classify_m4(p)
            for images in itertools.permutations(range(1, 5)):
                sigma = Permutation(images)
                transported = classify_m4(apply_to_params(sigma, p))
                assert transported.kind is label.kind
                assert set(transported.missing_pairs) == {sigma.pair(q) for q in label.missing_pairs}
                if label.path is not None:
                    assert transported.path == PathDesign(tuple(sigma(v) for v in label.path.order))

    def test_deterministic(self):
        p = line_params(2.5)
        a, b = classify_m4(p), classify_m4(p)
        assert a.kind is b.kind and a.design.weights == b.design.weights

    def test_margin_sign(self):
        rng = np.random.default_rng(149)
        for _ in range(40):
            label = classify_m4(random_params(rng, 4, scale=5.0))
            assert region_margin(label) <= 1e-7

    def test_agrees_with_public_wrappers(self):
        p = line_params(1.7)
        label = classify_m4(p)
        assert label.kind is RegionKind.FIVE_POINT
        again = five_point_weights(p, label.missing_pairs[0])
        for pair in all_pairs(4):
            assert again.weight(pair) == label.design.weight(pair)

    def test_requires_m4(self):
        with pytest.raises(ValueError):
            classify_m4(Parameters(5, (0.0, 0.0, 0.0, 0.0)))

    def test_extreme_ties_certify_at_conditioning_floor(self):
        # Ties between huge preferences leave a tiny eigenvalue in the
        # optimal information matrix, so certificates there carry a
        # conditioning-scaled tolerance instead of the strict default.
        label = classify_m4(Parameters(4, (25.0, 25.0, 25.0)))
        assert label.kind is RegionKind.FULL_SUPPORT
        assert label.certificate.is_optimal
        assert label.certificate.max_violation <= label.certificate.tolerance
        expected = {Pair(1, 2): 2 / 9, Pair(1, 3): 2 / 9, Pair(2, 3): 2 / 9}
        for pair, w in expected.items():
            assert label.design.weight(pair) == pytest.approx(w, rel=1e-5)

    def test_beyond_certifiable_range_raises(self):
        from btdesign import ClassificationError

        with pytest.raises(ClassificationError):
            classify_m4(Parameters(4, (40.0, 40.0, 40.0)))

    def test_no_failures_near_region_boundaries(self):
        # Straddle each kind transition on the line at 1e-9 resolution: a
        # label must come back certified on both sides and at the midpoint.
        def kind_at(t):
            return classify_m4(line_params(t)).kind

        for lo, hi in ((1.0, 1.7), (1.7, 2.5), (2.5, 3.5)):
            lo_kind = kind_at(lo)
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                if kind_at(mid) == lo_kind:
                    lo = mid
                else:
                    hi = mid
            for t in (lo, 0.5 * (lo + hi), hi):
                label = classify_m4(line_params(t))
                assert label.certificate.max_violation <= 1e-7

    def test_classified_design_is_global_optimum(self):
        rng = np.random.default_rng(151)
        for _ in range(25):
            p = random_params(rng, 4, scale=5.0)
            label = classify_m4(p)
            result = solve(p)
            ld_label = log_det(information_matrix(label.design, p))
            ld_solve = log_det(information_matrix(result.design, p))
            assert abs(ld_label - ld_solve) <= 1e-7
