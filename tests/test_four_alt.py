"""Closed-form m=4 designs: weight formulas, regions, classifier, scans."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    search_disjoint_four_point,
    solve,
)
from btdesign.core import all_pairs, intensity_vector
from btdesign.four_alt import (
    _COLUMNS,
    _PAIRS4,
    five_point_raw,
    four_point_shared_raw,
    full_support_raw,
    saturated_inequality_values,
)
from btdesign.graphs import Permutation, apply_to_params
from btdesign.optimality import KW_TOLERANCE
from btdesign.regions import PathDesign

from helpers import (
    classify_by_pattern_search,
    geometric_params,
    line_params,
    path_orders,
    random_params,
    shared_vertex_patterns,
    tied_m4_points,
    uniform_m4_points,
)


def random_lambda_tables(rng: np.random.Generator, n: int) -> list:
    """Free intensity columns in all_pairs(4) order, for vectorized identity checks."""
    return [rng.uniform(1e-3, 0.25, n) for _ in _PAIRS4]


def lambda_tables_from_betas(rng: np.random.Generator, n: int, scale: float = 5.0) -> list:
    betas = rng.uniform(-scale, scale, size=(n, 3))
    return list(intensity_vector(betas).T)


def relabeled_raw(raw_formula, lam: list, tau: tuple[int, ...], first: int) -> tuple[dict, tuple]:
    """A representative's raw formula on the intensities relabeled by tau.

    Returns its weights, the numerators over their sum, keyed by the pairs
    they belong to (the reference pairs from _PAIRS4[first] on, carried by
    tau) and its slacks.
    """
    columns = _COLUMNS[tau]
    numerators, slacks = raw_formula([lam[c] for c in columns])
    total = sum(numerators)
    return {_PAIRS4[c]: n / total for c, n in zip(columns[first:], numerators)}, slacks


def full_normalizer(lam: list):
    """The full-support denominator, transcribed apart from the numerators (reference labels)."""
    lij, lik, lil, ljk, ljl, lkl = lam
    return 3 * (
        lij * lik**2 * lil**2 * ljk**2 * ljl**2
        + lij * lik * lil**2 * ljk * ljl**2 * lkl**2
        - lij * lik * lil**2 * ljk**2 * ljl * lkl**2
        - lij**2 * lik * lil**2 * ljk * ljl * lkl**2
        - lij * lik * lil**2 * ljk**2 * ljl**2 * lkl
        - lij * lik**2 * lil**2 * ljk * ljl**2 * lkl
        - lij * lik**2 * lil**2 * ljk**2 * ljl * lkl
        - lij**2 * lik * lil**2 * ljk**2 * ljl * lkl
        + lij**2 * lik**2 * lil**2 * ljk * ljl * lkl
        - lij * lik**2 * lil * ljk * ljl**2 * lkl**2
        - lij**2 * lik * lil * ljk * ljl**2 * lkl**2
        + lij * lik**2 * lil * ljk**2 * ljl * lkl**2
        - lij**2 * lik * lil * ljk**2 * ljl * lkl**2
        - lij**2 * lik**2 * lil * ljk * ljl * lkl**2
        - lij * lik**2 * lil * ljk**2 * ljl**2 * lkl
        + lij**2 * lik * lil * ljk**2 * ljl**2 * lkl
        - lij**2 * lik**2 * lil * ljk * ljl**2 * lkl
        + lij**2 * lik * lil**2 * ljk**2 * lkl**2
        + lij**2 * lik**2 * lil * ljl**2 * lkl**2
        + lij**2 * lik**2 * ljk * ljl**2 * lkl**2
        + lij**2 * lil**2 * ljk**2 * ljl * lkl**2
        + lik**2 * lil**2 * ljk**2 * ljl**2 * lkl
    )


def five_point_denominator(lam: list):
    """3 d1 d2 of the five-point representative missing (1,2)."""
    l12, l13, l14, l23, l24, l34 = lam
    d1 = l13**2 * (l14 - l34) ** 2 - 2 * l13 * l14 * l34 * (l14 + l34) + l14**2 * l34**2
    d2 = l23**2 * (l24 - l34) ** 2 - 2 * l23 * l24 * l34 * (l24 + l34) + l24**2 * l34**2
    return 3 * d1 * d2


def four_point_denominator(lam: list):
    """3 d of the four-point representative missing (1,2) and (1,3)."""
    l12, l13, l14, l23, l24, l34 = lam
    return 3 * (
        l23**2 * l24**2 + l23**2 * l34**2 + l24**2 * l34**2
        - 2 * l23**2 * l24 * l34 - 2 * l23 * l24**2 * l34 - 2 * l23 * l24 * l34**2
    )


def fraction_tables(n: int) -> list:
    """Exact intensity tables lambda_ij = pi_i pi_j / (pi_i + pi_j)^2 at random rational pi."""
    rng = np.random.default_rng(163)
    tables = []
    for _ in range(n):
        pi = [Fraction(int(a), int(b)) for a, b in rng.integers(1, 60, size=(4, 2))]
        tables.append([pi[p.i - 1] * pi[p.j - 1] / (pi[p.i - 1] + pi[p.j - 1]) ** 2 for p in _PAIRS4])
    return tables


def in_saturated_region(params: Parameters, path: PathDesign) -> bool:
    lam = intensity_vector(params.beta).tolist()
    return all(v <= 0.0 for v in saturated_inequality_values(path, lam))


class TestSaturatedInequalities:
    def test_origin_outside_all_paths(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        assert all(not in_saturated_region(p, PathDesign(order)) for order in path_orders(4))

    def test_geometric_point_inside_relabeled_path(self):
        # pi_i = 20^i makes the canonical order optimal.
        assert in_saturated_region(geometric_params(4, 20.0), PathDesign.canonical(4))

    def test_agrees_with_g_form(self):
        from btdesign import region_membership

        rng = np.random.default_rng(101)
        for _ in range(500):
            p = random_params(rng, 4, scale=6.0)
            for path in map(PathDesign, path_orders(4)):
                assert in_saturated_region(p, path) == region_membership(path, p).inside


class TestFullSupport:
    def test_origin_gives_uniform(self):
        d = full_support_weights(Parameters(4, (0.0, 0.0, 0.0)))
        assert d is not None
        for p in all_pairs(4):
            assert d.weight(p) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_weights_sum_to_one_identically(self):
        # The normalizer is transcribed separately from the numerators, so
        # the identity is a real double-entry check of both.
        rng = np.random.default_rng(103)
        for table in (random_lambda_tables(rng, 10_000), lambda_tables_from_betas(rng, 10_000)):
            numerators, slacks = full_support_raw(table)
            assert slacks == ()
            np.testing.assert_allclose(sum(numerators) / full_normalizer(table), 1.0, atol=1e-9)
        for table in fraction_tables(50):
            assert sum(full_support_raw(table)[0]) == full_normalizer(table)

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
        numerators, (slack,) = five_point_raw(table)
        # Weights of (1,3), (1,4), (2,3), (2,4), (3,4).
        expected = (2.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, 1.0 / 9.0)
        for got, w in zip(numerators, expected, strict=True):
            assert got / sum(numerators) == pytest.approx(w, rel=1e-12)
        assert slack < 0.0

    def test_weights_sum_to_one_identically(self):
        rng = np.random.default_rng(107)
        table = lambda_tables_from_betas(rng, 10_000)
        numerators, _ = five_point_raw(table)
        np.testing.assert_allclose(sum(numerators) / five_point_denominator(table), 1.0, atol=1e-8)
        for table in fraction_tables(50):
            assert sum(five_point_raw(table)[0]) == five_point_denominator(table)

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
        # All four relabelings sending the missing pair (3,4) onto the
        # representative's (1,2) give the same in-region weights.
        lam = intensity_vector(line_params(1.7).beta).tolist()
        taus = [(a, b, c, d) for a, b in ((3, 4), (4, 3)) for c, d in ((1, 2), (2, 1))]
        results = [relabeled_raw(five_point_raw, lam, tau, 1) for tau in taus]
        for weights, (slack,) in results:
            assert all(w > 0.0 for w in weights.values()) and slack >= 0.0
        reference = results[0][0]
        for weights, _ in results[1:]:
            assert weights.keys() == reference.keys()
            for pair, w in weights.items():
                assert w == pytest.approx(reference[pair], abs=1e-12)


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
        numerators, _ = four_point_shared_raw(table)
        np.testing.assert_allclose(sum(numerators) / four_point_denominator(table), 1.0, atol=1e-10)
        for table in fraction_tables(50):
            assert sum(four_point_shared_raw(table)[0]) == four_point_denominator(table)

    def test_fraction_intensities_give_exact_weights(self):
        # lambda_ij = pi_i pi_j / (pi_i + pi_j)^2 is rational at rational pi.
        pi = (Fraction(3, 2), Fraction(1, 3), Fraction(5), Fraction(1))
        lam = [pi[p.i - 1] * pi[p.j - 1] / (pi[p.i - 1] + pi[p.j - 1]) ** 2 for p in _PAIRS4]
        numerators, (slack12, slack13) = four_point_shared_raw(lam)
        assert all(type(x) is Fraction for x in (*numerators, slack12, slack13))
        assert numerators[0] / sum(numerators) == Fraction(1, 3)

    def test_transport_consistency(self):
        # Both relabelings sending the missing pairs onto (1,2), (1,3) give
        # the same in-region weights.
        p = line_params(2.5)
        label = classify_m4(p)
        m1, m2 = label.missing_pairs
        (shared,) = set((m1.i, m1.j)) & set((m2.i, m2.j))
        b1 = m1.j if m1.i == shared else m1.i
        c1 = m2.j if m2.i == shared else m2.i
        (rest,) = {1, 2, 3, 4} - {shared, b1, c1}
        lam = intensity_vector(p.beta).tolist()
        wa, slacks_a = relabeled_raw(four_point_shared_raw, lam, (shared, b1, c1, rest), 2)
        wb, slacks_b = relabeled_raw(four_point_shared_raw, lam, (shared, c1, b1, rest), 2)
        assert all(w > 0.0 for w in wa.values()) and min(*slacks_a, *slacks_b) >= 0.0
        assert wa.keys() == wb.keys()
        for pair, w in wa.items():
            assert w == pytest.approx(wb[pair], abs=1e-12)

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

    def test_symmetric_points_certify_at_strict_tolerance(self):
        # The float polynomials cancel along these lines from x = 12 on;
        # the exact retry on the same intensities certifies every point.
        for x in range(12, 21):
            for beta in ((-x, -x, 0.0), (-x, 0.0, x)):
                certificate = classify_m4(Parameters(4, beta)).certificate
                assert certificate.is_optimal and certificate.tolerance == KW_TOLERANCE, beta

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


def assert_matches_pattern_search(params: Parameters) -> None:
    found = classify_by_pattern_search(params)
    assert found is not None, params.beta
    label = classify_m4(params)
    kind, missing, design = found
    assert (label.kind, label.missing_pairs, label.design.weights) == (kind, missing, design.weights), params.beta


@st.composite
def _tied_two_step_gaps(draw) -> Parameters:
    """Points whose sorted path a-b-c-d has |beta_a - beta_c| = |beta_b - beta_d|.

    The gaps are multiples of 1/16, so every difference is exact and the
    tie survives into the intensities.
    """
    outer, inner = draw(st.integers(0, 64)) / 16.0, draw(st.integers(0, 64)) / 16.0
    values = np.array([0.0, outer, outer + inner, 2.0 * outer + inner])[list(draw(st.permutations(range(4))))]
    return Parameters(4, tuple(values[:3] - values[3]))


class TestSortedPathCandidates:
    """classify_m4's one candidate per kind against the search over all patterns."""

    @given(st.one_of(uniform_m4_points(), tied_m4_points(), _tied_two_step_gaps()))
    @settings(max_examples=600, deadline=None)
    def test_matches_pattern_search(self, params):
        assert_matches_pattern_search(params)

    def test_matches_pattern_search_at_bisected_boundaries(self):
        # Bisect random segments whose ends lie in regions of different kinds
        # down to 2^-40 and compare on both sides of the boundary.
        def kind_at(x, y, t):
            found = classify_by_pattern_search(Parameters(4, tuple(x + t * (y - x))))
            return None if found is None else found[0]

        rng = np.random.default_rng(157)
        checked = 0
        while checked < 30:
            x, y = rng.uniform(-6.0, 6.0, size=(2, 3))
            lo, hi = 0.0, 1.0
            lo_kind = kind_at(x, y, lo)
            if kind_at(x, y, hi) is lo_kind:
                continue
            while hi - lo > 2.0**-40:
                mid = 0.5 * (lo + hi)
                if kind_at(x, y, mid) is lo_kind:
                    lo = mid
                else:
                    hi = mid
            for t in (lo, hi):
                assert_matches_pattern_search(Parameters(4, tuple(x + t * (y - x))))
            checked += 1
