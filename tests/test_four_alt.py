"""Closed-form m=4 designs: weight formulas, regions, classifier, scans."""

import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from btdesign import (
    ConsistencyError,
    Design,
    Pair,
    Parameters,
    RegionKind,
    classify_m4,
    kw_check,
    information_matrix,
    log_det,
    region_margin,
    search_disjoint_four_point,
    solve,
)
from btdesign.core import (
    BtDesignError,
    IntensityUnderflowError,
    _derivatives,
    all_pairs,
    intensity_vector,
    regression_matrix,
)
from btdesign import four_alt
from btdesign.four_alt import (
    _COLUMNS,
    _PAIRS4,
    _disjoint_design,
    _five_point_tau,
    _four_point_tau,
    five_point_raw,
    four_point_shared_raw,
    full_support_raw,
    saturated_inequality_values,
)
from btdesign.optimality import KW_TOLERANCE, KwCertificate, _certificate
from btdesign.regions import PathDesign, sorted_beta_path

from claw import _claw_min_slack, claw_infeasibility_sample, claw_infeasibility_scan
from helpers import (
    classify_by_pattern_search,
    classify_largest_support_first,
    closed_form_design,
    count_closed_form_calls,
    count_constructions,
    count_factorizations,
    count_fraction_passes,
    count_intensity_calls,
    exact_path_derivatives,
    geometric_params,
    line_params,
    path_orders,
    random_params,
    shared_vertex_patterns,
    tied_m4_points,
    uniform_m4_points,
)
from relabel import Permutation, apply_to_params


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


def full_support_reference(lam: list) -> tuple:
    """The six full-support numerators as expanded monomials, transcribed apart from four_alt (all_pairs(4) order).

    The numerator of w_ij, with (k, l) the complement, is lik lil ljk ljl
    times a 10-term bracket.
    """
    def numerator(lij, lik, lil, ljk, ljl, lkl):
        return lik * lil * ljk * ljl * (
            lij * lik * lil * ljk * ljl
            - lij * lik * lil * ljk * lkl
            - lij * lik * lil * ljl * lkl
            - lij * lik * ljk * ljl * lkl
            + lij * lik * ljk * lkl**2
            - lij * lik * ljl * lkl**2
            - lij * lil * ljk * ljl * lkl
            - lij * lil * ljk * lkl**2
            + lij * lil * ljl * lkl**2
            + 2 * lik * lil * ljk * ljl * lkl
        )

    complements = [(p.i, p.j, *sorted({1, 2, 3, 4} - {p.i, p.j})) for p in _PAIRS4]
    return tuple(numerator(*(lam[c] for c in _COLUMNS[tau])) for tau in complements), ()


def five_point_reference(lam: list) -> tuple:
    """The five-point numerators and slack as expanded monomials (reference labels, missing (1,2))."""
    l12, l13, l14, l23, l24, l34 = lam
    d1 = l13**2 * (l14 - l34) ** 2 - 2 * l13 * l14 * l34 * (l14 + l34) + l14**2 * l34**2
    d2 = l23**2 * (l24 - l34) ** 2 - 2 * l23 * l24 * l34 * (l24 + l34) + l24**2 * l34**2
    n13 = 2 * l14 * l34 * (l14 * l34 - l13 * (l14 + l34)) * d2
    n14 = 2 * l13 * l34 * (l13 * (l34 - l14) - l14 * l34) * d2
    n23 = 2 * l24 * l34 * (l24 * l34 - l23 * (l24 + l34)) * d1
    n24 = 2 * l23 * l34 * (l23 * (l34 - l24) - l24 * l34) * d1
    n34 = (
        3 * l13**2 * l14**2 * l23**2 * l24**2
        - 4 * l13 * l14 * l23 * l24 * l34**4
        - 2 * l13 * l14 * l23**2 * l24**2 * l34**2
        + 4 * l13 * l14**2 * l23 * l24**2 * l34**2
        + 4 * l13**2 * l14 * l23 * l24**2 * l34**2
        + 4 * l13 * l14**2 * l23**2 * l24 * l34**2
        + 4 * l13**2 * l14 * l23**2 * l24 * l34**2
        - 2 * l13**2 * l14**2 * l23 * l24 * l34**2
        - 4 * l13 * l14**2 * l23**2 * l24**2 * l34
        - 4 * l13**2 * l14 * l23**2 * l24**2 * l34
        - 4 * l13**2 * l14**2 * l23 * l24**2 * l34
        - 4 * l13**2 * l14**2 * l23**2 * l24 * l34
        + 2 * l13 * l14 * l23**2 * l34**4
        + l13**2 * l14**2 * l23**2 * l34**2
        + 2 * l13 * l14 * l24**2 * l34**4
        + l13**2 * l14**2 * l24**2 * l34**2
        + 2 * l13**2 * l23 * l24 * l34**4
        + l13**2 * l23**2 * l24**2 * l34**2
        - l13**2 * l23**2 * l34**4
        - l13**2 * l24**2 * l34**4
        + 2 * l14**2 * l23 * l24 * l34**4
        + l14**2 * l23**2 * l24**2 * l34**2
        - l14**2 * l23**2 * l34**4
        - l14**2 * l24**2 * l34**4
    )
    lhs = l12 * (
        l13 * (l14 * (l23 * (l24 - l34) - l24 * l34) + l34 * (l23 * (l34 - l24) - l24 * l34))
        - l14 * l34 * (l23 * (l24 + l34) - l24 * l34)
    )
    rhs = -2 * l13 * l14 * l23 * l24 * l34
    return (n13, n14, n23, n24, n34), (lhs - rhs,)


def four_point_reference(lam: list) -> tuple:
    """The four-point numerators and slacks as expanded monomials (reference labels, missing (1,2), (1,3))."""
    l12, l13, l14, l23, l24, l34 = lam
    d = (
        l23**2 * l24**2 + l23**2 * l34**2 + l24**2 * l34**2
        - 2 * l23**2 * l24 * l34 - 2 * l23 * l24**2 * l34 - 2 * l23 * l24 * l34**2
    )
    n23 = 2 * l24 * l34 * (l24 * l34 - l23 * l24 - l23 * l34)
    n24 = 2 * l23 * l34 * (l23 * l34 - l23 * l24 - l24 * l34)
    n34 = 2 * l23 * l24 * (l23 * l24 - l23 * l34 - l24 * l34)
    slack12 = l14 * l24 - l12 * (l14 + l24)
    slack13 = l14 * l34 - l13 * (l14 + l34)
    return (d, n23, n24, n34), (slack12, slack13)


def free_fraction_tables(n: int) -> list:
    """Six independent rational intensities in (0, 1/4] per table: the closed forms are identities on any table."""
    rng = np.random.default_rng(167)
    return [[Fraction(int(a), int(b)) for a, b in zip(rng.integers(1, 11, 6), rng.integers(40, 400, 6))] for _ in range(n)]


def fraction_tables(n: int) -> list:
    """Exact intensity tables lambda_ij = pi_i pi_j / (pi_i + pi_j)^2 at random rational pi."""
    rng = np.random.default_rng(163)
    tables = []
    for _ in range(n):
        pi = [Fraction(int(a), int(b)) for a, b in rng.integers(1, 60, size=(4, 2))]
        tables.append([pi[p.i - 1] * pi[p.j - 1] / (pi[p.i - 1] + pi[p.j - 1]) ** 2 for p in _PAIRS4])
    return tables


def bench_points() -> list[tuple[float, ...]]:
    """The inputs of the m4-classify benchmark: the 13^3 scan grid on [-4, 4] and 2 000 points uniform in [-8, 8]^3."""
    axis = np.linspace(-4.0, 4.0, 13).tolist()
    points = [*itertools.product(axis, repeat=3)]
    return points + [tuple(b) for b in np.random.default_rng(1).uniform(-8.0, 8.0, size=(2000, 3)).tolist()]


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
        lam = intensity_vector(Parameters(4, (0.0, 0.0, 0.0)).beta).tolist()
        d = closed_form_design(full_support_raw, (1, 2, 3, 4), lam)
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
        d = closed_form_design(full_support_raw, (1, 2, 3, 4), intensity_vector(p.beta).tolist())
        assert d is not None
        assert all(0.0 < w < 1.0 / 3.0 for w in d.w.tolist())
        assert kw_check(d, p).max_violation <= 1e-12
        result = solve(p)
        for pair in all_pairs(4):
            assert d.weight(pair) == pytest.approx(result.design.weight(pair), abs=1e-7)

    def test_line_point_outside_six_point_region(self):
        lam = intensity_vector(line_params(2.5).beta).tolist()
        assert closed_form_design(full_support_raw, (1, 2, 3, 4), lam) is None


class TestFivePoint:
    def test_origin_is_out_of_region(self):
        lam = intensity_vector(Parameters(4, (0.0, 0.0, 0.0)).beta).tolist()
        for missing in all_pairs(4):
            assert closed_form_design(five_point_raw, _five_point_tau(missing), lam) is None

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
        d = closed_form_design(five_point_raw, _five_point_tau(Pair(3, 4)), intensity_vector(p.beta).tolist())
        assert d is not None
        assert d.weight(Pair(3, 4)) == 0.0
        assert kw_check(d, p).max_violation <= 1e-10
        result = solve(p)
        for pair in all_pairs(4):
            assert d.weight(pair) == pytest.approx(result.design.weight(pair), abs=1e-6)

    def test_only_one_missing_pair_certifies_on_the_line(self):
        lam = intensity_vector(line_params(1.7).beta).tolist()
        in_region = [
            missing
            for missing in all_pairs(4)
            if closed_form_design(five_point_raw, _five_point_tau(missing), lam) is not None
        ]
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
        lam = intensity_vector(p.beta).tolist()
        d = closed_form_design(four_point_shared_raw, _four_point_tau(*label.missing_pairs), lam)
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
            _four_point_tau(Pair(1, 2), Pair(3, 4))

    def test_pattern_count(self):
        assert len(shared_vertex_patterns()) == 12


CLOSED_FORMS = [
    (full_support_raw, full_support_reference),
    (five_point_raw, five_point_reference),
    (four_point_shared_raw, four_point_reference),
]


class TestStructuredForms:
    """The closed forms, built from one triangle form and one full-support bracket, against expanded oracles."""

    @pytest.mark.parametrize("raw, reference", CLOSED_FORMS, ids=lambda f: f.__name__)
    def test_equals_the_expanded_reference_in_q(self, raw, reference):
        for table in free_fraction_tables(300):
            assert raw(table) == reference(table), table

    @pytest.mark.parametrize("raw", [raw for raw, _ in CLOSED_FORMS], ids=lambda f: f.__name__)
    def test_designs_are_stationary_in_q(self, raw):
        # The numerators belong to the last pairs of the reference order; on
        # them the matrix-tree kernel reads m - 1 = 3 exactly.
        for table in free_fraction_tables(300):
            numerators, _ = raw(table)
            total = sum(numerators)
            first = 6 - len(numerators)
            w = [Fraction(0)] * first + [n / total for n in numerators]
            values = four_alt._kirchhoff_values(w, table)
            assert values[first:].tolist() == [3.0] * len(numerators), table

    def test_five_point_slack_is_the_full_support_numerator_of_the_missing_pair(self):
        # w12 of full support is lik lil ljk ljl > 0 times the slack, so the
        # five-point region meets the full-support region where w12 vanishes.
        for table in free_fraction_tables(50):
            (slack,) = five_point_raw(table)[1]
            l12, l13, l14, l23, l24, l34 = table
            assert full_support_raw(table)[0][0] == l13 * l14 * l23 * l24 * slack


class TestClaw:
    def test_equal_preferences_violate_first_inequality(self):
        # At pi = (1,1,1) the first inequality asks 4 <= 0.
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
        # At the origin every share of the cycle 1-3-2-4-1 is 1/4, so weight
        # 1/4 on (1,3), (1,4), (2,3), (2,4).
        w, ((slack1, slack2),) = _disjoint_design(intensity_vector(np.zeros((1, 3))))
        assert w == pytest.approx(np.full((1, 4), 0.25), abs=1e-15)
        # Both missing-pair derivatives are 4, exceeding 3.
        assert slack1 == pytest.approx(-1.0, abs=1e-12)
        assert slack2 == pytest.approx(-1.0, abs=1e-12)

    def test_exact_design_is_stationary_and_its_slacks_match_m(self):
        beta = np.random.default_rng(23).uniform(-8.0, 8.0, size=(2000, 3))
        lam = intensity_vector(beta)
        w, slacks = _disjoint_design(lam)
        roots = np.flatnonzero(~np.isnan(w[:, 0]))
        assert 100 < len(roots) < 2000
        for i in roots:
            # kw_check evaluates d - 3 through M, independently of the shares.
            d = kw_check(Design(4, np.pad(w[i], 1)), Parameters(4, tuple(beta[i]))).derivatives + 3.0
            assert np.abs(d[1:5] - 3.0).max() < 1e-10  # stationary on the support
            assert 3.0 - slacks[i] == pytest.approx(d[[0, 5]], rel=1e-12)  # (1,2) and (3,4)

    def test_third_weight_saturation_forces_zero(self):
        # t(w) = lambda w (w - 1/3) vanishes only at w = 0 and w = 1/3, and
        # is strictly negative between them, so equalized t with one weight
        # at 1/3 forces every other weight to 0 or 1/3.
        w = np.linspace(1e-9, 1.0 / 3.0 - 1e-9, 10_000)
        t = 0.2 * w * (w - 1.0 / 3.0)
        assert t.max() < 0.0
        assert 0.2 * (1.0 / 3.0) * (1.0 / 3.0 - 1.0 / 3.0) == 0.0

    def test_search_finds_no_certified_solution(self):
        report = search_disjoint_four_point(n_starts=3000, seed=11)
        assert report.certified_count == 0
        assert report.interior_count > 0
        assert report.best_slack < 0.0

    def test_search_certifies_by_the_matrix_tree_kernel(self, monkeypatch):
        # At gaps of 40 the pivot test calls M of the path 3-1-4-2 singular;
        # classify_m4 certifies that design, and so must the search, on the
        # cycle's columns and without factoring M.
        beta = np.array([[1.0, -40.0, 41.0]])
        params = Parameters(4, tuple(beta[0]))
        label = classify_m4(params)
        assert label.kind is RegionKind.SATURATED and label.path == PathDesign((3, 1, 4, 2))
        assert kw_check(label.design, params).singular
        monkeypatch.setattr(four_alt, "_evaluable", lambda draws: (beta, params.intensities[None, :]))
        monkeypatch.setattr(four_alt, "_disjoint_design", lambda lam: (label.design.w[None, 1:5], np.zeros((1, 2))))
        factorizations = count_factorizations(monkeypatch)
        assert search_disjoint_four_point(n_starts=1).certified_count == 1
        assert factorizations == [0]

    def test_search_blocks_do_not_change_the_report(self, monkeypatch):
        # 3000 starts make one block by default, and eleven full blocks plus a
        # short one at 256 per block.
        expected = search_disjoint_four_point(n_starts=3000, seed=11)
        monkeypatch.setattr(four_alt, "_DISJOINT_BLOCK", 256)
        report = search_disjoint_four_point(n_starts=3000, seed=11)
        assert (report.n_starts, report.interior_count, report.certified_count) == (
            expected.n_starts, expected.interior_count, expected.certified_count)
        assert report.best_slack == pytest.approx(expected.best_slack, abs=1e-12)
        assert report.best_point == pytest.approx(expected.best_point, abs=1e-12)

    def test_underflowing_draws_count_only_in_n_starts(self, monkeypatch):
        # At this scale about 1 % of draws have a gap past 745, whose
        # intensity underflows, so every block holds some; the other draws of
        # the block are still solved.
        beta = np.random.default_rng(0).uniform(-400.0, 400.0, size=(20_000, 3))
        evaluable = []
        for row in beta:
            try:
                evaluable.append(intensity_vector(row))
            except IntensityUnderflowError:
                pass
        assert 0 < 20_000 - len(evaluable) < 1000
        solved = []

        def counted(lam):
            solved.append(len(lam))
            return _disjoint_design(lam)

        monkeypatch.setattr(four_alt, "_disjoint_design", counted)
        report = search_disjoint_four_point(n_starts=20_000, seed=0, beta_scale=400.0)
        assert len(solved) == 3 and sum(solved) == len(evaluable)
        w, _ = _disjoint_design(np.array(evaluable))
        assert report.interior_count == np.count_nonzero(~np.isnan(w[:, 0])) > 0
        assert report.n_starts == 20_000 and report.certified_count == 0
        # Where every draw underflows, no block is solved.
        solved.clear()
        report = search_disjoint_four_point(n_starts=10, seed=0, beta_scale=1e300)
        assert solved == [] and (report.interior_count, report.best_point) == (0, None)


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

    def test_one_intensity_call_per_call(self, monkeypatch):
        # One point of each kind, and one that needs the exact retry.
        points = [line_params(t) for t in (1.0, 1.7, 2.5, 3.5)] + [Parameters(4, (-14.0, -14.0, 0.0))]
        calls = count_intensity_calls(monkeypatch)
        for n, params in enumerate(points, start=1):
            classify_m4(params)
            assert calls == [n]

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
        assert a.kind is b.kind and a.design.w.tolist() == b.design.w.tolist()

    def test_margin_sign(self):
        rng = np.random.default_rng(149)
        for _ in range(40):
            label = classify_m4(random_params(rng, 4, scale=5.0))
            assert region_margin(label) <= 1e-7

    def test_agrees_with_the_closed_form(self):
        p = line_params(1.7)
        label = classify_m4(p)
        assert label.kind is RegionKind.FIVE_POINT
        lam = intensity_vector(p.beta).tolist()
        again = closed_form_design(five_point_raw, _five_point_tau(label.missing_pairs[0]), lam)
        for pair in all_pairs(4):
            assert again.weight(pair) == label.design.weight(pair)

    def test_requires_m4(self):
        with pytest.raises(ValueError):
            classify_m4(Parameters(5, (0.0, 0.0, 0.0, 0.0)))

    def test_extreme_ties_certify_at_strict_tolerance(self):
        # At ties between huge preferences the float full-support numerators
        # cancel, and the float weights miss the optimum by about 4e-8: the
        # certificate refuses them, and the exact retry certifies at the
        # strict tolerance.
        label = classify_m4(Parameters(4, (25.0, 25.0, 25.0)))
        assert label.kind is RegionKind.FULL_SUPPORT
        assert label.certificate.is_optimal and label.certificate.tolerance == KW_TOLERANCE
        assert label.certificate.max_violation <= KW_TOLERANCE
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
        # At this triple tie a four-point slack that is negative cancels to
        # 0.0 in floats, and the float pass leaves it unresolved; the exact
        # retry gives full support with the weights the tie symmetry requires.
        label = classify_m4(Parameters(4, (40.0, 40.0, 40.0)))
        assert label.kind is RegionKind.FULL_SUPPORT
        assert label.certificate.is_optimal and label.certificate.tolerance == KW_TOLERANCE
        for pair in all_pairs(4):
            assert label.design.weight(pair) == pytest.approx(1 / 9 if pair.j == 4 else 2 / 9, abs=1e-15)
        # The range ends where an intensity underflows, at a gap near 745.
        with pytest.raises(IntensityUnderflowError, match="beyond the certifiable range"):
            classify_m4(Parameters(4, (800.0, 800.0, 800.0)))

    @pytest.mark.parametrize("s", [24, 32, 40])
    def test_every_point_certifies_at_strict_tolerance(self, s):
        # Float certificates that the pivot test or M's conditioning defeats
        # are retried exactly, never widened or refused.
        rng = np.random.default_rng(s)
        for beta in rng.uniform(-s, s, size=(1000, 3)).tolist():
            certificate = classify_m4(Parameters(4, tuple(beta))).certificate
            assert certificate.is_optimal and certificate.tolerance == KW_TOLERANCE, beta

    @pytest.mark.parametrize(
        "t,what",
        [
            (1.0, "full-support formula"),
            (1.7, "five-point formula missing (3,4)"),
            (2.5, "four-point formula missing (1,4), (3,4)"),
            (3.5, "saturated region of path (3, 1, 2, 4)"),
        ],
    )
    def test_failed_certificate_names_the_candidate(self, t, what, monkeypatch):
        # A certificate that reports a violation far above the tolerance, in both passes.
        def violated(values, m):
            return KwCertificate(values - (m - 1), 0.5, False)

        monkeypatch.setattr(four_alt, "_certificate", violated)
        params = line_params(t)
        message = f"{what} claimed optimality at beta={params.beta} but the certificate shows violation 5.000e-01"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            classify_m4(params)

    def test_failed_saturated_certificate_is_retried_exactly(self, monkeypatch):
        # The float pass's path certificate fails; the Fraction pass certifies.
        calls = []

        def violated_once(values, m):
            calls.append(m)
            if len(calls) == 1:
                return KwCertificate(values - (m - 1), 0.5, False)
            return _certificate(values, m)

        monkeypatch.setattr(four_alt, "_certificate", violated_once)
        label = classify_m4(line_params(3.5))
        assert label.kind is RegionKind.SATURATED and label.certificate.is_optimal
        assert label.certificate.tolerance == KW_TOLERANCE
        assert calls == [4, 4]

    def test_saturated_certificate_factors_nothing(self, monkeypatch):
        factorizations = count_factorizations(monkeypatch)
        label = classify_m4(line_params(3.5))
        assert label.kind is RegionKind.SATURATED and label.certificate.is_optimal
        assert factorizations == [0]

    def test_saturated_certificates_are_never_widened(self):
        rng = np.random.default_rng(167)
        saturated = 0
        for _ in range(300):
            label = classify_m4(random_params(rng, 4, scale=40.0))
            if label.kind is RegionKind.SATURATED:
                saturated += 1
                assert label.certificate.tolerance == KW_TOLERANCE and not label.certificate.singular
        assert saturated > 100

    def test_no_factorization_on_the_bench_inputs(self, monkeypatch):
        # Every candidate is certified by the matrix-tree kernel, in both
        # passes: the retried triple ties factor nothing either.
        factorizations = count_factorizations(monkeypatch)
        for beta in [*bench_points(), (25.0, 25.0, 25.0), (40.0, 40.0, 40.0)]:
            assert classify_m4(Parameters(4, beta)).certificate.is_optimal
        assert factorizations == [0]

    @pytest.mark.parametrize(
        "t,designs", [(1.0, 1), (1.7, 1), (2.5, 1), (3.5, 0)], ids=["full", "five", "four", "saturated"]
    )
    def test_objects_built_per_call(self, t, designs, monkeypatch):
        # Paths and path designs come from the table of sorted orders; only
        # a closed-form candidate inside its region builds a Design.
        params = line_params(t)
        built = count_constructions(monkeypatch)
        classify_m4(params)
        assert built == {"PathDesign": 0, "Design": designs}

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
    assert (label.kind, label.missing_pairs, label.design.w.tolist()) == (kind, missing, design.w.tolist()), params.beta


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

    def test_table_rows_match_the_sorted_path(self):
        # One point per order of beta_full, no ties: its row holds the
        # sorted-beta path and that path's own design.
        assert len(four_alt._SORTED_ORDERS) == 24
        for order, row in four_alt._SORTED_ORDERS.items():
            beta_full = np.empty(4)
            beta_full[list(order)] = [3.0, 2.0, 1.0, 0.0]
            params = Parameters(4, tuple(beta_full[:3] - beta_full[3]))
            assert row.path == sorted_beta_path(params)
            assert row.design.w.tobytes() == row.path.design().w.tobytes()
            assert not row.design.w.flags.writeable

    def test_kernel_gives_the_exact_tree_identity_on_paths(self):
        # Each row's path at points in its own order, |beta| <= 40: the
        # kernel's derivatives are 3 (g - 1), in floats and in Fractions.
        rng = np.random.default_rng(173)
        for order, row in four_alt._SORTED_ORDERS.items():
            w = row.design.w.tolist()
            for _ in range(25):
                beta_full = np.empty(4)
                beta_full[list(order)] = np.sort(rng.uniform(-20.0, 20.0, 4))[::-1]
                params = Parameters(4, tuple(beta_full[:3] - beta_full[3]))
                lam = params.intensities.tolist()
                exact = exact_path_derivatives(row.path, params)
                for weights, values in ((w, lam), ([Fraction(x) for x in w], [Fraction(x) for x in lam])):
                    found = four_alt._kirchhoff_values(weights, values)
                    assert max(abs(x - 3 - y) for x, y in zip(found.tolist(), exact)) <= 1e-14, params.beta

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


class TestExactRetry:
    """The Fraction pass of classify_m4 certifies every candidate exactly."""

    @given(st.one_of(uniform_m4_points(), tied_m4_points()))
    @settings(max_examples=300, deadline=None)
    def test_exact_pass_agrees_with_the_float_pass(self, params):
        lam = params.intensities.tolist()
        try:
            found = four_alt._first_certified(params, lam)
        except (ConsistencyError, four_alt._CancelledSlack):  # no float label
            found = None
        assume(found is not None)
        label = four_alt._first_certified(params, [Fraction(x) for x in lam])
        assert (label.kind, label.missing_pairs, label.path) == (found.kind, found.missing_pairs, found.path)
        assert label.certificate.is_optimal and label.certificate.tolerance == KW_TOLERANCE
        # One kernel in both passes, on weights that differ by float rounding.
        assert np.abs(label.certificate.derivatives - found.certificate.derivatives).max() <= 1e-9

    def test_bench_inputs_need_no_exact_evaluation(self, monkeypatch):
        # The 13^3 scan grid on [-4, 4] and single calls uniform in [-8, 8]^3
        # all certify in the float pass.  At the triple ties (25, 25, 25)
        # the float full-support weights miss the optimum by about 4e-8, and
        # at (40, 40, 40) a slack cancels to 0.0: each takes one Fraction
        # pass and stays full support.
        calls = count_fraction_passes(monkeypatch)
        for beta in bench_points():
            classify_m4(Parameters(4, beta))
        assert calls == [0]
        for n, beta in enumerate([(25.0, 25.0, 25.0), (40.0, 40.0, 40.0)], start=1):
            assert classify_m4(Parameters(4, beta)).kind is RegionKind.FULL_SUPPORT
            assert calls == [n]


def _ulps_away(t: float, n: int) -> float:
    """The float n units in the last place from t >= 0 (toward +inf for n > 0)."""
    return float((np.float64(t).view(np.int64) + n).view(np.float64))


class TestPathRegionFirst:
    """classify_m4 tests the sorted path's region first, with the labels of the largest-support-first order."""

    def test_matches_largest_support_first_at_saturated_boundaries(self):
        # Segments from a saturated point to a point of another kind, bisected
        # to adjacent floats of t.  Within 20 * 64 ulps of t on either side
        # of the boundary, the saturated test and the four-point test can
        # both pass; the four-point guard gives such points to the four-point
        # kind, as the reference does.  Without it about one boundary in ten flips.
        def kind_at(x, y, t):
            found = classify_largest_support_first(Parameters(4, tuple(x + t * (y - x))))
            return None if found is None else found[0]

        rng = np.random.default_rng(181)
        checked = 0
        while checked < 40:
            x, y = rng.uniform(-8.0, 8.0, size=(2, 3))
            if kind_at(x, y, 0.0) is not RegionKind.SATURATED or kind_at(x, y, 1.0) is RegionKind.SATURATED:
                continue
            lo, hi = 0.0, 1.0
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                if kind_at(x, y, mid) is RegionKind.SATURATED:
                    lo = mid
                else:
                    hi = mid
            for t in (lo, hi):
                for k in range(-20, 21):
                    params = Parameters(4, tuple(x + _ulps_away(t, 64 * k) * (y - x)))
                    found = classify_largest_support_first(params)
                    assert found is not None, params.beta
                    label = classify_m4(params)
                    kind, missing, design = found
                    assert (label.kind, label.missing_pairs, label.design.w.tobytes()) == (
                        kind, missing, design.w.tobytes()
                    ), params.beta
            checked += 1

    def test_saturated_points_skip_full_support_and_five_point(self, monkeypatch):
        rng = np.random.default_rng(191)
        points = []
        while len(points) < 200:
            params = random_params(rng, 4, scale=8.0)
            if classify_m4(params).kind is RegionKind.SATURATED:
                points.append(params)
        calls = count_closed_form_calls(monkeypatch)
        for params in points:
            classify_m4(params)
        assert calls == {"full_support_raw": 0, "five_point_raw": 0}
        assert classify_m4(line_params(2.5)).kind is RegionKind.FOUR_POINT_SHARED_VERTEX
        assert calls == {"full_support_raw": 1, "five_point_raw": 1}


def fraction_derivatives(w: list, lam: list) -> list[Fraction] | None:
    """lambda f^T M^{-1} f for every pair, exact: the test oracle of four_alt._kirchhoff_values.

    M = F^T diag(w lambda) F is summed in Fractions from F's integer rows
    and inverted as adj(M) / det(M); None when det(M) is 0.
    """
    F = regression_matrix(4).astype(int).tolist()
    c = [Fraction(x) * Fraction(y) for x, y in zip(w, lam)]
    M = [[sum(ck * f[r] * f[s] for ck, f in zip(c, F)) for s in range(3)] for r in range(3)]
    # Cofactor (r, s) from rows r + 1, r + 2 and columns s + 1, s + 2 mod 3; M is symmetric.
    cyclic = ((1, 2), (2, 0), (0, 1))
    adj = [[M[a][x] * M[b][y] - M[a][y] * M[b][x] for x, y in cyclic] for a, b in cyclic]
    det = sum(M[0][s] * adj[0][s] for s in range(3))
    if det == 0:
        return None
    return [Fraction(y) * sum(f[r] * f[s] * adj[r][s] for r in range(3) for s in range(3)) / det for y, f in zip(lam, F)]


def connected(support: list) -> bool:
    """Whether the pairs of support reach all four vertices, the control included, from vertex 1."""
    reached = {1}
    for _ in range(3):
        reached |= {v for p in support if {p.i, p.j} & reached for v in (p.i, p.j)}
    return len(reached) == 4


def random_kernel_cases(rng: np.random.Generator, n: int, scale: float) -> list[tuple[list, list]]:
    """(weights, intensities) at points uniform in [-scale, scale]^3, half on full support, half on sparser ones."""
    cases = []
    while len(cases) < n:
        size = 6 if len(cases) % 2 else int(rng.integers(3, 6))
        support = sorted(rng.choice(6, size=size, replace=False).tolist())
        if not connected([_PAIRS4[c] for c in support]):
            continue
        w = np.zeros(6)
        w[support] = rng.dirichlet(np.ones(size))
        cases.append((w.tolist(), intensity_vector(rng.uniform(-scale, scale, 3)).tolist()))
    return cases


class TestKirchhoffKernel:
    """four_alt._kirchhoff_values, the matrix-tree certificate of every classify_m4 answer."""

    def test_matches_the_fraction_oracle_to_a_few_ulps(self):
        # |beta| <= 100: M's condition number reaches far past 1 / eps.
        for w, lam in random_kernel_cases(np.random.default_rng(193), 400, scale=100.0):
            found = four_alt._kirchhoff_values(w, lam)
            exact = fraction_derivatives(w, lam)
            for x, y in zip(found.tolist(), exact):
                assert abs(Fraction(x) - y) <= Fraction(1, 10**13) * y, (w, lam)

    def test_matches_core_derivatives_where_m_is_well_conditioned(self):
        F = regression_matrix(4)
        for w, lam in random_kernel_cases(np.random.default_rng(197), 400, scale=6.0):
            found = four_alt._kirchhoff_values(w, lam)
            values = _derivatives(np.array(w), np.array(lam), F)[0]
            assert np.all(np.abs(found - values) <= 1e-12 * values), (w, lam)

    def test_none_exactly_when_the_support_is_not_connected(self):
        lam = intensity_vector(np.array([1.5, -0.5, 2.0])).tolist()
        for size in range(1, 7):
            for support in itertools.combinations(range(6), size):
                w = [1 / size if c in support else 0.0 for c in range(6)]
                expected = connected([_PAIRS4[c] for c in support])
                for weights, values in ((w, lam), ([Fraction(x) for x in w], [Fraction(x) for x in lam])):
                    assert (four_alt._kirchhoff_values(weights, values) is not None) is expected, support

    def test_floats_below_the_normal_range_give_none(self):
        # Each value is of degree 0 in lambda, and where T underflows the
        # kernel retakes the values on lambda scaled by a power of two, so
        # uniformly tiny intensities certify in floats.  A spread no scale
        # removes still underflows: with lambda12
        # = 1/4 and the rest 1e-160, T_p sums products of two c of about
        # 2e-161, subnormal, and the Fraction pass still evaluates them.
        w = [1 / 6] * 6
        found = four_alt._kirchhoff_values(w, [1e-105] * 6)
        assert found.tolist() == pytest.approx([3.0] * 6, rel=1e-15)
        lam = [0.25] + [1e-160] * 5
        assert four_alt._kirchhoff_values(w, lam) is None
        found = four_alt._kirchhoff_values([Fraction(x) for x in w], [Fraction(x) for x in lam])
        assert found.tolist() == [float(x) for x in fraction_derivatives(w, lam)]

    def test_a_power_of_two_scale_leaves_the_values_bitwise(self):
        for w, lam in random_kernel_cases(np.random.default_rng(199), 200, scale=8.0):
            found = four_alt._kirchhoff_values(w, lam)
            for e in (-600, -40, 3):  # at 2^-600, T would underflow unscaled
                scaled = four_alt._kirchhoff_values(w, [math.ldexp(x, e) for x in lam])
                assert scaled.tobytes() == found.tobytes(), (w, lam, e)


# Each tie family is the line beta = t * direction; its labels for t in
# TIE_STEPS, of either sign: F, 5, 4, S for the kinds, x for an intensity
# that underflows.  (t, t, t) and (t, 0, 0) tie three alternatives, so the
# tie symmetry forces full support.  A tie lies in no path region, and
# classify_m4 never tests one: past a gap of about 37, 1 + 4 lambda rounds
# to 1 and the float path test would pass.  (t, 2t, 3t) ties no two
# alternatives; its labels are saturated from t = 2.
TIE_STEPS = (0.5, 1, 2, 3, 5, 8, 10, 12, 15, 20, 25, 30, 37, 40, 50, 60, 80, 100, 200, 300)
TIE_LABELS = {
    (1, 1, 1): "FFFFFFFFFFFFFFFFFFFF",
    (1, 1, 0): "FFFFFFFFFFFFFFFFFFFF",
    (1, 0, 0): "FFFFFFFFFFFFFFFFFFFF",
    (1, 1, -1): "FF444444444444444444",
    (1, -1, 0): "F5555555555555555555",
    (1, 1, 2): "F5555555555555555555",
    (2, 1, 0): "FF444444444444444444",
    (1, 2, 3): "F5SSSSSSSSSSSSSSSSSx",
    (1, 1, 0.5): "FFF44444444444444444",
}
_KIND_CODES = {
    RegionKind.FULL_SUPPORT: "F",
    RegionKind.FIVE_POINT: "5",
    RegionKind.FOUR_POINT_SHARED_VERTEX: "4",
    RegionKind.SATURATED: "S",
}


class TestTieFamilies:
    @pytest.mark.parametrize("direction", list(TIE_LABELS), ids=str)
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+", "-"])
    def test_labels_match_largest_support_first(self, direction, sign):
        # Every label certifies and equals the exact evaluation on the same
        # float intensities; wherever kw_check certifies the reference's
        # label independently, classify_m4 gives it too.
        codes = ""
        for t in TIE_STEPS:
            params = Parameters(4, tuple(sign * t * x for x in direction))
            try:
                label = classify_m4(params)
            except IntensityUnderflowError:
                codes += "x"
                continue
            assert label.certificate.is_optimal and label.certificate.tolerance == KW_TOLERANCE
            codes += _KIND_CODES[label.kind]
            exact = four_alt._first_certified(params, [Fraction(x) for x in params.intensities.tolist()])
            assert (label.kind, label.missing_pairs, label.path) == (exact.kind, exact.missing_pairs, exact.path)
            try:
                found = classify_largest_support_first(params)
            except four_alt._CancelledSlack:
                continue
            if found is not None and kw_check(found[2], params).is_optimal:
                assert (label.kind, label.missing_pairs) == found[:2], params.beta
        assert codes == TIE_LABELS[direction]


M4_REFERENCE = Path(__file__).parent / "data" / "m4_reference.json"


class TestReferenceLabels:
    """classify_m4 against labels recorded before its single-call rewrite, bit for bit.

    The oracles of helpers.py evaluate the closed forms through
    four_alt._closed_form, so they would move with it; this file does not.
    It holds 300 points uniform in [-8, 8]^3 (default_rng(3203)), the tie
    sweep of TestTieFamilies at every other step and at the last, where
    many points take the Fraction pass and (t, 2t, 3t) underflows, and 100
    points within one ulp of 25 saturated kind boundaries bisected as in
    TestPathRegionFirst (default_rng(3209)).
    """

    def test_points_are_the_documented_draws(self):
        labels = json.loads(M4_REFERENCE.read_text())["labels"]
        uniform = [r["beta"] for r in labels if r["source"] == "uniform"]
        assert uniform == np.random.default_rng(3203).uniform(-8.0, 8.0, size=(300, 3)).tolist()
        steps = [t for k, t in enumerate(TIE_STEPS) if k % 2 == 0 or t == TIE_STEPS[-1]]
        ties = [[sign * t * x for x in d] for d in TIE_LABELS for sign in (1.0, -1.0) for t in steps]
        assert [r["beta"] for r in labels if r["source"] == "tie"] == ties
        assert sum(r["source"] == "boundary" for r in labels) == 100

    def test_labels_match_bit_for_bit(self):
        for row in json.loads(M4_REFERENCE.read_text())["labels"]:
            params = Parameters(4, tuple(row["beta"]))
            if "error" in row:
                with pytest.raises(BtDesignError) as excinfo:
                    classify_m4(params)
                assert (type(excinfo.value).__name__, str(excinfo.value)) == (row["error"], row["message"])
                continue
            label = classify_m4(params)
            path = None if label.path is None else list(label.path.order)
            assert label.kind.value == row["kind"], row["beta"]
            assert ([p.key() for p in label.missing_pairs], path) == (row["missing_pairs"], row["path"]), row["beta"]
            assert label.design.w.tobytes() == np.array(row["weights"]).tobytes(), row["beta"]
            assert label.certificate.derivatives.tobytes() == np.array(row["derivatives"]).tobytes(), row["beta"]
