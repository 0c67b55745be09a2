"""Equivalence-theorem checks, certificates, and D-efficiency."""

import numpy as np
import pytest

from btdesign import (
    Design,
    Pair,
    Parameters,
    SingularMatrixError,
    all_pairs,
    apply_to_design,
    apply_to_params,
    d_efficiency,
    information_matrix,
    kw_check,
    log_det,
    region_membership,
)
from btdesign.regions import PathDesign

from helpers import geometric_params, line_params, random_design, random_params, random_permutation


def directional_derivative(design: Design, params: Parameters, pair: Pair) -> float:
    """Frechet derivative of log det toward one pair, read off the certificate."""
    return kw_check(design, params).derivatives[pair]


class TestDirectionalDerivative:
    def test_uniform_origin_all_zero(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        d = Design.uniform(4)
        for pair in all_pairs(4):
            assert directional_derivative(d, p, pair) == pytest.approx(0.0, abs=1e-12)

    def test_path_design_nonpositive_toward_outside_pair(self):
        # The path 3-1-2-4 (edges (1,2), (1,3), (2,4)) at a geometric point
        # relabeled into its region: the derivative toward (1,4) cannot be
        # positive inside the region.
        path = PathDesign((3, 1, 2, 4))
        base = geometric_params(4, 20.0)
        values = dict(zip(path.order, [b for b in base.beta] + [0.0]))
        params = Parameters(4, tuple(values[v] - values[4] for v in (1, 2, 3)))
        assert region_membership(path, params).inside
        assert directional_derivative(path.design(), params, Pair(1, 4)) <= 0.0

    def test_support_pairs_sit_at_zero(self):
        path = PathDesign((3, 1, 2, 4))
        params = line_params(3.5)
        assert region_membership(path, params).inside
        for pair in path.edges():
            assert directional_derivative(path.design(), params, pair) == pytest.approx(0.0, abs=1e-10)

    def test_singular_has_no_derivatives(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        cycle = Design.equal_on(4, [Pair(1, 2), Pair(1, 4), Pair(2, 4)])
        cert = kw_check(cycle, p)
        assert cert.singular and cert.derivatives == {}


class TestKwCheck:
    def test_uniform_origin_is_optimal(self):
        cert = kw_check(Design.uniform(4), Parameters(4, (0.0, 0.0, 0.0)))
        assert cert.is_optimal
        assert not cert.singular
        assert cert.max_violation == pytest.approx(0.0, abs=1e-12)
        assert cert.equality_pairs == frozenset(all_pairs(4))

    def test_uniform_fails_deep_on_the_line(self):
        # Past the saturated threshold the uniform design is far from optimal.
        cert = kw_check(Design.uniform(4), line_params(3.5))
        assert not cert.is_optimal
        assert cert.max_violation > 0.1

    def test_singular_design_gets_flag(self):
        cycle = Design.equal_on(4, [Pair(1, 2), Pair(1, 4), Pair(2, 4)])
        cert = kw_check(cycle, Parameters(4, (0.3, 0.1, -0.2)))
        assert cert.singular
        assert not cert.is_optimal
        assert cert.max_violation == float("inf")

    def test_weighted_average_identity(self):
        # sum of w_ij (derivative + (m-1)) over the design equals m-1.
        rng = np.random.default_rng(43)
        for _ in range(30):
            m = int(rng.integers(2, 6))
            p = random_params(rng, m)
            d = random_design(rng, m)
            cert = kw_check(d, p)
            avg = sum(d.weight(q) * (v + m - 1) for q, v in cert.derivatives.items())
            assert avg == pytest.approx(m - 1, abs=1e-10)

    def test_certified_design_beats_random_designs(self):
        from btdesign import classify_m4

        rng = np.random.default_rng(47)
        points = [Parameters(4, (0.0, 0.0, 0.0)), random_params(rng, 4, scale=3.0)]
        for p in points:
            best = classify_m4(p).design
            assert kw_check(best, p).is_optimal
            ld_best = log_det(information_matrix(best, p))
            for _ in range(1000):
                ld = log_det(information_matrix(random_design(rng, 4), p))
                assert ld_best >= ld - 1e-8

    def test_support_pairs_are_equality_pairs_when_optimal(self):
        from btdesign import classify_m4

        rng = np.random.default_rng(49)
        for _ in range(25):
            p = random_params(rng, 4, scale=5.0)
            label = classify_m4(p)
            cert = kw_check(label.design, p)
            assert cert.is_optimal
            assert set(label.design.support()) <= cert.equality_pairs

    def test_symmetry_invariance(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            p = random_params(rng, 4)
            d = random_design(rng, 4)
            sigma = random_permutation(rng, 4)
            a = kw_check(d, p)
            b = kw_check(apply_to_design(sigma, d), apply_to_params(sigma, p))
            assert a.is_optimal == b.is_optimal
            assert a.max_violation == pytest.approx(b.max_violation, abs=1e-9)


class TestDEfficiency:
    def test_self_efficiency_is_one(self):
        rng = np.random.default_rng(59)
        p = random_params(rng, 4)
        d = random_design(rng, 4)
        assert d_efficiency(d, d, p) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_is_optimal_at_origin(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        from btdesign import classify_m4

        label = classify_m4(p)
        assert d_efficiency(Design.uniform(4), label.design, p) == pytest.approx(1.0, abs=1e-9)

    def test_approaches_one_half_on_the_line(self):
        from btdesign import classify_m4

        p = line_params(12.0)
        label = classify_m4(p)
        assert d_efficiency(Design.uniform(4), label.design, p) == pytest.approx(0.5, abs=0.02)

    def test_singular_design_has_zero_efficiency(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        cycle = Design.equal_on(4, [Pair(1, 2), Pair(1, 4), Pair(2, 4)])
        assert d_efficiency(cycle, Design.uniform(4), p) == 0.0

    def test_singular_reference_raises(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        cycle = Design.equal_on(4, [Pair(1, 2), Pair(1, 4), Pair(2, 4)])
        with pytest.raises(SingularMatrixError):
            d_efficiency(Design.uniform(4), cycle, p)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            p = random_params(rng, 4)
            d1, d2 = random_design(rng, 4), random_design(rng, 4)
            sigma = random_permutation(rng, 4)
            eff = d_efficiency(d1, d2, p)
            eff_t = d_efficiency(
                apply_to_design(sigma, d1), apply_to_design(sigma, d2), apply_to_params(sigma, p)
            )
            assert eff_t == pytest.approx(eff, rel=1e-10)

    def test_not_above_one_against_certified_optimum(self):
        from btdesign import classify_m4

        rng = np.random.default_rng(67)
        for _ in range(20):
            p = random_params(rng, 4)
            label = classify_m4(p)
            d = random_design(rng, 4)
            assert d_efficiency(d, label.design, p) <= 1.0 + 1e-10
