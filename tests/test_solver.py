"""Multiplicative solver: convergence, monotonicity, safe deletion, restriction."""

import numpy as np
import pytest

from btdesign import (
    Design,
    Pair,
    Parameters,
    SingularMatrixError,
    all_pairs,
    classify_m4,
    find_optimal_saturated,
    solve,
    solve_restricted,
)
from btdesign.core import _derivatives, intensity_vector, log_det, regression_matrix
from btdesign.solver import SolverConfig, _deletion_bound, _multiplicative_step

from helpers import geometric_params, random_params, sample_in_path_region


class TestSolve:
    def test_origin_m4_uniform(self):
        result = solve(Parameters(4, (0.0, 0.0, 0.0)))
        assert result.converged
        for p in all_pairs(4):
            assert result.design.weight(p) == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_origin_m3_uniform(self):
        result = solve(Parameters(3, (0.0, 0.0)))
        assert result.converged
        for p in all_pairs(3):
            assert result.design.weight(p) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_two_alternatives(self):
        result = solve(Parameters(2, (0.7,)))
        assert result.converged and result.iterations == 1
        assert result.design.weight(Pair(1, 2)) == 1.0

    def test_geometric_m5_recovers_path(self):
        params = geometric_params(5, 20.0)
        result = solve(params)
        assert result.converged
        support = result.design.support()
        assert set(support) == {Pair(1, 2), Pair(2, 3), Pair(3, 4), Pair(4, 5)}
        for p in support:
            assert result.design.weight(p) == pytest.approx(0.25, abs=1e-9)
        found = find_optimal_saturated(params)
        assert found is not None and set(found[0].edges()) == set(support)

    def test_converged_implies_certificate(self):
        rng = np.random.default_rng(211)
        for _ in range(20):
            config = SolverConfig()
            result = solve(random_params(rng, 4, scale=5.0), config)
            if result.converged:
                assert result.certificate.max_violation <= config.kw_tolerance

    def test_log_det_monotone_along_iteration(self):
        rng = np.random.default_rng(223)
        m = 4
        F = regression_matrix(m)
        for _ in range(5):
            params = random_params(rng, m, scale=4.0)
            lam = intensity_vector(params.beta)
            w = rng.dirichlet(np.ones(len(all_pairs(m))))
            last = log_det(F.T @ (F * (w * lam)[:, None]))
            for _ in range(200):
                w = _multiplicative_step(w, lam, F, m)
                current = log_det(F.T @ (F * (w * lam)[:, None]))
                assert current >= last - 1e-10
                last = current

    def test_certified_design_is_fixed_point(self):
        rng = np.random.default_rng(227)
        m = 4
        F = regression_matrix(m)
        for _ in range(10):
            params = random_params(rng, m, scale=4.0)
            label = classify_m4(params)
            lam = intensity_vector(params.beta)
            w = label.design.as_vector()
            stepped = _multiplicative_step(w, lam, F, m)
            assert np.abs(stepped - w).max() <= 1e-9

    def test_custom_initial_design(self):
        params = Parameters(4, (0.4, -0.3, 0.2))
        skewed = {p: 0.05 for p in all_pairs(4)}
        skewed[Pair(1, 2)] = 0.75
        config = SolverConfig(initial_design=Design(4, skewed))
        result = solve(params, config)
        reference = solve(params)
        for p in all_pairs(4):
            assert result.design.weight(p) == pytest.approx(reference.design.weight(p), abs=1e-6)

    def test_singular_initial_design_raises(self):
        cycle = Design.equal_on(4, [Pair(1, 2), Pair(1, 4), Pair(2, 4)])
        with pytest.raises(SingularMatrixError):
            solve(Parameters(4, (0.0, 0.0, 0.0)), SolverConfig(initial_design=cycle))

    def test_iteration_cap_reported(self):
        result = solve(Parameters(4, (2.0, 1.0, 2.5)), SolverConfig(max_iterations=3))
        assert result.iterations == 3
        assert not result.converged

    def test_m7_tail_point_converges(self):
        # Outside every path region; this solve once hit the 100 000-iteration cap.
        beta = (-2.389172507307342, -5.831192976807449, 3.5680804896961824,
                -5.735195029649638, -1.0698048806276548, -2.4131484039801387)
        config = SolverConfig()
        result = solve(Parameters(7, beta), config)
        assert result.converged
        assert result.iterations < config.max_iterations
        assert result.certificate.max_violation <= config.kw_tolerance

    def test_support_discovery_matches_regions(self):
        rng = np.random.default_rng(229)
        for m in (4, 5):
            for _ in range(20):
                path, params = sample_in_path_region(rng, m)
                result = solve(params)
                assert set(result.design.support()) == set(path.edges())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(kw_tolerance=0.0)

    def test_deletion_bound_spares_optimal_support(self):
        # The Harman-Pronzato bound, evaluated along multiplicative paths from
        # random starts, never rules out a pair of the known optimal design.
        rng = np.random.default_rng(241)
        cases = [(classify_m4(p).design.support(), p) for p in (random_params(rng, 4) for _ in range(15))]
        cases += [(path.edges(), p) for path, p in (sample_in_path_region(rng, 5) for _ in range(15))]
        deleted = 0
        for support, params in cases:
            m, support = params.m, set(support)
            F = regression_matrix(m)
            lam = intensity_vector(params.beta)
            keep = np.array([p in support for p in all_pairs(m)])
            w = rng.dirichlet(np.ones(len(all_pairs(m))))
            for _ in range(100):
                d, _ = _derivatives(w, lam, F)
                eps = d.max() - (m - 1)
                if eps <= 0.0:
                    break
                doomed = d < _deletion_bound(eps, m - 1)
                assert not np.any(doomed & keep), (params, support)
                deleted += int(doomed.sum())
                w = _multiplicative_step(w, lam, F, m)
        assert deleted > 0


class TestSolveRestricted:
    def test_full_support_matches_solve(self):
        params = Parameters(4, (0.5, -0.2, 0.3))
        full = solve(params)
        restricted = solve_restricted(params, all_pairs(4))
        for p in all_pairs(4):
            assert restricted.design.weight(p) == pytest.approx(full.design.weight(p), abs=1e-7)
        assert restricted.converged

    def test_path_support_forces_equal_weights(self):
        rng = np.random.default_rng(233)
        edges = [Pair(1, 2), Pair(2, 3), Pair(3, 4)]
        for _ in range(10):
            params = random_params(rng, 4, scale=5.0)
            result = solve_restricted(params, edges)
            assert result.converged
            for p in edges:
                assert result.design.weight(p) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_claw_restricted_optimal_but_never_globally(self):
        rng = np.random.default_rng(239)
        claw = [Pair(1, 2), Pair(1, 3), Pair(1, 4)]
        for _ in range(50):
            params = random_params(rng, 4, scale=6.0)
            result = solve_restricted(params, claw)
            assert result.converged
            assert result.certificate.is_optimal
            assert not result.full_certificate.is_optimal
            for p in claw:
                assert result.design.weight(p) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_non_spanning_support_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_restricted(Parameters(4, (0.0, 0.0, 0.0)), [Pair(1, 2), Pair(1, 3), Pair(2, 3)])

    def test_restricted_reports_both_certificates(self):
        # Restricting to a five-pair support at the origin: best-on-support
        # is not globally best, and the two certificates must say so.
        params = Parameters(4, (0.0, 0.0, 0.0))
        support = [p for p in all_pairs(4) if p != Pair(1, 2)]
        result = solve_restricted(params, support)
        assert result.converged
        assert result.certificate.is_optimal
        assert set(result.certificate.derivatives) == set(support)
        assert set(result.full_certificate.derivatives) == set(all_pairs(4))
        assert not result.full_certificate.is_optimal
        assert result.full_certificate.derivatives[Pair(1, 2)] > 0.0

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            solve_restricted(Parameters(3, (0.0, 0.0)), [Pair(1, 4)])
