"""Multiplicative solver: convergence, monotonicity, safe deletion, Newton finishes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btdesign import (
    BtDesignError,
    Pair,
    Parameters,
    SingularMatrixError,
    all_pairs,
    classify_m4,
    find_optimal_saturated,
    kw_check,
    solve,
)
from btdesign.core import _derivatives, information_matrix, intensity_vector, log_det, regression_matrix
from btdesign.regions import sorted_beta_path
from btdesign.solver import (
    _NEWTON_STEPS,
    _STABLE_ITERATIONS,
    SolverConfig,
    _deletion_bound,
    _multiplicative_step,
    _newton_on_support,
)

from helpers import (
    count_derivative_calls,
    geometric_params,
    random_params,
    sample_in_path_region,
    tied_m4_points,
    uniform_m4_points,
)


def reference_solve_weights(params: Parameters, config: SolverConfig = SolverConfig()) -> np.ndarray:
    """solve's weights, replayed from intensity_vector(beta) and core._derivatives.

    The solver's loop on all pairs: stop once max d <= k + tolerance, delete
    the pairs below the Harman-Pronzato bound, try the Newton finish when
    the solver does, handing it the evaluation at w and adopting its result
    when the evaluation it returns passes on every pair, otherwise take one
    multiplicative step.
    """
    k = params.m - 1
    F = regression_matrix(params.m)
    lam = intensity_vector(params.beta)
    w = np.full(len(F), 1.0 / len(F))
    live = w > 0.0
    stable = 0
    for _ in range(config.max_iterations):
        d, Y = _derivatives(w, lam, F)
        eps = d.max() - k
        if eps <= config.kw_tolerance:
            return w
        doomed = live & (d < _deletion_bound(eps, k))
        live &= ~doomed
        w[doomed] = 0.0
        stable = 0 if doomed.any() else stable + 1
        if stable == _STABLE_ITERATIONS or (stable and live.sum() <= k + _NEWTON_STEPS):
            stable = 0
            finish = _newton_on_support(w, lam, F, k, live, d, Y)
            if finish is not None:
                trial, (trial_d, _) = finish
                if trial_d.max() - k <= config.kw_tolerance:
                    return trial
        w[live] *= d[live] / k
        w /= w.sum()
    return w


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

    def test_singular_initial_design_raises(self):
        # Far apart preferences leave the uniform start's information
        # matrix below the pivot threshold.
        with pytest.raises(SingularMatrixError, match="after 0 iterations"):
            solve(Parameters(5, (60.0, 30.0, 29.0, 28.0)))

    def test_iteration_cap_reported(self):
        result = solve(Parameters(4, (1.1, -1.8, -3.7)), SolverConfig(max_iterations=3))
        assert result.iterations == 3
        assert not result.converged

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_newton_finish_is_tried_as_soon_as_it_can_succeed(self, m):
        # Finishing only after 10 iterations without a deletion took up to
        # 20-41 iterations at these points; the first finish usually succeeds.
        rng = np.random.default_rng(257 + m)
        results = [solve(random_params(rng, m, scale=6.0)) for _ in range(100)]
        assert all(r.converged for r in results)
        assert max(r.iterations for r in results) <= 15
        assert np.median([r.newton_attempts for r in results]) == 1

    def test_large_support_retries_newton_periodically(self):
        # Supports above k + 30 pairs get a finish only every 10 iterations
        # without a deletion; never trying there took 1 547 iterations here.
        rng = np.random.default_rng(5)
        result = solve(Parameters(20, tuple(rng.uniform(-6.0, 6.0, 19))))
        assert result.converged
        assert result.iterations < 1000

    def test_cut_back_finishes_a_large_support_sooner(self):
        # The third m = 30 point of this stream: a finish that re-linearized
        # after every dropped pair failed here until iteration 188.
        rng = np.random.default_rng(5)
        points = [Parameters(30, tuple(rng.uniform(-6.0, 6.0, 29))) for _ in range(3)]
        result = solve(points[2])
        assert result.converged
        assert result.iterations <= 100

    @pytest.mark.parametrize("m, bound", [(4, 5.0), (5, 6.5), (6, 7.8), (7, 8.6), (8, 9.6)])
    def test_derivative_evaluations_per_solve(self, m, bound, monkeypatch):
        # Cost without a timer: one evaluation per iteration and per Newton
        # step after a finish's first, none for a converged finish's check or
        # the certificate.  Evaluating a finish's first model and its result
        # again averaged 5.44 / 7.10 / 8.67 / 9.60 / 10.56 evaluations at
        # m = 4..8 here.
        rng = np.random.default_rng(263 + m)
        points = [Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1))) for _ in range(100)]
        calls = count_derivative_calls(monkeypatch)
        assert all(solve(params).converged for params in points)
        assert calls[0] / len(points) < bound

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

    def test_certified_support_contains_sorted_path_edges(self):
        # The structure behind classify_m4's one candidate per kind, checked
        # without the closed forms: every optimal support keeps the edges of
        # the path that sorts beta.
        rng = np.random.default_rng(251)
        converged = 0
        for m in (4, 5, 6, 7):
            for _ in range(100):
                params = random_params(rng, m, scale=6.0)
                result = solve(params)
                if result.converged:
                    converged += 1
                    edges = set(sorted_beta_path(params).edges())
                    assert edges <= set(result.design.support()), params.beta
        assert converged == 400

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


    def test_weights_bitwise_equal_to_the_reference(self):
        rng = np.random.default_rng(2024)
        for m in range(3, 9):
            for _ in range(5):
                params = random_params(rng, m, scale=6.0)
                expected = reference_solve_weights(params)
                assert solve(params).design.as_vector().tobytes() == expected.tobytes(), params.beta

    def test_finish_returns_the_evaluation_at_its_weights(self, monkeypatch):
        # solve adopts and certifies from the evaluation a finish returns, so
        # it must be core._derivatives at the returned weights, bitwise: the
        # last model's for a converged finish, a fresh one on k pairs.
        ends = {"converged": 0, "k pairs": 0}

        def checked(w, lam, F, k, live, d, Y):
            finish = _newton_on_support(w, lam, F, k, live, d, Y)
            if finish is not None:
                trial, (trial_d, trial_Y) = finish
                expected_d, expected_Y = _derivatives(trial, lam, F)
                assert trial_d.tobytes() == expected_d.tobytes()
                assert trial_Y.tobytes() == expected_Y.tobytes()
                if np.count_nonzero(trial) == k:
                    ends["k pairs"] += 1
                elif trial_d.max() - k <= SolverConfig().kw_tolerance:
                    ends["converged"] += 1
            return finish

        monkeypatch.setattr("btdesign.solver._newton_on_support", checked)
        rng = np.random.default_rng(277)
        for m in range(3, 10):
            for _ in range(10):
                assert solve(random_params(rng, m, scale=6.0)).converged
        assert ends["converged"] > 0 and ends["k pairs"] > 0, ends


def assert_is_kw_check(result, params: Parameters, tolerance: float) -> None:
    """solve's certificate is field by field kw_check of its design, derivatives bitwise."""
    expected = kw_check(result.design, params, tolerance=tolerance)
    cert = result.certificate
    assert list(cert.derivatives) == list(expected.derivatives)
    assert [v.hex() for v in cert.derivatives.values()] == [v.hex() for v in expected.derivatives.values()]
    assert cert.max_violation.hex() == expected.max_violation.hex()
    assert cert.is_optimal == expected.is_optimal
    assert cert.equality_pairs == expected.equality_pairs
    assert cert.tolerance == expected.tolerance == tolerance
    assert cert.singular == expected.singular


class TestCertificate:
    """solve certifies its design from the evaluation it already holds."""

    def test_seeded_points(self):
        rng = np.random.default_rng(269)
        for m in range(2, 10):
            for _ in range(5):
                params = random_params(rng, m, scale=6.0)
                assert_is_kw_check(solve(params), params, SolverConfig().kw_tolerance)

    def test_iteration_cap(self):
        params = Parameters(4, (1.1, -1.8, -3.7))
        result = solve(params, SolverConfig(max_iterations=3))
        assert not result.converged
        assert_is_kw_check(result, params, SolverConfig().kw_tolerance)

    def test_tight_tolerance(self):
        rng = np.random.default_rng(271)
        config = SolverConfig(kw_tolerance=1e-12)
        for m in range(3, 9):
            for _ in range(3):
                params = random_params(rng, m, scale=6.0)
                result = solve(params, config)
                assert result.converged
                assert_is_kw_check(result, params, config.kw_tolerance)


class TestWholePipeline:
    """The solver against the closed forms and the path regions, from beta to design."""

    @given(st.one_of(uniform_m4_points(), tied_m4_points()))
    @settings(max_examples=300, deadline=None)
    def test_m4_log_det_matches_classification(self, params):
        try:
            label = classify_m4(params)
        except BtDesignError:
            return
        result = solve(params)
        assert result.converged, params.beta
        gap = log_det(information_matrix(label.design, params)) - log_det(
            information_matrix(result.design, params)
        )
        assert abs(gap) <= 1e-7, params.beta

    @given(st.integers(5, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_in_region_support_is_the_path(self, m, seed):
        path, params = sample_in_path_region(np.random.default_rng(seed), m)
        result = solve(params)
        assert set(result.design.support()) == set(path.edges()), params.beta
        for p in path.edges():
            assert result.design.weight(p) == pytest.approx(1.0 / (m - 1), abs=1e-6)
