"""Active-set solver: path start, Fedorov-Wynn rounds, Newton finishes, the log-det guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btdesign import (
    KW_TOLERANCE,
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
from btdesign.solver import SolverConfig, _fedorov_wynn_step, _newton_on_support

from helpers import (
    count_derivative_calls,
    count_factorizations,
    geometric_params,
    random_params,
    sample_in_path_region,
    tied_m4_points,
    uniform_m4_points,
)


def factor_log_det(found) -> float:
    """log det M from the Cholesky factor L that core._derivatives returns."""
    return 2.0 * float(np.log(found[2].diagonal()).sum())


def reference_solve_weights(params: Parameters, config: SolverConfig = SolverConfig()) -> np.ndarray:
    """solve's weights, replayed from intensity_vector(beta) and core._derivatives.

    The solver's rounds: start at 1/k on the sorted-beta path; stop once
    max d <= k + tolerance or at the last round; otherwise step toward the
    k largest violators by a_p = (d_p - k) / (k (d_p - 1)), scaled to sum
    to at most 1/2, and finish with Newton on the trial's support.  Designs
    rank certified first, then by log det: the finish replaces the trial
    unless it ranks lower, and the round ends the loop unless it ranks
    higher than the design it started from.
    """
    k = params.m - 1
    F = regression_matrix(params.m)
    lam = intensity_vector(params.beta)
    w = np.zeros(len(F))
    for edge in sorted_beta_path(params).edges():
        w[all_pairs(params.m).index(edge)] = 1.0 / k
    found = _derivatives(w, lam, F)
    certified = found[0].max() - k <= config.kw_tolerance
    for rounds in range(1, config.max_iterations + 1):
        if certified or rounds == config.max_iterations:
            return w
        d = found[0]
        top = np.argsort(d, kind="stable")[-k:]
        top = top[d[top] - k > config.kw_tolerance]
        a = (d[top] - k) / (k * (d[top] - 1.0))
        a *= min(1.0, 0.5 / a.sum())
        trial = (1.0 - a.sum()) * w
        trial[top] += a
        stepped = _derivatives(trial, lam, F)
        finish = _newton_on_support(trial, lam, F, k, trial > 0.0, stepped)
        stepped_certified = stepped[0].max() - k <= config.kw_tolerance
        if finish is not None:
            finish_certified = finish[1][0].max() - k <= config.kw_tolerance
            if finish_certified > stepped_certified or (
                finish_certified == stepped_certified and factor_log_det(finish[1]) >= factor_log_det(stepped)
            ):
                (trial, stepped), stepped_certified = finish, finish_certified
        if not stepped_certified and factor_log_det(stepped) <= factor_log_det(found):
            return w
        w, found, certified = trial, stepped, stepped_certified
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
        # solve stopped after r rounds returns the design the guard adopted
        # last, so its log det (from the evaluation the guard compares)
        # never falls as r grows.
        rng = np.random.default_rng(223)
        for m in range(3, 10):
            F = regression_matrix(m)
            for _ in range(5):
                params = random_params(rng, m, scale=4.0)
                lam = intensity_vector(params.beta)
                last = -np.inf
                for rounds in range(1, solve(params).iterations + 1):
                    w = solve(params, SolverConfig(max_iterations=rounds)).design.w
                    current = factor_log_det(_derivatives(w, lam, F))
                    assert current >= last, (params.beta, rounds)
                    last = current

    def test_certified_design_is_fixed_point(self):
        # At an optimal design no pair violates k, so the Fedorov-Wynn step
        # toward the violators (at tolerance 0) leaves the weights in place.
        rng = np.random.default_rng(227)
        m = 4
        F = regression_matrix(m)
        for _ in range(10):
            params = random_params(rng, m, scale=4.0)
            label = classify_m4(params)
            lam = intensity_vector(params.beta)
            w = label.design.w
            stepped = _fedorov_wynn_step(w, _derivatives(w, lam, F)[0], m - 1, 0.0)
            assert np.abs(stepped - w).max() <= 1e-9

    def test_singular_initial_design_raises(self):
        # Far apart preferences leave the start path's information matrix
        # below the pivot threshold.
        with pytest.raises(SingularMatrixError, match="after 0 iterations"):
            solve(Parameters(5, (60.0, 30.0, 29.0, 28.0)))

    def test_iteration_cap_reported(self):
        # The m = 4 origin needs 2 rounds: the start path, then uniform weights.
        result = solve(Parameters(4, (0.0, 0.0, 0.0)), SolverConfig(max_iterations=1))
        assert result.iterations == 1
        assert not result.converged

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_newton_finish_is_tried_as_soon_as_it_can_succeed(self, m):
        # Every round after the first tries a finish; the multiplicative
        # solver this loop replaced took up to 4-8 iterations at these points.
        # Here at most 2-4 rounds, and in the median the first finish succeeds.
        rng = np.random.default_rng(257 + m)
        results = [solve(random_params(rng, m, scale=6.0)) for _ in range(100)]
        assert all(r.converged for r in results)
        assert max(r.iterations for r in results) <= 5
        assert np.median([r.iterations for r in results]) <= 2

    def test_large_support_retries_newton_periodically(self):
        # A finish runs every round, whatever the support's size; gating it
        # to k + 30 live pairs took 36 multiplicative iterations here.
        rng = np.random.default_rng(5)
        result = solve(Parameters(20, tuple(rng.uniform(-6.0, 6.0, 19))))
        assert result.converged
        assert result.iterations <= 6

    def test_cut_back_finishes_a_large_support_sooner(self):
        # The third m = 30 point of this stream: a finish that re-linearized
        # after every dropped pair failed here until iteration 188, and the
        # multiplicative solver with the cut-back took 71 iterations.
        rng = np.random.default_rng(5)
        points = [Parameters(30, tuple(rng.uniform(-6.0, 6.0, 29))) for _ in range(3)]
        result = solve(points[2])
        assert result.converged
        assert result.iterations <= 8

    @pytest.mark.parametrize("m, ceiling", [(4, 5.0), (5, 6.5), (6, 7.8), (7, 8.6), (8, 9.6)])
    def test_derivative_evaluations_per_solve(self, m, ceiling, monkeypatch):
        # Cost without a timer: one evaluation at the start, one per trial
        # and one per Newton step after a finish's first, none for a
        # converged finish's check or the certificate.  The multiplicative
        # solver this loop replaced averaged 4.34 / 5.64 / 6.87 / 7.65 / 8.57
        # evaluations at m = 4..8 here and was held below ceiling; this one
        # averages 2.80 / 4.10 / 5.60 / 7.21 / 7.47 and is held below bound,
        # between the two.
        bound = {4: 3.5, 5: 4.8, 6: 6.2, 7: 7.4, 8: 8.0}[m]
        assert bound < ceiling
        rng = np.random.default_rng(263 + m)
        points = [Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1))) for _ in range(100)]
        calls = count_derivative_calls(monkeypatch)
        assert all(solve(params).converged for params in points)
        assert calls[0] / len(points) < bound

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_one_factorization_per_evaluation(self, m, monkeypatch):
        # The log-det guard reads log det from the factor each evaluation
        # already holds, so a solve factors M exactly once per evaluation.
        rng = np.random.default_rng(263 + m)
        points = [Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1))) for _ in range(100)]
        calls = count_derivative_calls(monkeypatch)
        factorizations = count_factorizations(monkeypatch)
        for params in points:
            solve(params)
        assert factorizations[0] == calls[0] > 0

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

    @pytest.mark.parametrize(
        "beta, support",
        [
            ((-19.377768675282905, -19.26815366196174, 10.276852765489757), [(1, 2), (2, 4), (3, 4)]),
            (
                (-17.831879553857924, 18.856570321203506, -17.69676536718233, 19.873671896324453),
                [(1, 3), (2, 4), (2, 5), (3, 5)],
            ),
        ],
    )
    def test_noise_floor_point_ends_on_the_optimal_support(self, beta, support):
        # At these points float rounding alone puts d - k at 1e-8 to 2e-8 on
        # a support pair (1.17e-8 at the m = 5 path's exact 1/4 weights), so
        # the round cannot raise log det and the loop stops, at the support
        # the multiplicative solver certified there after 26-31 iterations.
        result = solve(Parameters(len(beta) + 1, beta))
        assert result.iterations <= 5
        assert result.design.support() == tuple(Pair(i, j) for i, j in support)
        assert result.certificate.max_violation < KW_TOLERANCE

    def test_wide_sweep_never_reaches_the_cap(self):
        # Without the log-det guard and the no-progress stop, the loop
        # cycled or stalled at such points, up to the 100 000-round cap.
        rng = np.random.default_rng(281)
        for m in (4, 5, 6, 8):
            for _ in range(100):
                result = solve(random_params(rng, m, scale=20.0))
                assert result.iterations <= 5, result
                assert result.converged or result.certificate.max_violation < KW_TOLERANCE, result

    def test_weights_bitwise_equal_to_the_reference(self):
        rng = np.random.default_rng(2024)
        for m in range(3, 9):
            for _ in range(5):
                params = random_params(rng, m, scale=6.0)
                expected = reference_solve_weights(params)
                assert solve(params).design.w.tobytes() == expected.tobytes(), params.beta

    def test_finish_returns_the_evaluation_at_its_weights(self, monkeypatch):
        # solve adopts and certifies from the evaluation a finish returns, so
        # it must be core._derivatives at the returned weights, bitwise: the
        # last model's for a converged finish, a fresh one on k pairs.
        ends = {"converged": 0, "k pairs": 0}

        def checked(w, lam, F, k, live, found):
            finish = _newton_on_support(w, lam, F, k, live, found)
            if finish is not None:
                trial, held = finish
                for value, fresh in zip(held, _derivatives(trial, lam, F), strict=True):  # d, Y and L
                    assert value.tobytes() == fresh.tobytes()
                if np.count_nonzero(trial) == k:
                    ends["k pairs"] += 1
                elif held[0].max() - k <= SolverConfig().kw_tolerance:
                    ends["converged"] += 1
            return finish

        monkeypatch.setattr("btdesign.solver._newton_on_support", checked)
        rng = np.random.default_rng(277)
        for m in range(3, 10):
            for _ in range(10):
                assert solve(random_params(rng, m, scale=6.0)).converged
        # A saturated optimum certifies at the start, so solves rarely end a
        # finish on k pairs; finish the path plus one more pair in its region.
        for m in range(3, 8):
            path, params = sample_in_path_region(rng, m)
            lam, F = intensity_vector(params.beta), regression_matrix(m)
            w = 0.9 * path.design().w
            w[np.flatnonzero(w == 0.0)[0]] = 0.1
            checked(w, lam, F, m - 1, w > 0.0, _derivatives(w, lam, F))
        assert ends["converged"] > 0 and ends["k pairs"] > 0, ends


def assert_is_kw_check(result, params: Parameters, tolerance: float) -> None:
    """solve's certificate is field by field kw_check of its design, derivatives bitwise."""
    expected = kw_check(result.design, params, tolerance=tolerance)
    cert = result.certificate
    assert cert.derivatives.shape == expected.derivatives.shape
    assert cert.derivatives.tobytes() == expected.derivatives.tobytes()
    assert cert.max_violation.hex() == expected.max_violation.hex()
    assert cert.is_optimal == expected.is_optimal
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
        params = Parameters(4, (0.0, 0.0, 0.0))
        result = solve(params, SolverConfig(max_iterations=1))
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
