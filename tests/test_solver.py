"""Active-set solver: path start, round 1's cactus trial, Fedorov-Wynn rounds and their retry, Newton finishes, the log-det guard."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btdesign import (
    KW_TOLERANCE,
    BtDesignError,
    Pair,
    Parameters,
    RegionKind,
    SingularMatrixError,
    all_pairs,
    classify_m4,
    find_optimal_saturated,
    kw_check,
    solve,
)
from btdesign.core import _derivatives, information_matrix, intensity_vector, log_det, regression_matrix
from btdesign.regions import _cactus_weights, sorted_beta_path
from btdesign.solver import MAX_ITERATIONS, _fedorov_wynn_step, _newton_on_support, _single_step

from helpers import (
    count_derivative_calls,
    count_factorizations,
    count_linalg_calls,
    geometric_params,
    random_params,
    sample_in_path_region,
    tied_m4_points,
    uniform_m4_points,
)


def draws_of(m: int, n: int) -> list[Parameters]:
    """The first n points of the stream default_rng(5 + m), beta uniform in [-6, 6]."""
    rng = np.random.default_rng(5 + m)
    return [Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1))) for _ in range(n)]


def factor_log_det(found) -> float:
    """log det M from the Cholesky factor L that core._derivatives returns."""
    return 2.0 * float(np.log(found[2].diagonal()).sum())


def forms_a_cactus(path, chords) -> bool:
    """Whether the path plus these all_pairs columns is a cactus: every chord spans two or more path
    edges, and no two chords' spans share one."""
    position = {v: at for at, v in enumerate(path.order)}
    pairs = [all_pairs(path.m)[c] for c in chords]
    spans = sorted(sorted((position[p.i], position[p.j])) for p in pairs)
    return all(b - a >= 2 for a, b in spans) and all(b <= a for (_, b), (a, _) in zip(spans, spans[1:]))


def reference_solve_weights(params: Parameters) -> np.ndarray:
    """solve's weights, replayed from intensity_vector(beta) and core._derivatives.

    The solver's rounds: start at 1/k on the sorted-beta path; stop once
    max d <= k + KW_TOLERANCE or at the last round.  Otherwise try, in order:
    in round 1 only, when the path plus its violators forms a cactus, the
    exact design on that support (regions._cactus_weights); then a step
    toward the k largest violators by a_p = (d_p - k) / (k (d_p - 1)),
    scaled to sum to at most 1/2; then the unscaled step toward the largest
    violator alone.  Both steps finish with Newton on the trial's support,
    and the finish replaces the trial unless it ranks lower.  Designs rank
    certified first, then by log det; the round adopts the first design
    that ranks higher than the one it started from, and the loop ends when
    none does.
    """
    k = params.m - 1
    F = regression_matrix(params.m)
    lam = intensity_vector(params.beta)
    path = sorted_beta_path(params)
    w = np.zeros(len(F))
    for edge in path.edges():
        w[all_pairs(params.m).index(edge)] = 1.0 / k

    def rank(found):
        return found[0].max() - k <= KW_TOLERANCE, factor_log_det(found)

    def finished(trial):
        stepped = _derivatives(trial, lam, F)
        if stepped is None:
            return trial, None
        finish = _newton_on_support(trial, lam, F, k, trial > 0.0, stepped)
        if finish is not None and rank(finish[1]) >= rank(stepped):
            return finish
        return trial, stepped

    def scaled_step(w, d):
        top = np.argsort(d, kind="stable")[-k:]
        top = top[d[top] - k > KW_TOLERANCE]
        a = (d[top] - k) / (k * (d[top] - 1.0))
        a *= min(1.0, 0.5 / a.sum())
        trial = (1.0 - a.sum()) * w
        trial[top] += a
        return finished(trial)

    def single_step(w, d):
        p = int(np.argmax(d))
        a = (d[p] - k) / (k * (d[p] - 1.0))
        trial = (1.0 - a) * w
        trial[p] += a
        return finished(trial)

    def exact(w, d):
        chords = [int(c) for c in np.flatnonzero(d - k > KW_TOLERANCE)]
        cactus = _cactus_weights(path, lam, chords) if forms_a_cactus(path, chords) else None
        return (None, None) if cactus is None else (cactus, _derivatives(cactus, lam, F))

    found = _derivatives(w, lam, F)
    for rounds in range(1, MAX_ITERATIONS + 1):
        held = rank(found)
        if held[0] or rounds == MAX_ITERATIONS:
            return w
        for trial_of in ([exact] if rounds == 1 else []) + [scaled_step, single_step]:
            trial, stepped = trial_of(w, found[0])
            if stepped is not None and rank(stepped) > held:
                w, found = trial, stepped
                break
        else:
            return w
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
            result = solve(random_params(rng, 4, scale=5.0))
            assert result.converged == result.certificate.is_optimal
            if result.converged:
                assert result.certificate.max_violation <= KW_TOLERANCE

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
                    w = solve(params, max_iterations=rounds).design.w
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
        result = solve(Parameters(4, (0.0, 0.0, 0.0)), max_iterations=1)
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
        # averaged 2.80 / 4.10 / 5.60 / 7.21 / 7.47 before round 1's cactus
        # trial and 1.73 / 2.58 / 4.37 / 6.32 / 7.22 with it, and is held
        # below bound.
        bound = {4: 3.5, 5: 4.8, 6: 6.2, 7: 7.4, 8: 8.0}[m]
        assert bound < ceiling
        rng = np.random.default_rng(263 + m)
        points = [Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1))) for _ in range(100)]
        calls = count_derivative_calls(monkeypatch)
        assert all(solve(params).converged for params in points)
        assert calls[0] / len(points) < bound

    @pytest.mark.parametrize("m, parent_calls", [(4, 392), (5, 641), (6, 1214), (7, 1844), (8, 2176)])
    def test_linalg_calls_per_solve(self, m, parent_calls, monkeypatch):
        # Cost without a timer, on test_derivative_evaluations_per_solve's
        # points: every numpy.linalg call, that is one Cholesky factor and one
        # triangular solve per evaluation and one KKT solve per Newton step
        # and per cut-back.  The solver before its Newton finish was rewritten
        # made parent_calls of them here (3.92 / 6.41 / 12.14 / 18.44 / 21.76
        # per solve); a cut-back that solved again or factored would add more.
        rng = np.random.default_rng(263 + m)
        points = [Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1))) for _ in range(100)]
        calls = count_linalg_calls(monkeypatch)
        for params in points:
            solve(params)
        assert 0 < calls[0] <= parent_calls

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
        result = solve(Parameters(7, beta))
        assert result.converged
        assert result.iterations < MAX_ITERATIONS
        assert result.certificate.max_violation <= KW_TOLERANCE

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

    def test_max_iterations_validation(self):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            solve(Parameters(4, (0.0, 0.0, 0.0)), max_iterations=0)

    @pytest.mark.parametrize(
        "beta, support",
        [
            ((-19.377768675282905, -19.26815366196174, 10.276852765489757), [(1, 2), (2, 4), (3, 4)]),
            (
                (-17.831879553857924, 18.856570321203506, -17.69676536718233, 19.873671896324453),
                [(1, 3), (2, 4), (2, 5), (3, 5)],
            ),
            ((18.887073911065173, -13.407574939786366, 18.931134002741636), [(1, 3), (1, 4), (2, 4)]),
            (
                (-16.70108896108241, 19.32399018562662, -4.631147552999417, 19.25238158780757),
                [(1, 3), (2, 4), (3, 5), (4, 5)],
            ),
        ],
    )
    def test_noise_floor_point_ends_on_the_optimal_support(self, beta, support):
        # At these points float rounding alone puts d - k at 1e-8 to 7.1e-8
        # on a support pair (1.17e-8 at the first m = 5 path's exact 1/4
        # weights), below KW_TOLERANCE, so the start path certifies.  The
        # multiplicative solver certified the first two after 26-31
        # iterations; at the last two a solver judging at 1e-8 stopped
        # uncertified, max_violation 2.05e-8 and 2.08e-8.
        result = solve(Parameters(len(beta) + 1, beta))
        assert result.converged and result.iterations == 1
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
                assert result.converged, result

    def test_weights_bitwise_equal_to_the_reference(self):
        rng = np.random.default_rng(2024)
        points = [random_params(rng, m, scale=6.0) for m in range(3, 9) for _ in range(5)]
        # Two m = 20 points whose scaled step stalls, so the largest violator's step runs.
        points += [draws_of(20, 140)[i] for i in (73, 87)]
        for params in points:
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
                elif held[0].max() - k <= KW_TOLERANCE:
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


REFERENCE = Path(__file__).parent / "data" / "solve_reference.json"


class TestReference:
    """solve against answers recorded from the solver before its Newton finish and round loop were rewritten.

    The file holds 40 points per m = 4..8 (beta uniform in [-6, 6], from
    default_rng(4000 + m)) and TestRetry's draws_of points at m = 20 and 30,
    where the scaled step stalls and the largest violator's step runs.
    Each record keeps the support, the rounds, converged, and the nonzero
    weights with their all_pairs columns.  The m = 30 solves take about
    0.7 s each, so the stalled draws are a slow test.
    """

    @staticmethod
    def check(record) -> None:
        result = solve(Parameters(record["m"], tuple(record["beta"])))
        where = record["source"], record["beta"]
        assert [p.key() for p in result.design.support()] == record["support"], where
        assert (result.iterations, result.converged) == (record["iterations"], record["converged"]), where
        expected = np.zeros(len(result.design.w))
        expected[record["columns"]] = record["weights"]
        assert np.abs(result.design.w - expected).max() <= 1e-12, where

    def test_points_are_the_documented_draws(self):
        data = json.loads(REFERENCE.read_text())
        seeded = {m: np.random.default_rng(4000 + m) for m in range(4, 9)}
        for record in data["solves"]:
            m = record["m"]
            if record["source"] == "seeded":
                expected = seeded[m].uniform(-6.0, 6.0, m - 1).tolist()
            else:
                i = int(record["source"].split("[")[-1].rstrip("]"))
                assert record["source"] == f"draws_of({m})[{i}]" and i in data["stalled_draws"][str(m)]
                expected = list(draws_of(m, i + 1)[i].beta)
            assert record["beta"] == expected, record["source"]
        assert [sum(r["m"] == m for r in data["solves"]) for m in range(4, 9)] == [40] * 5
        assert sorted(data["stalled_draws"]) == ["20", "30"]

    def test_seeded_solves_match_the_reference(self):
        for record in json.loads(REFERENCE.read_text())["solves"]:
            if record["source"] == "seeded":
                self.check(record)

    @pytest.mark.slow
    def test_stalled_solves_match_the_reference(self):
        for record in json.loads(REFERENCE.read_text())["solves"]:
            if record["source"] != "seeded":
                self.check(record)


class TestRetry:
    """A round whose scaled step does not rank above w retries the largest violator's step alone."""

    @pytest.mark.parametrize(
        "m, draws",
        [
            (20, (73, 87, 187)),
            (30, (9, 17, 18, 32, 60, 76, 90, 100, 101, 103, 120, 151, 173, 185, 199)),
        ],
    )
    def test_points_where_the_scaled_step_stalled_converge(self, m, draws, monkeypatch):
        # Without the retry these solves stopped uncertified at max_violation
        # 7-46: the scaled step toward all k violators lowered log det and its
        # finish met a singular system.
        retries = [0]

        def counted(w, d, k):
            retries[0] += 1
            return _single_step(w, d, k)

        monkeypatch.setattr("btdesign.solver._single_step", counted)
        points = draws_of(m, max(draws) + 1)
        for i in draws:
            retries[0] = 0
            result = solve(points[i])
            assert result.converged, i
            assert retries[0] > 0, i


class TestPathPlusChords:
    """Round 1's exact design on the sorted path plus its violators, where they form a cactus."""

    def test_m4_trial_is_the_four_point_shared_vertex_design(self, monkeypatch):
        given = []

        def recorded(path, lam, chords):
            given.append(_cactus_weights(path, lam, chords))
            return given[-1]

        monkeypatch.setattr("btdesign.solver._cactus_weights", recorded)
        rng = np.random.default_rng(293)
        taken = 0
        for _ in range(300):
            params = random_params(rng, 4, scale=6.0)
            given.clear()
            result = solve(params)
            if not given or given[0] is None:
                continue
            taken += 1
            assert result.design.w.tobytes() == given[0].tobytes(), params.beta
            assert result.iterations == 2
            label = classify_m4(params)
            assert label.kind is RegionKind.FOUR_POINT_SHARED_VERTEX, params.beta
            assert np.abs(result.design.w - label.design.w).max() <= 1e-12, params.beta
        assert taken >= 50, taken

    @pytest.mark.parametrize(
        "beta",
        [
            (-2.94, -0.66, 0.05),  # one chord
            (1.69, 0.23, -5.82, 4.69),
            (-5.21, -4.55, 4.21, 2.91, 4.02),
            (4.43, 4.53, 1.46, 0.26),  # two chords
            (5.86, 4.75, 1.91, 3.98, 0.53),
        ],
    )
    def test_a_cactus_point_costs_two_evaluations(self, beta, monkeypatch):
        # The start and the trial; the trial certifies, so round 2 stops.
        # The parent made 6 or 7 evaluations at these points.
        calls = count_derivative_calls(monkeypatch)
        result = solve(Parameters(len(beta) + 1, beta))
        assert result.converged and result.iterations == 2
        assert calls[0] == 2

    @pytest.mark.parametrize(
        "beta, parent_calls",
        [((-1.17, -2.26, 0.06, -5.9), 6), ((0.94, 0.91, 0.37, 2.82, -2.04), 12)],
    )
    def test_overlapping_violators_cost_what_they_cost_before(self, beta, parent_calls, monkeypatch):
        # The violators' spans along the path share an edge, so round 1 runs
        # the scaled step and its finish, as the parent did.
        params = Parameters(len(beta) + 1, beta)
        k = params.m - 1
        path = sorted_beta_path(params)
        d = _derivatives(path.design().w, params.intensities, regression_matrix(params.m))[0]
        assert not forms_a_cactus(path, np.flatnonzero(d - k > KW_TOLERANCE).tolist())
        calls = count_derivative_calls(monkeypatch)
        assert solve(params).converged
        assert calls[0] == parent_calls


def assert_is_kw_check(result, params: Parameters) -> None:
    """solve's certificate is field by field kw_check of its design, derivatives bitwise."""
    expected = kw_check(result.design, params)
    cert = result.certificate
    assert cert.derivatives.shape == expected.derivatives.shape
    assert cert.derivatives.tobytes() == expected.derivatives.tobytes()
    assert cert.max_violation.hex() == expected.max_violation.hex()
    assert cert.is_optimal == expected.is_optimal
    assert cert.tolerance == expected.tolerance == KW_TOLERANCE
    assert cert.singular == expected.singular


class TestCertificate:
    """solve certifies its design from the evaluation it already holds."""

    def test_seeded_points(self):
        rng = np.random.default_rng(269)
        for m in range(2, 10):
            for _ in range(5):
                params = random_params(rng, m, scale=6.0)
                assert_is_kw_check(solve(params), params)

    def test_iteration_cap(self):
        params = Parameters(4, (0.0, 0.0, 0.0))
        result = solve(params, max_iterations=1)
        assert not result.converged
        assert_is_kw_check(result, params)


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
