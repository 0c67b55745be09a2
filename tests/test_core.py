"""Model primitive tests: intensities, regression vectors, information matrices."""

import copy
import io
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btdesign import (
    Design,
    Pair,
    Parameters,
    all_pairs,
    classify_m4,
    core,
    information_matrix,
    kw_check,
    log_det,
    regression_vector,
    solve,
)
from btdesign.cli import main
from btdesign.core import (
    IntensityUnderflowError,
    _derivatives,
    intensity_vector,
    regression_matrix,
)

from helpers import count_pair_hashes, exact_derivatives, geometric_params, random_design, random_params


def intensity(z: float) -> float:
    """The intensity of one log-odds difference: intensity_vector at m = 2."""
    return float(intensity_vector([z])[0])


class TestPair:
    def test_canonicalizes_order(self):
        assert Pair(3, 1) == Pair(1, 3)
        assert Pair(3, 1).i == 1 and Pair(3, 1).j == 3

    def test_key_round_trip(self):
        assert Pair.from_key(Pair(2, 4).key()) == Pair(2, 4)
        assert Pair.from_key("4-2") == Pair(2, 4)  # either order names the pair

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Pair(2, 2)
        with pytest.raises(ValueError):
            Pair(0, 1)


class TestParameters:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Parameters(4, (0.0, 0.0))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            Parameters(3, (1.0, float("nan")))

    def test_too_few_alternatives(self):
        with pytest.raises(ValueError):
            Parameters(1, ())


class TestParametersIntensities:
    def test_bitwise_equal_to_intensity_vector(self):
        rng = np.random.default_rng(11)
        for m in range(2, 9):
            params = random_params(rng, m, scale=12.0)
            assert params.intensities.tobytes() == intensity_vector(params.beta).tobytes()

    def test_computed_once_and_read_only(self):
        params = Parameters(4, (1.0, -2.0, 0.5))
        assert params.intensities is params.intensities
        assert not params.intensities.flags.writeable
        with pytest.raises(ValueError):
            params.intensities[0] = 0.0

    def test_no_part_in_eq_hash_or_repr(self):
        used, fresh = Parameters(4, (1.0, -2.0, 0.5)), Parameters(4, (1.0, -2.0, 0.5))
        used.intensities
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "Parameters(m=4, beta=(1.0, -2.0, 0.5))"

    def test_survives_pickling(self):
        params = Parameters(5, (3.0, -1.0, 0.25, 7.0))
        expected = params.intensities.tobytes()
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params
        assert copy.intensities.tobytes() == expected
        assert not copy.intensities.flags.writeable

    def test_past_the_certifiable_range_constructs_and_every_access_raises(self):
        params = Parameters(4, (800.0, 0.0, 0.0))
        for _ in range(2):
            with pytest.raises(IntensityUnderflowError):
                params.intensities


class TestIntensity:
    def test_peak_at_zero(self):
        assert intensity(0.0) == 0.25

    def test_closed_form_log3(self):
        assert intensity(math.log(3.0)) == pytest.approx(3.0 / 16.0, rel=1e-15)

    def test_even_function(self):
        assert intensity(7.3) == intensity(-7.3)

    def test_large_argument_is_stable(self):
        # Reference value from a 50-digit evaluation of e^z/(1+e^z)^2 at z=40.
        assert intensity(40.0) == pytest.approx(4.248354255291589e-18, rel=1e-14)
        assert intensity(700.0) > 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf * 0 on the way to the error
    def test_rejects_non_finite(self):
        for z in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                intensity(z)
            with pytest.raises(ValueError):
                intensity_vector([[0.0, 1.0], [z, 0.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gap_past_the_float_range_underflows(self):
        # Finite log-preferences whose difference overflows: an infinite gap, intensity 0.
        with pytest.raises(IntensityUnderflowError):
            intensity_vector([1.7976931348623157e308, -9.9792015476736e291])

    @given(st.floats(min_value=-60.0, max_value=60.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_even_and_bounded(self, z):
        v = intensity(z)
        assert v == intensity(-z)
        assert 0.0 < v <= 0.25
        # Strictness below the peak is only resolvable away from z = 0 in
        # double precision (the deficit is quadratic in z).
        if abs(z) >= 1e-6:
            assert v < 0.25


class TestIntensityTable:
    """The intensities of all pairs at a point, from intensity_vector in all_pairs order."""

    def test_all_quarter_at_origin(self):
        table = intensity_vector(Parameters(4, (0.0, 0.0, 0.0)).beta)
        assert table.shape == (len(all_pairs(4)),)
        assert all(v == 0.25 for v in table)

    def test_underflow_is_a_package_error(self):
        with pytest.raises(IntensityUnderflowError):
            intensity_vector(Parameters(4, (800.0, 0.0, 0.0)).beta)
        with pytest.raises(IntensityUnderflowError):  # one underflowing point in a batch
            intensity_vector([[0.0, 0.0, 0.0], [800.0, 0.0, 0.0]])

    def test_geometric_point(self):
        # beta_i = i * log(2), so pi_i = 2^i: lambda_12 = pi1/(1+pi1)^2 = 2/9.
        c = math.log(2.0)
        p = Parameters(4, (c, 2 * c, 3 * c))
        assert intensity_vector(p.beta)[all_pairs(4).index(Pair(1, 2))] == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_two_alternatives(self):
        table = intensity_vector(Parameters(2, (0.0,)).beta)
        assert table.tolist() == [0.25]

    def test_matches_preference_ratio_form(self):
        # lambda depends on beta only through differences: the pi form
        # pi_i pi_j / (pi_i + pi_j)^2 must agree to near machine precision.
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = random_params(rng, 5, scale=8.0)
            pi = np.exp(np.append(np.asarray(p.beta), 0.0))
            table = intensity_vector(p.beta)
            for pair, value in zip(all_pairs(5), table):
                expected = pi[pair.i - 1] * pi[pair.j - 1] / (pi[pair.i - 1] + pi[pair.j - 1]) ** 2
                assert value == pytest.approx(expected, rel=1e-14)


class TestRegressionVector:
    def test_m4_table(self):
        assert regression_vector(Pair(1, 2), 4).tolist() == [1, -1, 0]
        assert regression_vector(Pair(2, 4), 4).tolist() == [0, 1, 0]
        assert regression_vector(Pair(3, 4), 4).tolist() == [0, 0, 1]
        assert regression_vector(Pair(1, 3), 4).tolist() == [1, 0, -1]
        assert regression_vector(Pair(1, 4), 4).tolist() == [1, 0, 0]
        assert regression_vector(Pair(2, 3), 4).tolist() == [0, 1, -1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            regression_vector(Pair(2, 5), 4)

    def test_regression_matrix_stacks_the_vectors_bitwise(self):
        for m in range(2, 13):
            stacked = np.array([regression_vector(p, m) for p in all_pairs(m)], dtype=float)
            F = regression_matrix(m)
            assert (F.dtype, F.shape, F.tobytes()) == (stacked.dtype, stacked.shape, stacked.tobytes())
            assert not F.flags.writeable


class TestDesign:
    def test_uniform(self):
        d = Design.uniform(4)
        assert d.weight(Pair(1, 2)) == pytest.approx(1.0 / 6.0)
        assert len(d.support()) == 6

    def test_support_threshold(self):
        d = Design(3, {Pair(1, 2): 0.5, Pair(1, 3): 0.5 - 1e-10, Pair(2, 3): 1e-10})
        assert Pair(2, 3) not in d.support()
        assert Pair(1, 3) in d.support()

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Design(3, {Pair(1, 2): 1.1, Pair(1, 3): -0.1})

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Design(3, {Pair(1, 2): 0.5, Pair(1, 3): 0.5 + 1e-9})

    def test_rejects_out_of_range_pair(self):
        with pytest.raises(ValueError):
            Design(3, {Pair(1, 4): 1.0})

    def test_rejects_wrong_length_array(self):
        with pytest.raises(ValueError, match="expected 6 weights"):
            Design(4, np.full(5, 0.2))
        with pytest.raises(ValueError, match="expected 6 weights"):
            Design(4, np.full((2, 3), 1.0 / 6.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25], ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("form", ["array", "mapping"])
    def test_rejects_a_non_finite_or_negative_weight_naming_the_first(self, bad, form):
        # Two bad weights: the message names the first in the input's order.
        pairs = all_pairs(4)
        values = [0.5, 0.75, bad, 0.0, bad, 0.0]
        w = np.array(values) if form == "array" else dict(zip(pairs, values))
        with pytest.raises(ValueError) as excinfo:
            Design(4, w)
        assert str(excinfo.value) == f"weight for {pairs[2]} must be finite and nonnegative, got {np.float64(bad)}"

    @pytest.mark.parametrize("form", ["array", "mapping"])
    def test_accepts_negative_zero_and_subnormal_weights(self, form):
        tiny = 5e-324
        values = [0.5, -0.0, tiny, 0.5 - tiny, 0.0, 0.0]
        w = np.array(values) if form == "array" else dict(zip(all_pairs(4), values))
        assert Design(4, w).w.tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize(
        "w",
        [
            np.ones(3) / 3,
            {Pair(1, 2): 0.5},
            *({Pair(1, 2): 1.0, Pair(3, 4): x} for x in (math.nan, math.inf, -math.inf, -0.5)),
        ],
        ids=["array", "mapping", "nan", "inf", "-inf", "negative"],
    )
    def test_bad_input_is_refused_before_any_pair_table(self, monkeypatch, w):
        # At m = 10**6 a pair table would hold 5e11 entries.
        def small_only(table):
            def guarded(m):
                if m > 1000:
                    raise AssertionError(f"built a pair table for m={m}")
                return table(m)

            return guarded

        monkeypatch.setattr(core, "all_pairs", small_only(core.all_pairs))
        monkeypatch.setattr(core, "_pair_columns", small_only(core._pair_columns))
        with pytest.raises(ValueError):
            Design(10**6, w)

    def test_mapping_and_array_agree(self):
        rng = np.random.default_rng(61)
        for m in range(2, 10):
            pairs = all_pairs(m)
            w = rng.dirichlet(np.ones(len(pairs)))
            assert Design(m, dict(zip(pairs, w))).w.tobytes() == Design(m, w).w.tobytes()
            # Pairs absent from a mapping weigh 0.
            on = sorted(rng.choice(len(pairs), size=m - 1, replace=False).tolist())
            sparse = np.zeros(len(pairs))
            sparse[on] = 1.0 / len(on)
            from_mapping = Design(m, {pairs[k]: 1.0 / len(on) for k in on})
            assert from_mapping.w.tobytes() == Design(m, sparse).w.tobytes()
            assert from_mapping.support() == tuple(pairs[k] for k in on)

    def test_weights_are_a_read_only_copy(self):
        w = np.full(6, 1.0 / 6.0)
        d = Design(4, w)
        assert not d.w.flags.writeable and not np.shares_memory(d.w, w)
        with pytest.raises(ValueError):
            d.w[0] = 0.5
        w[0], w[1] = 0.0, 1.0 / 3.0  # the caller keeps using its own array
        assert d.w.tolist() == [1.0 / 6.0] * 6
        solved = solve(Parameters(4, (1.0, -0.5, 2.0))).design
        assert not solved.w.flags.writeable

    @pytest.mark.parametrize("copy_of", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy, copy.copy])
    def test_copies_stay_read_only(self, copy_of):
        d = Design(4, np.array([0.5, 0.0, 0.0, 0.25, 0.0, 0.25]))
        c = copy_of(d)
        assert c.m == 4 and c.w.tobytes() == d.w.tobytes()
        assert not c.w.flags.writeable
        with pytest.raises(ValueError):
            c.w[0] = 0.0

    def test_vector_round_trip(self):
        rng = np.random.default_rng(0)
        d = random_design(rng, 4)
        assert Design(4, d.w).w.tobytes() == d.w.tobytes()


class TestInformationMatrix:
    def test_saturated_block_structure(self):
        # Weight 1/3 on (1,2), (1,3), (2,4): the matrix is the displayed
        # combination of the three rank-one terms.
        rng = np.random.default_rng(5)
        p = random_params(rng, 4)
        lam = dict(zip(all_pairs(4), intensity_vector(p.beta)))
        d = Design.equal_on(4, [Pair(1, 2), Pair(1, 3), Pair(2, 4)])
        l12, l13, l24 = lam[Pair(1, 2)], lam[Pair(1, 3)], lam[Pair(2, 4)]
        expected = (
            np.array(
                [
                    [l12 + l13, -l12, -l13],
                    [-l12, l12 + l24, 0.0],
                    [-l13, 0.0, l13],
                ]
            )
            / 3.0
        )
        np.testing.assert_allclose(information_matrix(d, p), expected, atol=1e-15)

    def test_single_pair_is_rank_one(self):
        p = Parameters(3, (0.3, -0.2))
        d = Design(3, {Pair(1, 2): 1.0})
        M = information_matrix(d, p)
        assert np.linalg.matrix_rank(M) == 1
        assert log_det(M) == float("-inf")

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = random_params(rng, 4)
            d = random_design(rng, 4)
            lam = dict(zip(all_pairs(4), intensity_vector(p.beta)))
            expected = np.zeros((3, 3))
            for pair in all_pairs(4):
                f = regression_vector(pair, 4).astype(float)
                expected += d.weight(pair) * lam[pair] * np.outer(f, f)
            M = information_matrix(d, p)
            assert M.shape == (3, 3) and (M == M.T).all()
            np.testing.assert_allclose(M, expected, atol=1e-15)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(23)
        p = random_params(rng, 4)
        d1, d2 = random_design(rng, 4), random_design(rng, 4)
        for alpha in (0.25, 0.5, 0.9):
            mixed = Design(
                4, {q: alpha * d1.weight(q) + (1 - alpha) * d2.weight(q) for q in all_pairs(4)}
            )
            M_mix = information_matrix(mixed, p)
            M_lin = alpha * information_matrix(d1, p) + (1 - alpha) * information_matrix(d2, p)
            np.testing.assert_allclose(M_mix, M_lin, atol=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = random_params(rng, 5)
            d = random_design(rng, 5)
            M = information_matrix(d, p)
            lo = np.linalg.eigvalsh(M).min()
            assert lo >= -1e-12 * np.linalg.norm(M)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            information_matrix(Design.uniform(4), Parameters(3, (0.0, 0.0)))


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(3)) == 0.0

    def test_cycle_design_is_singular(self):
        # A 3-cycle on {1,2,4} leaves alternative 3 out of the design.
        p = Parameters(4, (0.1, -0.4, 0.2))
        cycle = Design.equal_on(4, [Pair(1, 2), Pair(1, 4), Pair(2, 4)])
        assert log_det(information_matrix(cycle, p)) == float("-inf")

    def test_subnormal_pivot_is_singular(self):
        # m = 2 at a gap of 710: M is the one subnormal intensity, and 1/M overflows.
        M = information_matrix(Design.uniform(2), Parameters(2, (710.0,)))
        assert 0.0 < M[0, 0] < np.finfo(float).tiny
        assert log_det(M) == float("-inf")

    def test_cofactor_oracle_uniform_origin(self):
        p = Parameters(4, (0.0, 0.0, 0.0))
        M = information_matrix(Design.uniform(4), p)
        a = M
        det = (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
        assert log_det(M) == pytest.approx(math.log(det), rel=1e-12)

    def test_concave_along_mixtures(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r1 = rng.normal(size=(3, 3))
            r2 = rng.normal(size=(3, 3))
            m1 = r1 @ r1.T + 0.05 * np.eye(3)
            m2 = r2 @ r2.T + 0.05 * np.eye(3)
            mid = log_det((m1 + m2) / 2.0)
            avg = 0.5 * (log_det(m1) + log_det(m2))
            assert mid >= avg - 1e-10


class TestDerivativeKernel:
    """_derivatives: d = lambda f^T M^{-1} f and Y = L^{-1} F^T from one factor L of M, returned too."""

    def test_residual_against_the_inverse(self):
        rng = np.random.default_rng(37)
        for m in range(3, 9):
            F = regression_matrix(m)
            for _ in range(5):
                params, design = random_params(rng, m), random_design(rng, m)
                M = information_matrix(design, params)
                d, Y, L = _derivatives(design.w, params.intensities)
                assert np.abs(L @ L.T - M).max() <= 1e-13 * np.abs(M).max()
                X = F @ np.linalg.inv(M)  # row p is (M^{-1} f_p)^T
                G = Y.T @ Y
                assert np.linalg.norm(G - X @ F.T) <= 1e-10 * np.linalg.norm(G)
                np.testing.assert_allclose(d, params.intensities * np.diag(G), rtol=1e-13)

    def test_log_det_is_read_from_the_kernels_factor(self):
        # The CLI prints log det from the factor that certified the design:
        # bitwise the public log_det of the public information_matrix, whose
        # assembly is exactly symmetric.
        rng = np.random.default_rng(3)
        for m in range(3, 13):
            for _ in range(10):
                params, design = random_params(rng, m, scale=8.0), random_design(rng, m)
                M = information_matrix(design, params)
                assert (M == M.T).all()
                L = _derivatives(design.w, params.intensities)[2]
                assert core._factor_log_det(L) == log_det(M)

    def test_singular_gives_none(self):
        # A support that never compares alternative 1, or never the control m,
        # leaves an alternative apart from the control, and M singular.
        for m in range(3, 9):
            lam = intensity_vector(np.zeros(m - 1))
            for apart in (lambda p: p.i != 1, lambda p: p.j != m):
                design = Design.equal_on(m, filter(apart, all_pairs(m)))
                assert _derivatives(design.w, lam) is None
                assert log_det(information_matrix(design, Parameters(m, (0.0,) * (m - 1)))) == -math.inf

    def test_matches_the_fraction_oracle(self):
        # Full-support designs at beta uniform in [-6, 6] stay within 2e-14
        # of the exact values; far larger |beta| is where they drift.
        rng = np.random.default_rng(11)
        for m in (4, 5, 6):
            for _ in range(25):
                w = rng.dirichlet(np.ones(m * (m - 1) // 2))
                lam = intensity_vector(rng.uniform(-6.0, 6.0, m - 1))
                exact = exact_derivatives(w, lam)
                for x, y in zip(_derivatives(w, lam)[0].tolist(), exact, strict=True):
                    assert abs(Fraction(x) - y) <= Fraction(1, 10**12) * y, (m, w, lam)

    def test_path_inverse_closed_form(self):
        # Canonical path at the origin: M = (1/12) F^T F with F the path's
        # regression rows, so M^{-1} f(1,4) = 12 U U^T e_1 with U the
        # all-ones upper triangle, and f(1,4)^T M^{-1} f(1,4) = 36.
        p = Parameters(4, (0.0, 0.0, 0.0))
        d = Design.equal_on(4, [Pair(1, 2), Pair(2, 3), Pair(3, 4)])
        values, Y, _ = _derivatives(d.w, intensity_vector(p.beta))
        f14 = all_pairs(4).index(Pair(1, 4))
        F = regression_matrix(4)
        np.testing.assert_allclose(Y.T @ Y[:, f14], F @ [36.0, 24.0, 12.0], rtol=1e-10)
        assert values[f14] == pytest.approx(0.25 * 36.0, rel=1e-12)


def inner_form_intensities(beta) -> np.ndarray:
    """intensity_vector's np.inner form without the underflow check: its bitwise reference."""
    beta = np.asarray(beta, dtype=float)
    with np.errstate(over="ignore"):
        z = np.inner(beta, regression_matrix(beta.shape[-1] + 1))
    a = np.exp(-np.abs(z))
    return np.minimum(a / (1.0 + a) ** 2, 0.25)


class TestIntensityVector:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bitwise_equal_to_the_inner_form(self):
        # Single points and batches at scales where gaps overflow the floats
        # (1e308) and where intensities underflow to 0 (800), which must raise.
        rng = np.random.default_rng(71)
        for m in (2, 3, 4, 6):
            for scale in (1.0, 10.0, 40.0, 400.0, 800.0, 1e308):
                betas = rng.uniform(-1.0, 1.0, size=(64, m - 1)) * scale
                # A batch, single points as arrays, and single points as the tuples Parameters holds.
                for beta in (betas, *betas[:8], *map(tuple, betas[8:16].tolist())):
                    expected = inner_form_intensities(beta)
                    if np.count_nonzero(expected > 0.0) < expected.size:
                        with pytest.raises(IntensityUnderflowError):
                            intensity_vector(beta)
                    else:
                        assert intensity_vector(beta).tobytes() == expected.tobytes()

    def test_matches_table(self):
        # A batch of points gives each point's table, row by row.
        rng = np.random.default_rng(41)
        betas = np.array([random_params(rng, 5).beta for _ in range(4)])
        batch = intensity_vector(betas)
        assert batch.shape == (4, len(all_pairs(5)))
        for beta, row in zip(betas, batch):
            assert row.tolist() == intensity_vector(beta).tolist()


class TestPairHashes:
    """Designs and certificates are arrays, so answering hashes no Pair."""

    def test_none_in_solve_classify_m4_or_kw_check(self, monkeypatch):
        rng = np.random.default_rng(67)
        solves = [random_params(rng, m, scale=6.0) for m in range(4, 9) for _ in range(3)]
        m4 = [random_params(rng, 4, scale=8.0) for _ in range(40)]
        m4 += [Parameters(4, beta) for beta in ((1.7, 0.85, 2.125), (2.5, 1.25, 3.125), (-12.0, -12.0, 0.0))]
        hashes = count_pair_hashes(monkeypatch)
        designs = [(solve(p).design, p) for p in solves]
        kinds = {classify_m4(p).kind for p in m4}
        for design, p in designs:
            kw_check(design, p)
        assert hashes == [0]
        assert len(kinds) == 4  # every closed-form kind was reached

    def test_few_in_an_in_region_m30_classify(self, monkeypatch):
        beta = ",".join(repr(b) for b in geometric_params(30, 25.0).beta)
        out = io.StringIO()
        hashes = count_pair_hashes(monkeypatch)
        assert main(["classify", "--m", "30", f"--beta={beta}"], stdout=out) == 0
        assert json.loads(out.getvalue())["kind"] == "saturated"
        assert hashes[0] <= 64
