"""Model primitive tests: intensities, regression vectors, information matrices."""

import copy
import io
import json
import math
import pickle

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

from helpers import count_pair_hashes, geometric_params, random_design, random_params


def intensity(z: float) -> float:
    """The intensity of one log-odds difference: intensity_vector at m = 2."""
    return float(intensity_vector([z])[0])


class TestPair:
    def test_canonicalizes_order(self):
        assert Pair(3, 1) == Pair(1, 3)
        assert Pair(3, 1).i == 1 and Pair(3, 1).j == 3

    def test_key_round_trip(self):
        assert Pair.from_key(Pair(2, 4).key()) == Pair(2, 4)

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

    @pytest.mark.parametrize("w", [np.ones(3) / 3, {Pair(1, 2): 0.5}], ids=["array", "mapping"])
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

    def test_scaled_identity(self):
        # F = I and w * lambda = 2 give M = 2 I, so M^{-1} f = f / 2.
        w, lam = np.full(3, 0.5), np.full(3, 4.0)
        d, Y, L = _derivatives(w, lam, np.eye(3))
        np.testing.assert_allclose(Y.T @ Y, 0.5 * np.eye(3))
        np.testing.assert_allclose(d, 2.0 * np.ones(3))
        np.testing.assert_allclose(L, math.sqrt(2.0) * np.eye(3))

    def test_residual_on_random_spd(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            F = rng.normal(size=(6, 3))
            w, lam = rng.dirichlet(np.ones(6)), rng.uniform(0.01, 0.25, 6)
            M = F.T @ (F * (w * lam)[:, None])
            d, Y, L = _derivatives(w, lam, F)
            np.testing.assert_allclose(L @ L.T, M, rtol=1e-12)
            X = F @ np.linalg.inv(M)  # row p is (M^{-1} f_p)^T
            G = Y.T @ Y
            assert np.linalg.norm(G - X @ F.T) <= 1e-10 * np.linalg.norm(G)
            np.testing.assert_allclose(d, lam * np.diag(G), rtol=1e-13)

    def test_singular_gives_none(self):
        assert _derivatives(np.ones(3) / 3, np.ones(3), np.zeros((3, 3))) is None
        cycle = Design.equal_on(4, [Pair(1, 2), Pair(1, 4), Pair(2, 4)])
        p = Parameters(4, (0.0, 0.0, 0.0))
        assert _derivatives(cycle.w, intensity_vector(p.beta), regression_matrix(4)) is None

    def test_path_inverse_closed_form(self):
        # Canonical path at the origin: M = (1/12) F^T F with F the path's
        # regression rows, so M^{-1} f(1,4) = 12 U U^T e_1 with U the
        # all-ones upper triangle, and f(1,4)^T M^{-1} f(1,4) = 36.
        p = Parameters(4, (0.0, 0.0, 0.0))
        d = Design.equal_on(4, [Pair(1, 2), Pair(2, 3), Pair(3, 4)])
        values, Y, _ = _derivatives(d.w, intensity_vector(p.beta), regression_matrix(4))
        f14 = all_pairs(4).index(Pair(1, 4))
        F = regression_matrix(4)
        np.testing.assert_allclose(Y.T @ Y[:, f14], F @ [36.0, 24.0, 12.0], rtol=1e-10)
        assert values[f14] == pytest.approx(0.25 * 36.0, rel=1e-12)


class TestIntensityVector:
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
