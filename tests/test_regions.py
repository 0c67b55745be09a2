"""Saturated path regions: the g inequalities and membership scans."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btdesign import (
    KW_TOLERANCE,
    Design,
    Pair,
    Parameters,
    apply_to_params,
    cli,
    find_optimal_saturated,
    kw_check,
    region_membership,
    solve,
)
from btdesign.four_alt import saturated_inequality_values
from btdesign.core import _derivatives, all_pairs, intensity_vector, regression_matrix
from btdesign.graphs import enumerate_spanning_trees, is_path, support_graph
from btdesign.regions import (
    PathDesign,
    _cactus_weights,
    _cycle_shares,
    _descending_order,
    path_g_values,
    sorted_beta_path,
)

from helpers import (
    count_factorizations,
    exact_path_derivatives,
    geometric_params,
    line_params,
    path_orders,
    random_params,
    random_permutation,
    region_margin_by_direct_sums,
    sample_in_path_region,
)


class TestPathDesign:
    def test_canonical_orientation(self):
        assert PathDesign((4, 3, 2, 1)).order == (1, 2, 3, 4)
        assert PathDesign((2, 4, 1, 3)).order == (2, 4, 1, 3)

    def test_edges_and_design(self):
        path = PathDesign((3, 1, 2, 4))
        assert path.edges() == (Pair(1, 3), Pair(1, 2), Pair(2, 4))
        d = path.design()
        assert np.count_nonzero(d.w) == 3
        assert all(d.weight(edge) == pytest.approx(1.0 / 3.0) for edge in path.edges())

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            PathDesign((1, 2, 2, 4))

    def test_enumeration_count(self):
        assert len([PathDesign(order) for order in path_orders(4)]) == 12
        assert len([PathDesign(order) for order in path_orders(2)]) == 1


class TestGValue:
    def test_path_edges_give_exactly_one(self):
        rng = np.random.default_rng(3)
        path = PathDesign((2, 4, 1, 3))
        p = random_params(rng, 4)
        g = dict(zip(all_pairs(4), path_g_values(path, p.intensities).tolist()))
        for edge in path.edges():
            assert g[edge] == 1.0

    def test_origin_second_neighbor_is_two(self):
        path = PathDesign.canonical(4)
        p = Parameters(4, (0.0, 0.0, 0.0))
        g = path_g_values(path, p.intensities)
        assert g[all_pairs(4).index(Pair(1, 3))] == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("pi1", [3.0, 20.0])
    def test_geometric_closed_form(self, pi1):
        # With pi_i = pi1^i the canonical path's g has the closed form
        # (j-i) pi^(j-i-1) (1+pi)^2 / (1+pi^(j-i))^2.
        m = 5
        params = geometric_params(m, pi1)
        path = PathDesign.canonical(m)
        g = path_g_values(path, params.intensities)
        for pair, value in zip(all_pairs(m), g.tolist()):
            k = pair.j - pair.i
            expected = k * pi1 ** (k - 1) * (1 + pi1) ** 2 / (1 + pi1**k) ** 2
            assert value == pytest.approx(expected, rel=1e-12)

    def test_kw_derivatives_are_m_minus_1_times_g_minus_1(self):
        # M is the comparison graph's Laplacian grounded at the control, so
        # lambda_ij f^T M^-1 f = lambda_ij R_ij with R the effective resistance
        # (Ghosh, Boyd & Saberi 2008).  On a path each edge conducts
        # lambda / (m - 1), so R_ij = (m - 1) sum 1/lambda over the edges
        # between i and j, and the KW derivative lambda_ij R_ij - (m - 1)
        # is (m - 1)(g(i, j) - 1).  region_membership's certificate is built
        # on this identity, so it must read as kw_check does.
        rng = np.random.default_rng(311)
        for _ in range(300):
            m = int(rng.integers(3, 13))
            path = PathDesign(tuple(int(v) + 1 for v in rng.permutation(m)))
            params = Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1)))
            derivatives = kw_check(path.design(), params).derivatives
            want = (m - 1) * (path_g_values(path, params.intensities) - 1.0)
            assert (np.abs(derivatives - want) <= 1e-9 * np.maximum(1.0, np.abs(want))).all(), (m, path, params)
            certified = region_membership(path, params).certificate.derivatives
            assert (np.abs(certified - derivatives) <= 1e-9 * np.maximum(1.0, np.abs(derivatives))).all()


class TestRegionMembership:
    def test_geometric_point_inside_canonical(self):
        path, params = PathDesign.canonical(4), geometric_params(4, 20.0)
        membership = region_membership(path, params)
        assert membership.inside
        assert membership.margin < 0.0
        # The margin ranges over the non-edge pairs only: edges give g = 1.
        g = dict(zip(all_pairs(4), path_g_values(path, params.intensities).tolist()))
        assert membership.margin == max(g[Pair(1, 3)], g[Pair(1, 4)], g[Pair(2, 4)]) - 1.0

    def test_origin_outside_every_path(self):
        for m in (4, 5):
            p = Parameters(m, (0.0,) * (m - 1))
            assert all(not region_membership(PathDesign(order), p).inside for order in path_orders(m))

    def test_two_alternatives_always_inside(self):
        membership = region_membership(PathDesign.canonical(2), Parameters(2, (1.3,)))
        assert membership.inside and membership.margin == 0.0

    def test_agrees_with_polynomial_system(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            p = random_params(rng, 4, scale=6.0)
            lam = intensity_vector(p.beta).tolist()
            for path in map(PathDesign, path_orders(4)):
                poly = all(v <= 0.0 for v in saturated_inequality_values(path, lam))
                assert poly == region_membership(path, p).inside

    def test_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = int(rng.integers(3, 6))
            path, params = sample_in_path_region(rng, m)
            sigma = random_permutation(rng, m)
            image = PathDesign(tuple(sigma(v) for v in path.order))
            transported = apply_to_params(sigma, params)
            assert region_membership(image, transported).inside

    def test_interiors_disjoint(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            p = random_params(rng, 4, scale=5.0)
            strict = sum(
                1 for order in path_orders(4) if region_membership(PathDesign(order), p).margin < -1e-9
            )
            assert strict <= 1


class TestPathCertificate:
    """region_membership's certificate of the path's design, built from g by the tree identity."""

    @staticmethod
    def assert_exact(path: PathDesign, params: Parameters) -> None:
        certificate = region_membership(path, params).certificate
        exact = exact_path_derivatives(path, params)
        gaps = [abs(x - y) for x, y in zip(certificate.derivatives.tolist(), exact)]
        assert max(gaps) <= 1e-14, (path.order, params.beta)
        assert certificate.derivatives[path._edge_columns()].tolist() == [0.0] * (params.m - 1)
        assert not certificate.singular and certificate.tolerance == KW_TOLERANCE
        assert certificate.is_optimal == (certificate.max_violation <= KW_TOLERANCE)

    def test_exact_at_every_m4_path(self):
        # Points whose sorted path is each of the 12 paths in turn, |beta| <= 40.
        rng = np.random.default_rng(317)
        for order in path_orders(4):
            for _ in range(50):
                values = np.empty(4)
                values[np.array(order) - 1] = np.sort(rng.uniform(-20.0, 20.0, 4))[::-1]
                params = Parameters(4, tuple(values[:3] - values[3]))
                assert sorted_beta_path(params) == PathDesign(order)
                self.assert_exact(PathDesign(order), params)

    @pytest.mark.parametrize("m", range(5, 9))
    def test_exact_on_the_sorted_path(self, m):
        rng = np.random.default_rng(331 + m)
        for _ in range(200):
            params = Parameters(m, tuple(rng.uniform(-40.0, 40.0, m - 1)))
            self.assert_exact(sorted_beta_path(params), params)

    @pytest.mark.parametrize("m", [5, 7, 30])
    def test_in_region_classify_factors_nothing(self, m, monkeypatch):
        params = geometric_params(m, 25.0)
        assert find_optimal_saturated(params) is not None
        factorizations = count_factorizations(monkeypatch)
        label, result = cli._answer(params)
        assert result is None and label.certificate.is_optimal
        assert factorizations == [0]


class TestFindOptimalSaturated:
    def test_geometric_point_m5(self):
        found = find_optimal_saturated(geometric_params(5, 20.0))
        assert found is not None
        assert found[0].order == (1, 2, 3, 4, 5)

    def test_origin_has_none(self):
        assert find_optimal_saturated(Parameters(4, (0.0, 0.0, 0.0))) is None

    def test_geometric_point_m7(self):
        found = find_optimal_saturated(geometric_params(7, 25.0))
        assert found is not None
        assert found[0].order == tuple(range(1, 8))

    def test_line_point_past_threshold(self):
        found = find_optimal_saturated(line_params(3.5))
        assert found is not None
        assert found[0].order == (3, 1, 2, 4)

    def test_membership_certifies_with_kw(self):
        rng = np.random.default_rng(13)
        for m in (3, 4, 5, 6):
            for _ in range(10):
                path, params = sample_in_path_region(rng, m)
                cert = kw_check(path.design(), params)
                assert cert.max_violation <= 1e-8

    def test_converse_solver_path_supports_are_inside(self):
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(100):
            p = random_params(rng, 4, scale=5.0)
            result = solve(p)
            g = support_graph(result.design)
            if len(g.edges) == 3 and is_path(g):
                order = _order_from_path_edges(g.edges)
                membership = region_membership(PathDesign(order), p)
                assert membership.margin <= 1e-6
                hits += 1
        assert hits > 5  # the sampling box does reach saturated regions

    def test_non_path_trees_never_certify(self):
        rng = np.random.default_rng(19)
        for m in (4, 5):
            trees = [t for t in enumerate_spanning_trees(m) if not is_path(t)]
            for _ in range(40):
                p = random_params(rng, m, scale=6.0)
                for tree in trees:
                    cert = kw_check(Design.equal_on(m, tree.edges), p)
                    assert not cert.is_optimal


def enumerated_paths_containing(params: Parameters) -> list[tuple[int, ...]]:
    """Every path order whose region contains beta, by brute force over all m!/2.

    Evaluated with prefix sums of 1/lambda along each path, independently of
    region_membership.
    """
    orders = np.array(path_orders(params.m))
    lam = np.zeros((params.m + 1, params.m + 1))  # lam[u, v]: intensity of the pair (u, v)
    for pair, value in zip(all_pairs(params.m), intensity_vector(params.beta)):
        lam[pair.i, pair.j] = lam[pair.j, pair.i] = value
    inv_edges = 1.0 / lam[orders[:, :-1], orders[:, 1:]]
    prefix = np.concatenate([np.zeros((len(orders), 1)), np.cumsum(inv_edges, axis=1)], axis=1)
    inside = np.ones(len(orders), dtype=bool)
    for a in range(params.m):
        for b in range(a + 2, params.m):
            inside &= lam[orders[:, a], orders[:, b]] * (prefix[:, b] - prefix[:, a]) <= 1.0
    return [tuple(int(v) for v in order) for order in orders[inside]]


@st.composite
def _points(draw, gap: st.SearchStrategy[float], max_m: int) -> Parameters:
    """m = 3..max_m alternatives in random order, consecutive ones a drawn gap apart."""
    m = draw(st.integers(3, max_m))
    gaps = draw(st.lists(gap, min_size=m - 1, max_size=m - 1))
    order = draw(st.permutations(range(m)))
    values = np.empty(m)
    values[list(order)] = np.concatenate([[0.0], np.cumsum(gaps)])
    return Parameters(m, tuple(values[:-1] - values[-1]))


# Gaps of 0 (a tie) or in [0.1, 5]: wide gaps land in path regions and narrow
# ones between them, so the examples mix inside, outside and tied points.
# Spans up to 30 keep the g value of a tie, 1 + 4 lambda, resolvable from 1
# in floating point.
_MIXED_GAP = st.integers(0, 5).flatmap(lambda k: st.just(0.0) if k == 0 else st.floats(0.1, 5.0))


class TestSortedPathMatchesEnumeration:
    @given(_points(_MIXED_GAP, 7))
    @settings(max_examples=300, deadline=None)
    def test_sorted_path_is_the_only_candidate(self, params):
        found = find_optimal_saturated(params)
        assert enumerated_paths_containing(params) == ([] if found is None else [found[0].order])
        if len(set((*params.beta, 0.0))) < params.m:  # a tie lies in no path region
            assert found is None


class TestDescendingOrder:
    """_descending_order, the one definition of "descending order of beta", is a stable argsort."""

    # Equal coordinates, coordinates equal to the control's 0, and -0.0.
    TIES = (-1.0, -0.0, 0.0, 2.5)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_stable_argsort_on_ties(self, m):
        for beta in itertools.product(self.TIES, repeat=m - 1):
            beta_full = (*beta, 0.0)
            want = np.argsort(-np.array(beta_full), kind="stable").tolist()
            assert _descending_order(beta_full) == want, beta_full
            assert sorted_beta_path(Parameters(m, beta)) == PathDesign(tuple(v + 1 for v in want))


class TestRegionPrecision:
    """region_membership's margin against pair-by-pair sums, relative to the largest g.

    A single prefix sum along the path, g = lambda_ab (c_b - c_a), fails
    these: at (100, 2, 1) it reports margin -0.63 against the true +0.068.
    """

    @staticmethod
    def assert_agrees(path: PathDesign, params: Parameters) -> None:
        got = region_membership(path, params).margin
        want = region_margin_by_direct_sums(path, params)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (path.order, params.beta, got, want)

    @pytest.mark.parametrize("beta", [(100.0, 2.0, 1.0), (60.0, 1.5, 1.0, 0.5)])
    def test_tiny_early_edge(self, beta):
        params = Parameters(len(beta) + 1, beta)
        path = sorted_beta_path(params)
        assert region_margin_by_direct_sums(path, params) > 0.0
        self.assert_agrees(path, params)

    # Gaps up to 100 give edges with tiny intensities, whose reciprocals dwarf
    # the later terms of a sum taken along the path.
    @given(_points(st.floats(0.0, 100.0), 8), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_gaps_up_to_100(self, params, rnd):
        self.assert_agrees(sorted_beta_path(params), params)
        order = list(range(1, params.m + 1))
        rnd.shuffle(order)
        self.assert_agrees(PathDesign(tuple(order)), params)


class TestCactusWeights:
    """The stationary design on the sorted path plus chords whose spans share no path edge."""

    @pytest.mark.parametrize(
        "lam, small_root",
        [
            ([1.0, 1.0, 1.0], True),  # G(1/2) = 1/2 >= 0: the smallest-lam edge takes a small root, 1/3
            ([1.0, 1.5, 1.5], False),  # G(1/2) < 0 and 2/3 + 2/3 > 1: it takes the large root, 0.6
            ([0.1, 0.3, 0.3, 0.3, 0.3], False),
            ([0.2, 0.21, 0.22, 0.2, 0.25], True),
        ],
    )
    def test_cycle_shares_solve_the_tau_equations(self, lam, small_root):
        shares = _cycle_shares(lam)
        assert sum(shares) == pytest.approx(1.0, abs=1e-15)
        tau = [r * (1.0 - r) * x for r, x in zip(shares, lam)]
        assert max(tau) - min(tau) <= 1e-15 * max(tau)
        assert all(0.0 < r < 1.0 for r in shares)
        assert (shares[int(np.argmin(lam))] <= 0.5) == small_root
        assert sum(r > 0.5 for r in shares) <= int(not small_root)

    @pytest.mark.parametrize("lam", [[1.0, 3.0, 3.0], [0.01, 0.2, 0.2, 0.2]])
    def test_cycle_without_a_positive_design(self, lam):
        # G(1/2) < 0 and sum lam_min / lam_c <= 1: G has no root in (0, 1).
        assert _cycle_shares(lam) is None

    def test_only_a_cactus_gets_weights(self):
        path = PathDesign.canonical(6)
        lam = intensity_vector((2.0, 1.0, 0.0, -1.0, -2.0))
        column = {p: c for c, p in enumerate(all_pairs(6))}
        assert _cactus_weights(path, lam, [column[Pair(1, 3)], column[Pair(3, 6)]]) is not None
        assert _cactus_weights(path, lam, [column[Pair(1, 3)], column[Pair(2, 4)]]) is None  # share edge 2-3
        assert _cactus_weights(path, lam, [column[Pair(1, 4)], column[Pair(2, 4)]]) is None
        assert _cactus_weights(path, lam, [column[Pair(2, 3)]]) is None  # a path edge
        assert _cactus_weights(path, lam, [column[Pair(1, 3)], column[Pair(3, 5)], column[Pair(4, 6)]]) is None

    def test_stationary_on_the_support(self):
        # d = k on every support pair, at the sorted path plus its violators,
        # wherever they form a cactus: the KW equalities, by construction.
        rng = np.random.default_rng(307)
        taken = {m: 0 for m in range(3, 9)}
        for m in taken:
            F, k = regression_matrix(m), m - 1
            for _ in range(150):
                params = random_params(rng, m, scale=6.0)
                path = sorted_beta_path(params)
                lam = params.intensities
                d = _derivatives(path.design().w, lam, F)[0]
                w = _cactus_weights(path, lam, np.flatnonzero(d - k > KW_TOLERANCE).tolist())
                if w is None or d.max() - k <= KW_TOLERANCE:
                    continue
                taken[m] += 1
                assert w.sum() == pytest.approx(1.0, abs=1e-14)
                d = _derivatives(w, lam, F)[0]
                assert np.abs(d[w > 0.0] - k).max() <= 1e-10, params.beta
        assert min(taken.values()) >= 10, taken


def _order_from_path_edges(edges) -> tuple[int, ...]:
    adj: dict[int, list[int]] = {}
    for e in edges:
        adj.setdefault(e.i, []).append(e.j)
        adj.setdefault(e.j, []).append(e.i)
    ends = [v for v, nb in adj.items() if len(nb) == 1]
    cur, prev = min(ends), None
    order = [cur]
    while len(order) < len(adj):
        nxt = [v for v in adj[cur] if v != prev][0]
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)
