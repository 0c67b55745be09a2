"""Saturated path regions: the g inequalities and membership scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btdesign import (
    Design,
    Pair,
    Parameters,
    apply_to_params,
    find_optimal_saturated,
    g_value,
    kw_check,
    region_membership,
    solve,
)
from btdesign.four_alt import saturated_inequality_values
from btdesign.core import all_pairs, intensity_vector
from btdesign.graphs import enumerate_spanning_trees, is_path, support_graph
from btdesign.regions import PathDesign, sorted_beta_path

from helpers import (
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
        assert all(w == pytest.approx(1.0 / 3.0) for w in d.weights.values())

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
        for edge in path.edges():
            assert g_value(path, p, edge) == 1.0

    def test_origin_second_neighbor_is_two(self):
        path = PathDesign.canonical(4)
        p = Parameters(4, (0.0, 0.0, 0.0))
        assert g_value(path, p, Pair(1, 3)) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("pi1", [3.0, 20.0])
    def test_geometric_closed_form(self, pi1):
        # With pi_i = pi1^i the canonical path's g has the closed form
        # (j-i) pi^(j-i-1) (1+pi)^2 / (1+pi^(j-i))^2.
        m = 5
        params = geometric_params(m, pi1)
        path = PathDesign.canonical(m)
        for pair in all_pairs(m):
            k = pair.j - pair.i
            expected = k * pi1 ** (k - 1) * (1 + pi1) ** 2 / (1 + pi1**k) ** 2
            assert g_value(path, params, pair) == pytest.approx(expected, rel=1e-12)


class TestRegionMembership:
    def test_geometric_point_inside_canonical(self):
        membership = region_membership(PathDesign.canonical(4), geometric_params(4, 20.0))
        assert membership.inside
        assert membership.margin < 0.0
        assert set(membership.g_values) == {Pair(1, 3), Pair(1, 4), Pair(2, 4)}

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
        if len(set(params.beta_full())) < params.m:  # a tie lies in no path region
            assert found is None


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
