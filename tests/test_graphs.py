"""Graph predicates, the path-enumeration oracle, and the relabeling symmetry action.

The relabeling action lives in the tests' relabel module, where the
equivariance tests use it as their oracle; its own tests are here.
"""

import itertools

import numpy as np
import pytest

from btdesign import Design, Pair, information_matrix, kw_check, log_det, solve
from btdesign.graphs import SupportGraph, enumerate_spanning_trees, is_path, is_tree
from btdesign.regions import PathDesign

from helpers import ordered_regression_vector, path_orders, random_design, random_params, random_permutation
from relabel import Permutation, apply_to_design, apply_to_params, q_matrix, support_graph


def path_graphs(m: int) -> list[SupportGraph]:
    return [SupportGraph(m, frozenset(PathDesign(order).edges())) for order in path_orders(m)]


class TestSupportGraph:
    def test_support_graph_of_path_design(self):
        d = Design.equal_on(4, [Pair(1, 2), Pair(2, 3), Pair(3, 4)])
        g = support_graph(d)
        assert g.edges == frozenset({Pair(1, 2), Pair(2, 3), Pair(3, 4)})

    def test_uniform_design_is_complete_graph(self):
        g = support_graph(Design.uniform(4))
        assert len(g.edges) == 6

    def test_zero_weight_edge_excluded(self):
        # A five-point design with the (1,2) weight at zero: complete graph
        # minus that edge.
        weights = {p: 0.2 for p in [Pair(1, 3), Pair(1, 4), Pair(2, 3), Pair(2, 4), Pair(3, 4)]}
        weights[Pair(1, 2)] = 0.0
        g = support_graph(Design(4, weights))
        assert Pair(1, 2) not in g.edges
        assert len(g.edges) == 5

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            SupportGraph(3, frozenset({Pair(1, 4)}))


class TestTreePredicates:
    def test_path_is_tree_and_path(self):
        g = SupportGraph(4, frozenset({Pair(1, 2), Pair(2, 3), Pair(3, 4)}))
        assert is_tree(g) and is_path(g)

    def test_claw_is_tree_not_path(self):
        g = SupportGraph(4, frozenset({Pair(1, 2), Pair(1, 3), Pair(1, 4)}))
        assert is_tree(g)
        assert not is_path(g)

    def test_cycle_with_isolated_vertex_is_not_tree(self):
        g = SupportGraph(4, frozenset({Pair(1, 2), Pair(1, 4), Pair(2, 4)}))
        assert not is_tree(g)

    def test_disconnected_forest_is_not_tree(self):
        g = SupportGraph(4, frozenset({Pair(1, 2), Pair(3, 4)}))
        assert not is_tree(g)

    def test_singularity_matches_connectivity(self):
        # log det is finite exactly when the support graph spans and connects
        # all alternatives.
        rng = np.random.default_rng(3)
        p = random_params(rng, 4)
        from btdesign.core import all_pairs

        pairs = all_pairs(4)
        for r in (2, 3, 4, 5):
            for combo in itertools.combinations(pairs, r):
                d = Design.equal_on(4, combo)
                connected = SupportGraph(4, frozenset(combo)).is_connected_spanning()
                finite = log_det(information_matrix(d, p)) > float("-inf")
                assert finite == connected


class TestEnumeration:
    def test_path_counts(self):
        assert len(path_graphs(2)) == 1
        assert len(path_graphs(3)) == 3
        assert len(path_graphs(4)) == 12

    def test_paths_are_paths_and_distinct(self):
        graphs = path_graphs(4)
        assert all(is_path(g) for g in graphs)
        assert len({g.edges for g in graphs}) == 12

    def test_reversals_deduped(self):
        orders = path_orders(3)
        assert all(o[0] < o[-1] for o in orders)

    def test_spanning_tree_counts(self):
        # Cayley: m^(m-2) labeled trees.
        assert len(enumerate_spanning_trees(4)) == 16
        assert len(enumerate_spanning_trees(5)) == 125


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_compose_and_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_permutation(rng, 5)
            t = random_permutation(rng, 5)
            st = s.compose(t)
            for v in range(1, 6):
                assert st(v) == s(t(v))
            assert s.compose(s.inverse()).images == tuple(range(1, 6))


class TestQMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(q_matrix(Permutation.identity(4)), np.eye(3, dtype=int))

    def test_transposition_with_control(self):
        # Swapping 1 and 4 replaces the first row of the identity by -1s.
        Q = q_matrix(Permutation.transposition(4, 1, 4))
        np.testing.assert_array_equal(Q, [[-1, -1, -1], [0, 1, 0], [0, 0, 1]])

    def test_plain_transposition_is_permutation_matrix(self):
        Q = q_matrix(Permutation.transposition(4, 1, 2))
        np.testing.assert_array_equal(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    @pytest.mark.parametrize("m", [4, 5])
    def test_defining_relation_exhaustive(self, m):
        for images in itertools.permutations(range(1, m + 1)):
            sigma = Permutation(images)
            Q = q_matrix(sigma)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i == j:
                        continue
                    lhs = ordered_regression_vector(sigma(i), sigma(j), m)
                    rhs = Q @ ordered_regression_vector(i, j, m)
                    assert np.array_equal(lhs, rhs), (images, i, j)

    def test_homomorphism_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(3, 7))
            s, t = random_permutation(rng, m), random_permutation(rng, m)
            np.testing.assert_array_equal(q_matrix(s.compose(t)), q_matrix(s) @ q_matrix(t))

    def test_determinant_unimodular(self):
        for images in itertools.permutations(range(1, 5)):
            det = round(float(np.linalg.det(q_matrix(Permutation(images)).astype(float))))
            assert det in (-1, 1)
        rng = np.random.default_rng(19)
        for _ in range(30):
            det = round(float(np.linalg.det(q_matrix(random_permutation(rng, 6)).astype(float))))
            assert det in (-1, 1)


class TestDesignAndParameterAction:
    def test_identity_fixes_everything(self):
        rng = np.random.default_rng(23)
        d = random_design(rng, 4)
        p = random_params(rng, 4)
        e = Permutation.identity(4)
        assert apply_to_design(e, d).w.tolist() == pytest.approx(d.w.tolist())
        assert apply_to_params(e, p).beta == pytest.approx(p.beta)

    def test_relabels_support(self):
        d = Design(4, {Pair(1, 3): 1.0})
        moved = apply_to_design(Permutation.transposition(4, 1, 2), d)
        assert moved.support() == (Pair(2, 3),) and moved.weight(Pair(2, 3)) == 1.0

    def test_log_det_transport(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            m = int(rng.integers(3, 6))
            d = random_design(rng, m)
            p = random_params(rng, m)
            sigma = random_permutation(rng, m)
            ld = log_det(information_matrix(d, p))
            ld_t = log_det(information_matrix(apply_to_design(sigma, d), apply_to_params(sigma, p)))
            assert ld_t == pytest.approx(ld, abs=1e-10)

    def test_optimality_transport_via_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = random_params(rng, 4, scale=3.0)
            result = solve(p)
            assert result.converged
            sigma = random_permutation(rng, 4)
            cert = kw_check(apply_to_design(sigma, result.design), apply_to_params(sigma, p))
            assert cert.is_optimal
