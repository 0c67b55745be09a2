"""Shared test utilities: parameter constructors and guided samplers."""

from __future__ import annotations

import itertools
import math

import numpy as np

from btdesign import Design, Parameters, PathDesign, all_pairs, region_membership
from btdesign.graphs import Permutation


def geometric_params(m: int, pi1: float) -> Parameters:
    """The point with preference values pi_i = pi1^i (control-coded)."""
    c = math.log(pi1)
    return Parameters(m, tuple(i * c - m * c for i in range(1, m)))


def line_params(t: float) -> Parameters:
    """The m=4 line beta = t * (1, 1/2, 5/4) used in the efficiency study."""
    return Parameters(4, (t, t / 2.0, 5.0 * t / 4.0))


def random_params(rng: np.random.Generator, m: int, scale: float = 5.0) -> Parameters:
    return Parameters(m, tuple(rng.uniform(-scale, scale, m - 1)))


def random_design(rng: np.random.Generator, m: int) -> Design:
    pairs = all_pairs(m)
    w = rng.dirichlet(np.ones(len(pairs)))
    return Design(m, dict(zip(pairs, w)))


def random_permutation(rng: np.random.Generator, m: int) -> Permutation:
    images = list(range(1, m + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def path_orders(m: int) -> list[tuple[int, ...]]:
    """Vertex orders of all m!/2 labeled Hamiltonian paths, reversals deduped.

    The brute-force reference that the sorted-beta path is tested against.
    """
    return [order for order in itertools.permutations(range(1, m + 1)) if order[0] < order[-1]]


def sample_in_path_region(
    rng: np.random.Generator, m: int, max_tries: int = 200
) -> tuple[PathDesign, Parameters]:
    """A random path together with a parameter point inside its region.

    Points are proposed by spacing the path's vertices along a descending
    preference scale with noise, then rejection-tested with the region
    inequalities g(i, j) <= 1.
    """
    for _ in range(max_tries):
        path = PathDesign(tuple(int(v) + 1 for v in rng.permutation(m)))
        c = rng.uniform(2.0, 5.5)
        values = {
            v: (m - k) * c + rng.uniform(-0.35 * c, 0.35 * c)
            for k, v in enumerate(path.order, start=1)
        }
        shift = values[m]
        params = Parameters(m, tuple(values[v] - shift for v in range(1, m)))
        if region_membership(path, params).inside:
            return path, params
    raise RuntimeError(f"no in-region sample found in {max_tries} tries for m={m}")


def ordered_regression_vector(a: int, b: int, m: int) -> np.ndarray:
    """f for ordered pairs (sign flips when a > b); used by symmetry tests."""
    v = np.zeros(m - 1, dtype=np.int64)
    if a < m:
        v[a - 1] += 1
    if b < m:
        v[b - 1] -= 1
    return v
