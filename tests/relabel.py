"""The relabeling symmetry of the model: the test oracle for equivariance.

Relabeling the alternatives by a permutation sigma acts on designs, pair by
pair, and, through the matrices q_matrix produces, on the parameter space.
An answer moved by sigma must be the answer at the moved point; the tests
check that with these actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from btdesign import Design, Pair, Parameters
from btdesign.core import _pair_columns
from btdesign.graphs import SupportGraph


def support_graph(design: Design) -> SupportGraph:
    """Graph whose edges are the pairs in the design's support."""
    return SupportGraph(design.m, frozenset(design.support()))


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..m}, stored as the image tuple (sigma(1), ..., sigma(m))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(v) for v in self.images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v - 1]

    def pair(self, p: Pair) -> Pair:
        return Pair(self(p.i), self(p.j))

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for v, img in enumerate(self.images, start=1):
            inv[img - 1] = v
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(v) = self(other(v))."""
        return Permutation(tuple(self(other(v)) for v in range(1, self.m + 1)))

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def transposition(cls, m: int, a: int, b: int) -> "Permutation":
        images = list(range(1, m + 1))
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
        return cls(tuple(images))


def q_matrix(sigma: Permutation, m: int | None = None) -> np.ndarray:
    """Integer matrix Q with f(sigma(i), sigma(j)) = Q f(i,j) for all pairs.

    Column i is the ordered regression vector of (sigma(i), sigma(m)), which
    pins Q down uniquely and makes sigma -> Q a group homomorphism.
    """
    m = m or sigma.m
    if sigma.m != m:
        raise ValueError(f"permutation acts on {sigma.m} elements, expected {m}")

    def unit(v: int) -> np.ndarray:
        e = np.zeros(m - 1, dtype=np.int64)
        if v < m:
            e[v - 1] = 1
        return e

    cols = [unit(sigma(i)) - unit(sigma(m)) for i in range(1, m)]
    return np.column_stack(cols)


def apply_to_design(sigma: Permutation, design: Design) -> Design:
    """Relabel every pair by sigma: pair (i, j) gets the weight of (sigma^-1(i), sigma^-1(j))."""
    inverse = np.asarray(sigma.inverse().images) - 1
    u, v = np.triu_indices(design.m, 1)  # the pairs in all_pairs order, 0-based
    return Design(design.m, design.w[_pair_columns(design.m)[inverse[u], inverse[v]]])


def apply_to_params(sigma: Permutation, params: Parameters) -> Parameters:
    """The parameter point Q_sigma^{-T} beta matched to the relabeled design."""
    Q = q_matrix(sigma, params.m).astype(float)
    beta = np.linalg.solve(Q.T, np.asarray(params.beta))
    return Parameters(params.m, tuple(beta))
