"""Spanning trees on the alternatives and the tree and path predicates.

A support is the undirected graph on the alternatives whose edges are the
supported pairs; every saturated optimum is a path.  Neither the package
nor its __init__ imports this module.  It stays only because the
benchmark's tests check their own tree enumeration against
enumerate_spanning_trees and is_path; once the benchmark has its own trees,
it moves into the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import Pair, all_pairs


@dataclass(frozen=True)
class SupportGraph:
    """Undirected simple graph on the alternatives 1..m."""

    m: int
    edges: frozenset[Pair]

    def __post_init__(self) -> None:
        edges = frozenset(self.edges)
        for e in edges:
            if e.j > self.m:
                raise ValueError(f"edge {e} out of range for m={self.m}")
        object.__setattr__(self, "edges", edges)

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.m + 1)}
        for e in self.edges:
            deg[e.i] += 1
            deg[e.j] += 1
        return deg

    def is_connected_spanning(self) -> bool:
        """True when every alternative is reachable from every other."""
        if self.m == 1:
            return True
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.m + 1)}
        for e in self.edges:
            adj[e.i].append(e.j)
            adj[e.j].append(e.i)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.m


def is_tree(g: SupportGraph) -> bool:
    """Connected on all m vertices with exactly m-1 edges."""
    return len(g.edges) == g.m - 1 and g.is_connected_spanning()


def is_path(g: SupportGraph) -> bool:
    """A tree in which no vertex meets more than two edges."""
    return is_tree(g) and max(g.degrees().values()) <= 2


@lru_cache(maxsize=None)
def enumerate_spanning_trees(m: int) -> tuple[SupportGraph, ...]:
    """All labeled spanning trees on 1..m (m^{m-2} of them)."""
    if m > 7:
        raise ValueError(f"spanning-tree enumeration is capped at m=7, got m={m}")
    trees = []
    for combo in itertools.combinations(all_pairs(m), m - 1):
        g = SupportGraph(m, frozenset(combo))
        if is_tree(g):
            trees.append(g)
    return tuple(trees)
