"""Shared test utilities: parameter constructors and guided samplers."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from btdesign import (
    Design,
    Pair,
    Parameters,
    PathDesign,
    RegionKind,
    all_pairs,
    region_membership,
)
from btdesign import core, four_alt, optimality, solver
from btdesign.core import intensity_vector
from btdesign.four_alt import (
    _closed_form_design,
    _five_point_tau,
    _four_point_tau,
    five_point_raw,
    four_point_shared_raw,
    full_support_raw,
    saturated_inequality_values,
)
from btdesign.regions import sorted_beta_path

from relabel import Permutation


def geometric_params(m: int, pi1: float) -> Parameters:
    """The point with preference values pi_i = pi1^i (control-coded)."""
    c = math.log(pi1)
    return Parameters(m, tuple(i * c - m * c for i in range(1, m)))


_COORDINATE = st.floats(-8.0, 8.0)


@st.composite
def uniform_m4_points(draw) -> Parameters:
    """m=4 points with beta anywhere in [-8, 8]^3."""
    return Parameters(4, tuple(draw(st.tuples(_COORDINATE, _COORDINATE, _COORDINATE))))


@st.composite
def tied_m4_points(draw) -> Parameters:
    """Points where two or more alternatives, the control included, share a log-preference."""
    values = [0.0, *draw(st.lists(_COORDINATE, min_size=1, max_size=2))]
    return Parameters(4, tuple(draw(st.lists(st.sampled_from(values), min_size=3, max_size=3))))


def count_intensity_calls(monkeypatch) -> list[int]:
    """Count calls of core.intensity_vector from here on, in a one-item list."""
    calls = [0]
    original = core.intensity_vector

    def counted(beta):
        calls[0] += 1
        return original(beta)

    monkeypatch.setattr(core, "intensity_vector", counted)
    return calls


def count_constructions(monkeypatch) -> dict[str, int]:
    """Count PathDesign and Design objects built from here on, by class name."""
    built = {"PathDesign": 0, "Design": 0}
    for cls in (PathDesign, Design):
        original = cls.__post_init__

        def counted(self, original=original, name=cls.__name__):
            built[name] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def count_derivative_calls(monkeypatch) -> list[int]:
    """Count calls of core._derivatives from solver and optimality from here on, in a one-item list."""
    calls = [0]
    original = core._derivatives

    def counted(w, lam, F):
        calls[0] += 1
        return original(w, lam, F)

    monkeypatch.setattr(solver, "_derivatives", counted)
    monkeypatch.setattr(optimality, "_derivatives", counted)
    return calls


def count_linalg_calls(monkeypatch) -> list[int]:
    """Count calls of every numpy.linalg function from here on, in a one-item list."""
    calls = [0]

    def counting(function):
        def counted(*args, **kwargs):
            calls[0] += 1
            return function(*args, **kwargs)

        return counted

    for name in np.linalg.__all__:
        function = getattr(np.linalg, name)
        if callable(function) and not isinstance(function, type):
            monkeypatch.setattr(np.linalg, name, counting(function))
    return calls


def count_factorizations(monkeypatch) -> list[int]:
    """Count calls of cholesky_pivots from core, solver and optimality from here on, in a one-item list."""
    calls = [0]
    original = core.cholesky_pivots

    def counted(A):
        calls[0] += 1
        return original(A)

    for module in (core, solver, optimality):
        monkeypatch.setattr(module, "cholesky_pivots", counted)
    return calls


def count_closed_form_calls(monkeypatch) -> dict[str, int]:
    """Count calls of four_alt.full_support_raw and four_alt.five_point_raw from here on, by name."""
    calls = {"full_support_raw": 0, "five_point_raw": 0}
    for name in calls:
        original = getattr(four_alt, name)

        def counted(lam, original=original, name=name):
            calls[name] += 1
            return original(lam)

        monkeypatch.setattr(four_alt, name, counted)
    return calls


def count_fraction_passes(monkeypatch) -> list[int]:
    """Count classify_m4's Fraction passes, _first_certified on Fraction intensities, in a one-item list."""
    calls = [0]
    original = four_alt._first_certified

    def counted(params, lam):
        calls[0] += isinstance(lam[0], Fraction)
        return original(params, lam)

    monkeypatch.setattr(four_alt, "_first_certified", counted)
    return calls


def count_pair_hashes(monkeypatch) -> list[int]:
    """Count hashes of Pair objects from here on, in a one-item list."""
    calls = [0]
    original = Pair.__hash__

    def counted(pair):
        calls[0] += 1
        return original(pair)

    monkeypatch.setattr(Pair, "__hash__", counted)
    return calls


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


def shared_vertex_patterns() -> list[tuple[Pair, Pair]]:
    """The 12 unordered choices of two missing pairs sharing one vertex."""
    return [
        (p, q)
        for p, q in itertools.combinations(all_pairs(4), 2)
        if len({p.i, p.j} & {q.i, q.j}) == 1
    ]


def classify_by_pattern_search(params: Parameters) -> tuple[RegionKind, tuple[Pair, ...], Design] | None:
    """The m = 4 region found by trying every pattern of every kind; None if none holds.

    The reference that classify_m4's one candidate per kind is tested
    against: full support, then all 6 five-point patterns, then all 12
    shared-vertex four-point patterns, then the sorted-beta path, each
    through its closed form.  Nothing is certified.
    """
    lam = intensity_vector(params.beta).tolist()
    design = _closed_form_design(full_support_raw, (1, 2, 3, 4), lam)
    if design is not None:
        return RegionKind.FULL_SUPPORT, (), design
    for missing in all_pairs(4):
        design = _closed_form_design(five_point_raw, _five_point_tau(missing), lam)
        if design is not None:
            return RegionKind.FIVE_POINT, (missing,), design
    for missing_pairs in shared_vertex_patterns():
        design = _closed_form_design(four_point_shared_raw, _four_point_tau(*missing_pairs), lam)
        if design is not None:
            return RegionKind.FOUR_POINT_SHARED_VERTEX, missing_pairs, design
    path = sorted_beta_path(params)
    if all(v <= 0.0 for v in saturated_inequality_values(path, lam)):
        return RegionKind.SATURATED, (), path.design()
    return None


def classify_largest_support_first(params: Parameters) -> tuple[RegionKind, tuple[Pair, ...], Design] | None:
    """The m = 4 region of the first sorted-path candidate that holds, largest support first; None if none holds.

    The reference for classify_m4's order: full support, the five-point
    design missing (a, d), the four-point design missing (a, d) and the
    wider two-step pair, then the path a-b-c-d itself, each through its
    closed form, with every polynomial evaluated.  Nothing is certified.
    """
    lam = intensity_vector(params.beta).tolist()
    path = sorted_beta_path(params)
    a, b, c, d = path.order
    beta = (*params.beta, 0.0)
    wider = Pair(a, c) if abs(beta[a - 1] - beta[c - 1]) >= abs(beta[b - 1] - beta[d - 1]) else Pair(b, d)
    four = tuple(sorted((Pair(a, d), wider)))
    candidates = (
        (RegionKind.FULL_SUPPORT, (), full_support_raw, (1, 2, 3, 4)),
        (RegionKind.FIVE_POINT, (Pair(a, d),), five_point_raw, _five_point_tau(Pair(a, d))),
        (RegionKind.FOUR_POINT_SHARED_VERTEX, four, four_point_shared_raw, _four_point_tau(*four)),
    )
    for kind, missing, raw, tau in candidates:
        design = _closed_form_design(raw, tau, lam)
        if design is not None:
            return kind, missing, design
    if all(v <= 0.0 for v in saturated_inequality_values(path, lam)):
        return RegionKind.SATURATED, (), path.design()
    return None


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


def region_margin_by_direct_sums(path: PathDesign, params: Parameters) -> float:
    """The path region's margin, max g - 1, with each g(i, j) summed on its own.

    The reference for region_membership: every pair's sum of 1/lambda over
    the path edges between its vertices is an exactly rounded math.fsum of
    its own terms, shared with no other pair.
    """
    lam = dict(zip(all_pairs(params.m), intensity_vector(params.beta).tolist()))
    order = path.order

    def between(a: int, b: int) -> float:
        return lam[Pair(order[a], order[b])]

    g = [
        between(a, b) * math.fsum(1.0 / between(k, k + 1) for k in range(a, b))
        for a in range(params.m)
        for b in range(a + 2, params.m)
    ]
    return max(g, default=1.0) - 1.0


def exact_path_derivatives(path: PathDesign, params: Parameters) -> list[Fraction]:
    """(m - 1)(g(i, j) - 1) for every pair in all_pairs order, exact over the float intensities.

    The reference for path certificates: by the tree identity these are the
    KW derivatives of the path's design at those intensities.  Each g is
    summed on its own, in Fractions.
    """
    m = params.m
    lam = dict(zip(all_pairs(m), map(Fraction, params.intensities.tolist())))
    order, position = path.order, {v: k for k, v in enumerate(path.order)}

    def g(pair: Pair) -> Fraction:
        a, b = sorted((position[pair.i], position[pair.j]))
        return lam[pair] * sum(1 / lam[Pair(order[k], order[k + 1])] for k in range(a, b))

    return [(m - 1) * (g(pair) - 1) for pair in all_pairs(m)]


def ordered_regression_vector(a: int, b: int, m: int) -> np.ndarray:
    """f for ordered pairs (sign flips when a > b); used by symmetry tests."""
    v = np.zeros(m - 1, dtype=np.int64)
    if a < m:
        v[a - 1] += 1
    if b < m:
        v[b - 1] -= 1
    return v
