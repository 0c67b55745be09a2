"""Iterative locally D-optimal design solver on the weight simplex.

With directional values d_ij = lambda_ij f^T M(w)^{-1} f and k = m-1, each
iteration stops once max d_ij <= k + kw_tolerance on the allowed pairs (the
equivalence theorem then certifies the design), deletes for good every pair
with d_ij < k (1 + eps/2 - sqrt(eps (4 + eps - 4/k)) / 2), eps = max d - k,
which by Harman & Pronzato (2007, Statist. Probab. Lett. 77, "Improvements on
removing nonoptimal support points in D-optimum design algorithms") supports
no D-optimal design, and applies the multiplicative update
w_ij <- w_ij d_ij / k (Silvey, Titterington & Torsney 1978), which keeps the
simplex and never decreases log det M(w).

Newton's method then maximizes log det exactly on the live support; the
result is adopted only if it passes the directional check on every allowed
pair.  A finish is tried after every iteration that deletes no pair while
at most k + _NEWTON_STEPS pairs are live, and otherwise after every
_STABLE_ITERATIONS such iterations in a row.  The gate comes from the step
cap: a Newton run drops at most one pair per step, so only from at most
k + _NEWTON_STEPS pairs can it always reach any support of k or more.  Both
triggers are needed.  Without the gate, finishes on hundreds of live pairs
hit the step cap and fail on every iteration (m = 30 ran 17 times slower);
without the periodic retry, Newton is never tried while the support stays
large (m = 20 took up to 7 254 iterations, against 104).  Where the optimal
support itself has more than k + _NEWTON_STEPS pairs, as at m = 30 for
beta in [-6, 6], only the periodic retry runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (  # noqa: F401 - unused cholesky_pivots: bench/tests checks this binding is traced
    Design,
    Pair,
    Parameters,
    SingularMatrixError,
    _derivatives,
    all_pairs,
    cholesky_pivots,
    design_from_vector,
    intensity_vector,
    regression_matrix,
)
from .graphs import SupportGraph
from .optimality import KwCertificate, kw_check

# Iterations without a deletion before (each retry of) the exact finish on a
# support too large for one finish to reach k pairs.
_STABLE_ITERATIONS = 10
# Newton steps per finish, each dropping at most one pair; convergence is
# quadratic once the support is right.
_NEWTON_STEPS = 30
_NEWTON_STEP_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 100_000
    kw_tolerance: float = 1e-8
    initial_design: Design | None = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.kw_tolerance < math.inf:
            raise ValueError("kw_tolerance must be positive and finite")


@dataclass(frozen=True)
class SolverResult:
    design: Design
    certificate: KwCertificate
    iterations: int
    converged: bool
    newton_attempts: int


@dataclass(frozen=True)
class RestrictedSolverResult:
    """Result of optimizing over designs confined to a fixed support."""

    design: Design
    certificate: KwCertificate
    full_certificate: KwCertificate
    iterations: int
    converged: bool


def _multiplicative_step(w: np.ndarray, lam: np.ndarray, F: np.ndarray, m: int) -> np.ndarray:
    """One multiplicative update, renormalized; exposed for property tests."""
    found = _derivatives(w, lam, F)
    if found is None:
        raise SingularMatrixError("information matrix is singular")
    w = w * found[0] / (m - 1)
    return w / w.sum()


def _deletion_bound(eps: float, k: int) -> float:
    """Lower bound on d at any D-optimal support point, given eps = max d - k > 0."""
    return k * (1.0 + eps / 2.0 - np.sqrt(eps * (4.0 + eps - 4.0 / k)) / 2.0)


def _solve_on_mask(
    params: Parameters, allowed: np.ndarray, config: SolverConfig
) -> tuple[np.ndarray, int, int, bool]:
    """Core iteration over weights confined to the allowed pairs.

    Returns the final weight vector, the iteration count, the number of
    Newton finishes tried, and whether the restricted criterion
    max d_ij <= (m-1) + kw_tolerance was met on the allowed set.
    """
    m = params.m
    k = m - 1
    F = regression_matrix(m)
    lam = intensity_vector(params.beta)

    if config.initial_design is not None:
        if config.initial_design.m != m:
            raise ValueError("initial design and parameters disagree on m")
        w = config.initial_design.as_vector()
        if np.any(w[~allowed] > 0):
            raise ValueError("initial design puts weight outside the allowed support")
    else:
        w = np.where(allowed, 1.0 / allowed.sum(), 0.0)

    live = w > 0.0
    stable = attempts = 0
    for iterations in range(1, config.max_iterations + 1):
        found = _derivatives(w, lam, F)
        if found is None:
            raise SingularMatrixError(f"information matrix is singular after {iterations - 1} iterations")
        d, _ = found
        eps = d[allowed].max() - k
        if eps <= config.kw_tolerance:
            return w, iterations, attempts, True

        doomed = live & (d < _deletion_bound(eps, k))
        if doomed.any():
            live &= ~doomed
            w[doomed] = 0.0
            stable = 0
        else:
            stable += 1

        if stable == _STABLE_ITERATIONS or (stable and live.sum() <= k + _NEWTON_STEPS):
            stable = 0
            attempts += 1
            trial = _newton_on_support(w, lam, F, k, live)
            if trial is not None:
                found = _derivatives(trial, lam, F)
                if found is not None and found[0][allowed].max() - k <= config.kw_tolerance:
                    return trial, iterations, attempts, True

        w[live] *= d[live] / k
        w /= w.sum()

    return w, config.max_iterations, attempts, False


def _newton_on_support(
    w: np.ndarray, lam: np.ndarray, F: np.ndarray, k: int, live: np.ndarray
) -> np.ndarray | None:
    """Maximize log det M(w) over weights on the live pairs summing to one.

    Newton on the KKT system of the simplex constraint, started at w; the
    Hessian of log det is -(lambda_i lambda_j (f_i^T M^{-1} f_j)^2).  When a
    step would drive weights nonpositive, it stops where the first of them
    reaches zero, that pair leaves the trial support, and the solve goes on
    without it.  On k pairs log det is sum log w + const, so the optimum is
    exactly 1/k each.  Returns None when M or the KKT matrix is singular.
    """
    support = np.flatnonzero(live)
    v = w[support] / w[support].sum()
    for _ in range(_NEWTON_STEPS):
        if len(support) == k:
            v = np.full(k, 1.0 / k)
            break
        ls = lam[support]
        found = _derivatives(v, ls, F[support])
        if found is None:
            return None
        d, Y = found
        n = len(support)
        kkt = np.ones((n + 1, n + 1))
        kkt[n, n] = 0.0
        kkt[:n, :n] = -np.outer(ls, ls) * (Y.T @ Y) ** 2
        try:
            step = np.linalg.solve(kkt, np.append(-d, 0.0))[:n]
        except np.linalg.LinAlgError:
            return None
        if np.any(v + step <= 0.0):
            # Move to where the first weight reaches zero, then drop that pair.
            reach = np.where(step < 0.0, v / np.maximum(-step, 1e-300), np.inf)
            j = np.argmin(reach)
            v = v + reach[j] * step
            keep = np.arange(n) != j
            support, v = support[keep], v[keep] / v[keep].sum()
            continue
        v = v + step
        if np.abs(step).max() <= _NEWTON_STEP_TOL:
            break
    trial = np.zeros_like(w)
    trial[support] = v / v.sum()
    return trial


def solve(params: Parameters, config: SolverConfig = SolverConfig()) -> SolverResult:
    """Find a locally D-optimal design for the given parameter point."""
    allowed = np.ones(len(all_pairs(params.m)), dtype=bool)
    w, iterations, newton_attempts, _ = _solve_on_mask(params, allowed, config)
    design = design_from_vector(params.m, w)
    certificate = kw_check(design, params, tolerance=config.kw_tolerance)
    converged = certificate.max_violation <= config.kw_tolerance
    return SolverResult(
        design=design,
        certificate=certificate,
        iterations=iterations,
        converged=converged,
        newton_attempts=newton_attempts,
    )


def solve_restricted(
    params: Parameters, support: Iterable[Pair], config: SolverConfig = SolverConfig()
) -> RestrictedSolverResult:
    """Best design among those supported on the given pairs.

    The support must span all alternatives, otherwise every design on it is
    singular.  The returned certificate covers the restricted design space;
    the full-space certificate is reported alongside it.
    """
    m = params.m
    pairs = all_pairs(m)
    support = set(support)
    for p in support:
        if p not in pairs:
            raise ValueError(f"pair {p} is not a valid comparison for m={m}")
    g = SupportGraph(m, frozenset(support))
    if not g.is_connected_spanning():
        raise SingularMatrixError("support does not span all alternatives")

    allowed = np.array([p in support for p in pairs])
    w, iterations, _, converged = _solve_on_mask(params, allowed, config)
    design = design_from_vector(m, w)

    full = kw_check(design, params, tolerance=config.kw_tolerance)
    restricted_derivs = {p: v for p, v in full.derivatives.items() if p in support}
    if full.singular:
        restricted = full
    else:
        max_violation = max(restricted_derivs.values())
        restricted = KwCertificate(
            derivatives=restricted_derivs,
            max_violation=max_violation,
            is_optimal=max_violation <= config.kw_tolerance,
            equality_pairs=frozenset(
                p for p, v in restricted_derivs.items() if abs(v) <= config.kw_tolerance
            ),
        )
    return RestrictedSolverResult(
        design=design,
        certificate=restricted,
        full_certificate=full,
        iterations=iterations,
        converged=restricted.max_violation <= config.kw_tolerance,
    )
