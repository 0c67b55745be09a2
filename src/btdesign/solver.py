"""Iterative locally D-optimal design solver on the weight simplex.

With directional values d_ij = lambda_ij f^T M(w)^{-1} f and k = m-1, each
iteration stops once max d_ij <= k + kw_tolerance (the equivalence theorem
then certifies the design), deletes for good every pair with
d_ij < k (1 + eps/2 - sqrt(eps (4 + eps - 4/k)) / 2), eps = max d - k,
which by Harman & Pronzato (2007, Statist. Probab. Lett. 77, "Improvements on
removing nonoptimal support points in D-optimum design algorithms") supports
no D-optimal design, and applies the multiplicative update
w_ij <- w_ij d_ij / k (Silvey, Titterington & Torsney 1978), which keeps the
simplex and never decreases log det M(w).

Newton's method then maximizes log det exactly on the live support; the
result is adopted only if it passes the directional check on every pair.
A Newton step that would leave the simplex is cut back on its own quadratic
model, one pair at a time, until the model step stays inside, so one
re-linearization can drop many pairs (see _newton_on_support).  A finish
is tried after every iteration that deletes no pair while at most
k + _NEWTON_STEPS pairs are live, and otherwise after every
_STABLE_ITERATIONS such iterations in a row.  The gate bounds the KKT
system a finish solves, whose cost grows with the cube of the live count.
With beta uniform in [-6, 6] (median solve time, 2-core host) it keeps the
largest finish at m = 30 at 166 live pairs instead of 263 and the solves
at 55-64 ms instead of 65-69 ms; at m = 20 it costs time, 14-16 ms against
9.5 ms, because the solves wait for their finish: 56 iterations on average
instead of 11.  Without the periodic retry, Newton is never tried while
the support stays large (m = 20 took up to 7 254 iterations, against 104).
Where the optimal support itself has more than k + _NEWTON_STEPS pairs, as
at m = 30 for beta in [-6, 6], only the periodic retry runs.

A finish runs only after an iteration that deleted no pair, so the
evaluation of that iteration's stopping test is at exactly w: the finish's
first model reuses it, and every later model is evaluated on all pairs at
the weights the finish would return.  The result is certified from the
evaluation it already holds: the one that stopped the loop, or for an
adopted finish that converged, the finish's own last evaluation (a finish
that ends on k pairs evaluates its result once).  Only at the iteration
cap is the final design evaluated once more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (  # noqa: F401 - unused cholesky_pivots: bench/tests checks this binding is traced
    Design,
    Parameters,
    SingularMatrixError,
    _derivatives,
    cholesky_pivots,
    design_from_vector,
    regression_matrix,
)
from .optimality import KwCertificate, _certificate

# Iterations without a deletion before (each retry of) the exact finish on a
# support larger than the gate of k + _NEWTON_STEPS pairs.
_STABLE_ITERATIONS = 10
# Newton steps (re-linearizations) per finish; convergence is quadratic
# once the support is right.
_NEWTON_STEPS = 30
_NEWTON_STEP_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 100_000
    kw_tolerance: float = 1e-8

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


def _multiplicative_step(w: np.ndarray, lam: np.ndarray, F: np.ndarray, m: int) -> np.ndarray:
    """One multiplicative update, renormalized; exposed for property tests."""
    found = _derivatives(w, lam, F)
    if found is None:
        raise SingularMatrixError("information matrix is singular")
    w = w * found[0] / (m - 1)
    return w / w.sum()


def _deletion_bound(eps: float, k: int) -> float:
    """Lower bound on d at any D-optimal support point, given eps = max d - k > 0."""
    return k * (1.0 + eps / 2.0 - math.sqrt(eps * (4.0 + eps - 4.0 / k)) / 2.0)


def _newton_on_support(
    w: np.ndarray, lam: np.ndarray, F: np.ndarray, k: int, live: np.ndarray, d: np.ndarray, Y: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]] | None:
    """Maximize log det M(w) over weights on the live pairs summing to one.

    Newton on the KKT system of the simplex constraint, started at w, whose
    weight lies on the live pairs; (d, Y) is core._derivatives at w on all
    pairs, and builds the first model.  The Hessian of log det is
    -(lambda_i lambda_j (f_i^T M^{-1} f_j)^2).  A step that would drive
    weights nonpositive is cut back on the same quadratic model: it stops
    where the first of them reaches zero, that pair leaves the trial
    support, the model gradient moves to the new point (g <- g + t H s) and
    the smaller KKT system is solved again, until the model step stays
    inside the simplex.  Only then is the step taken and the model rebuilt
    from _derivatives on all pairs at the renormalized new point, so one
    step can drop several pairs.  On k pairs log det is sum log w + const,
    so the optimum is exactly 1/k each.

    Returns (trial, found) with found bitwise _derivatives(trial, lam, F):
    a finish whose cut-free step is at most _NEWTON_STEP_TOL returns the
    point of its last model with that model's evaluation, one that ends on
    k pairs or runs out of steps evaluates its result once.  Returns None
    when M or the KKT matrix is singular.
    """
    support = np.flatnonzero(live)
    n = len(support)
    v = w[support]
    trial = w
    for _ in range(_NEWTON_STEPS):
        if n == k:
            break
        ls = lam[support]
        Ys = Y[:, support]
        # kkt [s; mu] = rhs is the model's Newton system; rhs[:n] is minus its gradient.
        kkt = np.ones((n + 1, n + 1))
        kkt[n, n] = 0.0
        kkt[:n, :n] = -(ls[:, None] * ls) * (Ys.T @ Ys) ** 2
        rhs = np.zeros(n + 1)
        rhs[:n] = -d[support]
        cut = False
        while n > k:
            try:
                step = np.linalg.solve(kkt, rhs)[:n]
            except np.linalg.LinAlgError:
                return None
            if not (v + step <= 0.0).any():
                break
            # Move to where the first weight reaches zero, then drop that pair.
            reach = np.where(step < 0.0, v / np.maximum(-step, 1e-300), np.inf)
            j = np.argmin(reach)
            v = v + reach[j] * step
            rhs[:n] -= reach[j] * (kkt[:n, :n] @ step)
            keep = np.arange(n)
            keep[j:] += 1
            kkt, rhs = kkt.take(keep, 0).take(keep, 1), rhs.take(keep)
            keep = keep[:-1]
            support, v = support.take(keep), v.take(keep)
            v /= v.sum()
            n -= 1
            cut = True
        else:  # k pairs remain
            break
        # A step that was cut moved further than its last piece shows.
        if not cut and np.abs(step).max() <= _NEWTON_STEP_TOL:
            return trial, (d, Y)
        v = v + step
        v /= v.sum()
        trial = np.zeros_like(w)
        trial[support] = v
        found = _derivatives(trial, lam, F)
        if found is None:
            return None
        d, Y = found
    if n > k:  # out of steps: (d, Y) was evaluated at trial
        return trial, (d, Y)
    v = np.full(k, 1.0 / k)
    trial = np.zeros_like(w)
    trial[support] = v / v.sum()
    found = _derivatives(trial, lam, F)
    return None if found is None else (trial, found)


def solve(params: Parameters, config: SolverConfig = SolverConfig()) -> SolverResult:
    """Find a locally D-optimal design for the given parameter point.

    The loop starts from the uniform design on all pairs; see the module
    docstring for its stopping rule, deletions and Newton finishes.
    """
    k = params.m - 1
    F = regression_matrix(params.m)
    lam = params.intensities
    w = np.full(len(F), 1.0 / len(F))
    live = w > 0.0
    n_live = len(F)
    stable = attempts = 0
    for iterations in range(1, config.max_iterations + 1):
        found = _derivatives(w, lam, F)
        if found is None:
            raise SingularMatrixError(f"information matrix is singular after {iterations - 1} iterations")
        d = found[0]
        eps = float(d.max()) - k
        if eps <= config.kw_tolerance:
            break

        doomed = live & (d < _deletion_bound(eps, k))
        deleted = int(np.count_nonzero(doomed))
        if deleted:
            live &= ~doomed
            w[doomed] = 0.0
            n_live -= deleted
            stable = 0
        else:
            stable += 1

        if stable == _STABLE_ITERATIONS or (stable and n_live <= k + _NEWTON_STEPS):
            stable = 0
            attempts += 1
            # Nothing was deleted this iteration, so found is still the evaluation at w.
            finish = _newton_on_support(w, lam, F, k, live, *found)
            if finish is not None and finish[1][0].max() - k <= config.kw_tolerance:
                w, found = finish
                break

        w[live] *= d[live] / k
        w /= w.sum()
    else:  # the iteration cap: the last update moved w, so evaluate it once more
        found = _derivatives(w, lam, F)

    # found was evaluated at exactly the weights of design, so this is kw_check(design, params).
    design = design_from_vector(params.m, w)
    certificate = _certificate(found, params.m, config.kw_tolerance)
    return SolverResult(
        design=design,
        certificate=certificate,
        iterations=iterations,
        converged=certificate.max_violation <= config.kw_tolerance,
        newton_attempts=attempts,
    )
