"""Locally D-optimal design solver: an active-set loop on the weight simplex.

With directional values d_ij = lambda_ij f^T M(w)^{-1} f and k = m-1, the
equivalence theorem certifies a design once max d_ij <= k + kw_tolerance.
Every saturated D-optimal design is a path, and only the path that visits
the alternatives in descending order of beta can hold beta in its region
(regions.sorted_beta_path), so the loop starts there, at weight 1/k on each
of its k edges.  Each round

* stops once max d <= k + kw_tolerance;
* otherwise takes a Fedorov-Wynn step toward the (at most k) largest
  violators: pair p gets a_p = (d_p - k) / (k (d_p - 1)), the exact
  maximizer of log det along w -> (1 - a) w + a e_p (Fedorov 1972), the
  steps are scaled so that they sum to at most 1/2, and the trial is
  (1 - sum a) w + a;
* runs one Newton finish on the trial's support (_newton_on_support);
* ranks designs certified first, then by log det: the finish replaces the
  trial unless it ranks lower (a finish that meets a singular M or KKT
  system keeps the trial), and the round ends the loop, keeping w, unless
  its design ranks higher than w.

The guard and the stop keep the loop from cycling: a finish's cut-back can
drop the pair the step just added, and the same point would return.  A pair
that a finish dropped wrongly returns as a violator in the next round.
Where float rounding alone leaves d - k near 1e-8 (|beta| near 20), a round
cannot raise log det, and the loop stops there uncertified.

log det is strictly concave in M and w -> M is injective (M_ij = -w_ij
lambda_ij off the diagonal), so the optimum is unique and the start changes
only the time, never the answer.  Every evaluation comes from
core._derivatives, whose one Cholesky factor also gives log det, and the
result is certified from the evaluation already held at its weights.
iterations counts rounds, that is, stopping tests: a solve stopped by
max_iterations has failed that many of them, having stepped once fewer.
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
    regression_matrix,
)
from .optimality import KwCertificate, _certificate
from .regions import sorted_beta_path

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


def _fedorov_wynn_step(w: np.ndarray, d: np.ndarray, k: int, tolerance: float) -> np.ndarray:
    """The round's trial: Fedorov-Wynn steps toward the (at most k) largest violators of k + tolerance."""
    top = np.argsort(d, kind="stable")[-k:]
    top = top[d[top] - k > tolerance]
    a = (d[top] - k) / (k * (d[top] - 1.0))
    a *= 0.5 / max(a.sum(), 0.5)
    trial = (1.0 - a.sum()) * w
    trial[top] += a
    return trial


def _newton_on_support(
    w: np.ndarray, lam: np.ndarray, F: np.ndarray, k: int, live: np.ndarray, found: tuple
) -> tuple[np.ndarray, tuple] | None:
    """Maximize log det M(w) over weights on the live pairs summing to one.

    Newton on the KKT system of the simplex constraint, started at w, whose
    weight lies on the live pairs; found = (d, Y, L) is core._derivatives
    at w on all pairs, and (d, Y) builds the first model.  The Hessian of
    log det is -(lambda_i lambda_j (f_i^T M^{-1} f_j)^2).  A step that would
    drive weights nonpositive is cut back on the same quadratic model: it
    stops where the first of them reaches zero, that pair leaves the trial
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
    d, Y = found[:2]
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
            return trial, found
        v = v + step
        v /= v.sum()
        trial = np.zeros_like(w)
        trial[support] = v
        found = _derivatives(trial, lam, F)
        if found is None:
            return None
        d, Y = found[:2]
    if n > k:  # out of steps: found was evaluated at trial
        return trial, found
    v = np.full(k, 1.0 / k)
    trial = np.zeros_like(w)
    trial[support] = v / v.sum()
    found = _derivatives(trial, lam, F)
    return None if found is None else (trial, found)


def solve(params: Parameters, config: SolverConfig = SolverConfig()) -> SolverResult:
    """Find a locally D-optimal design for the given parameter point.

    The loop starts on the sorted-beta path; see the module docstring for
    its rounds, its steps and its stopping rules.
    """
    k = params.m - 1
    F = regression_matrix(params.m)
    lam = params.intensities
    w = np.zeros(len(F))
    w[sorted_beta_path(params)._edge_columns()] = 1.0 / k
    found = _derivatives(w, lam, F)
    if found is None:
        raise SingularMatrixError("information matrix is singular after 0 iterations")

    def rank(found):  # certified first, then by log det, read from the factor L
        return found[0].max() - k <= config.kw_tolerance, 2.0 * float(np.log(found[2].diagonal()).sum())

    for iterations in range(1, config.max_iterations + 1):
        held = rank(found)
        if held[0] or iterations == config.max_iterations:
            break
        trial = _fedorov_wynn_step(w, found[0], k, config.kw_tolerance)
        stepped = _derivatives(trial, lam, F)
        if stepped is None:
            break
        finish = _newton_on_support(trial, lam, F, k, trial > 0.0, stepped)
        if finish is not None and rank(finish[1]) >= rank(stepped):
            trial, stepped = finish
        if rank(stepped) <= held:
            break
        w, found = trial, stepped

    # found was evaluated at exactly the weights of design, so this is kw_check(design, params).
    design = Design(params.m, w)
    certificate = _certificate(found, params.m, config.kw_tolerance)
    return SolverResult(
        design=design,
        certificate=certificate,
        iterations=iterations,
        converged=certificate.max_violation <= config.kw_tolerance,
    )
