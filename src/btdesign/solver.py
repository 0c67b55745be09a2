"""Locally D-optimal design solver: an active-set loop on the weight simplex.

With directional values d_ij = lambda_ij f^T M(w)^{-1} f and k = m-1, the
equivalence theorem certifies a design once max d_ij <= k + KW_TOLERANCE,
which by concavity also bounds log det M* - log det M(w) by KW_TOLERANCE.
Every saturated D-optimal design is a path, and only the path that visits
the alternatives in descending order of beta can hold beta in its region
(regions.sorted_beta_path), so the loop starts there, at weight 1/k on each
of its k edges.  Designs rank certified first, then by log det.  Each round
stops once max d <= k + KW_TOLERANCE; otherwise it tries these designs in
turn and adopts the first that ranks higher than w:

* in round 1 only, the exact design on the path plus its violators V
  (the pairs with d - k > KW_TOLERANCE, read from the start's own
  evaluation), when that support is a cactus: every violator joins path
  positions at least two apart, and no two violators' spans along the path
  share an edge.  regions._cactus_weights solves the KW equalities there,
  1/k on each bridge and one scalar root per cycle; at m = 4 a one-chord
  trial is the paper's four-point shared-vertex design.  A start that does
  not qualify pays only the interval test;
* a Fedorov-Wynn step toward the (at most k) largest violators: pair p
  gets a_p = (d_p - k) / (k (d_p - 1)), the exact maximizer of log det
  along w -> (1 - a) w + a e_p (Fedorov 1972), the steps are scaled so that
  they sum to at most 1/2, and the trial is (1 - sum a) w + a;
* the same step toward the largest violator alone, unscaled.  Each a_p is
  exact for its own pair, but nothing guards their sum: at m >= 20 the
  combined step can lower log det while its finish meets a singular
  system, which without this retry stops the loop uncertified far from the
  optimum.  One pair's step strictly raises log det whenever d_p > k.

Each step runs one Newton finish on its trial's support
(_newton_on_support), which replaces the trial unless it ranks lower (a
finish that meets a singular M or KKT system keeps the trial).  A round
that adopts none of its designs ends the loop, keeping w.

The guard and the stop keep the loop from cycling: a finish's cut-back can
drop the pair the step just added, and the same point would return.  A pair
that a finish dropped wrongly returns as a violator in the next round.
Where float rounding alone leaves d - k above KW_TOLERANCE (at |beta| <= 20
it stays below about 7e-8), a round cannot raise log det: the loop stops.

The cactus trial only proposes weights: every answer, that one included,
is certified from core._derivatives on all pairs, and the violators come
from that evaluation, never from the region test (regions.path_g_values),
so solve and the CLI's optimize stay an independent check of classify.

log det is strictly concave in M and w -> M is injective (M_ij = -w_ij
lambda_ij off the diagonal), so the optimum is unique and the start changes
only the time, never the answer.  Every evaluation comes from
core._derivatives, whose one Cholesky factor also gives log det, and the
result is certified from the evaluation already held at its weights.
iterations counts rounds, that is, stopping tests: a solve stopped by
max_iterations has failed that many of them, having stepped once fewer.
"""

from __future__ import annotations

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
from .optimality import KW_TOLERANCE, KwCertificate, _certificate
from .regions import _cactus_weights, sorted_beta_path

# Newton steps (re-linearizations) per finish; convergence is quadratic
# once the support is right.
_NEWTON_STEPS = 30
_NEWTON_STEP_TOL = 1e-13

MAX_ITERATIONS = 100_000


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


def _single_step(w: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """The Fedorov-Wynn step toward the largest violator alone, unscaled."""
    p = int(np.argmax(d))
    a = (d[p] - k) / (k * (d[p] - 1.0))
    trial = (1.0 - a) * w
    trial[p] += a
    return trial


def solve(params: Parameters, *, max_iterations: int = MAX_ITERATIONS) -> SolverResult:
    """Find a locally D-optimal design for the given parameter point in at most max_iterations (>= 1) rounds.

    The loop starts on the sorted-beta path; see the module docstring for
    its rounds, its steps and its stopping rules.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    k = params.m - 1
    F = regression_matrix(params.m)
    lam = params.intensities
    path = sorted_beta_path(params)
    w = np.zeros(len(F))
    w[path._edge_columns()] = 1.0 / k
    found = _derivatives(w, lam, F)
    if found is None:
        raise SingularMatrixError("information matrix is singular after 0 iterations")

    def rank(found):  # certified first, then by log det, read from the factor L
        return found[0].max() - k <= KW_TOLERANCE, 2.0 * float(np.log(found[2].diagonal()).sum())

    def finished(trial):  # the trial and its evaluation, or their Newton finish unless it ranks lower
        stepped = _derivatives(trial, lam, F)
        if stepped is None:
            return trial, None
        finish = _newton_on_support(trial, lam, F, k, trial > 0.0, stepped)
        if finish is not None and rank(finish[1]) >= rank(stepped):
            return finish
        return trial, stepped

    def trials(first, w, d):  # the round's designs, in the order they are tried
        if first:
            cactus = _cactus_weights(path, lam, np.flatnonzero(d - k > KW_TOLERANCE).tolist())
            if cactus is not None:
                yield cactus, _derivatives(cactus, lam, F)
        yield finished(_fedorov_wynn_step(w, d, k, KW_TOLERANCE))
        yield finished(_single_step(w, d, k))

    for iterations in range(1, max_iterations + 1):
        held = rank(found)
        if held[0] or iterations == max_iterations:
            break
        for trial, stepped in trials(iterations == 1, w, found[0]):
            if stepped is not None and rank(stepped) > held:
                w, found = trial, stepped
                break
        else:
            break

    # found was evaluated at exactly the weights w, so this is kw_check of the design.
    certificate = _certificate(found[0], params.m)
    return SolverResult(Design(params.m, w), certificate, iterations, converged=certificate.is_optimal)
