"""The claw's would-be optimality region: the test oracle for criterion 5.

The claw (the star on edges (1,2), (1,3), (1,4)) is the smallest spanning
tree that is not a path.  The path theorem in the regions docstring proves
that no such tree is ever a saturated optimum; these scans search the
claw's three polynomial inequalities for a counterexample, numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClawScanReport:
    """Outcome of scanning the claw design's would-be optimality region.

    The claw on edges (1,2), (1,3), (1,4) is optimal only where three
    polynomial inequalities in the preference values hold simultaneously;
    max_min_slack < 0 everywhere confirms the region is empty on the scanned
    set.
    """

    points_checked: int
    feasible_count: int
    max_min_slack: float
    worst_point: tuple[float, float, float]


def _claw_min_slack(pi1: np.ndarray, pi2: np.ndarray, pi3: np.ndarray) -> np.ndarray:
    """Min slack of the three claw inequalities; >= 0 would mean feasible."""
    s1 = pi1 * (pi2 - pi3) ** 2 - (pi2 + pi3) * (pi1**2 + pi2 * pi3)
    s2 = pi1 * (pi2 - 1.0) ** 2 - (pi2 + 1.0) * (pi1**2 + pi2)
    s3 = pi1 * (pi3 - 1.0) ** 2 - (pi3 + 1.0) * (pi1**2 + pi3)
    return np.minimum(s1, np.minimum(s2, s3))


def _claw_report(pi: tuple[np.ndarray, np.ndarray, np.ndarray]) -> ClawScanReport:
    slack = _claw_min_slack(*pi)
    best = int(np.argmax(slack))
    return ClawScanReport(
        points_checked=int(slack.size),
        feasible_count=int(np.count_nonzero(slack >= 0.0)),
        max_min_slack=float(slack[best]),
        worst_point=(float(pi[0][best]), float(pi[1][best]), float(pi[2][best])),
    )


def claw_infeasibility_scan(
    points_per_axis: int = 100, lower: float = 1e-3, upper: float = 1e3
) -> ClawScanReport:
    """Log-spaced grid scan over (pi1, pi2, pi3) in [lower, upper]^3."""
    axis = np.geomspace(lower, upper, points_per_axis)
    p1, p2, p3 = np.meshgrid(axis, axis, axis, indexing="ij")
    return _claw_report((p1.ravel(), p2.ravel(), p3.ravel()))


def claw_infeasibility_sample(
    n_samples: int = 100_000, seed: int = 0, lower: float = 1e-3, upper: float = 1e3
) -> ClawScanReport:
    """Log-uniform random sampling over the same box as the grid scan."""
    rng = np.random.default_rng(seed)
    logs = rng.uniform(math.log(lower), math.log(upper), size=(3, n_samples))
    pi = np.exp(logs)
    return _claw_report((pi[0], pi[1], pi[2]))
