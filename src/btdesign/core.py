"""Model primitives for paired-comparison design optimization.

The Bradley-Terry model compares m alternatives pairwise.  Alternative i
carries a latent log-preference beta_i, with the control coding beta_m = 0,
so a parameter point is a vector of m-1 reals.  An approximate design
assigns nonnegative weights summing to one to the comparison pairs (i, j),
i < j.  Each pair contributes a rank-one term

    lambda_ij * f(i,j) f(i,j)^T

to the (m-1) x (m-1) information matrix, where lambda_ij is the logistic
variance weight (the "intensity") of the comparison and f(i,j) its
regression vector.  This module holds those value types and the small dense
linear algebra on them; everything is immutable and pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

# Weights must sum to one within this tolerance.
WEIGHT_SUM_TOL = 1e-12
# Pairs with weight above this threshold count as support; iterative
# solvers drive off-support weights to numerical zero, never exactly zero.
SUPPORT_THRESHOLD = 1e-9
# A Cholesky pivot at or below this fraction of the largest pivot flags the
# matrix as singular (separates structurally rank-deficient designs from
# merely ill-conditioned ones at the problem sizes we target).
SINGULARITY_RTOL = 1e-12
# The smallest normal float: a Cholesky pivot whose square lies below it
# has lost its relative precision, and its inverse can overflow.
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


class BtDesignError(Exception):
    """Base class for errors raised by this package."""


class SingularMatrixError(BtDesignError):
    """An operation required a positive definite matrix and did not get one."""


class IntensityUnderflowError(BtDesignError):
    """An intensity underflowed to zero: a preference gap is too large to certify."""


@dataclass(frozen=True, order=True, eq=True)
class Pair:
    """An unordered comparison, stored canonically with i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError(f"a pair must compare two distinct alternatives, got ({self.i}, {self.j})")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)
        if self.i < 1:
            raise ValueError(f"alternative indices start at 1, got ({self.i}, {self.j})")

    def key(self) -> str:
        return f"{self.i}-{self.j}"

    @classmethod
    def from_key(cls, key: str) -> "Pair":
        a, _, b = key.partition("-")
        return cls(int(a), int(b))

    def __repr__(self) -> str:  # compact in test output
        return f"({self.i},{self.j})"


def check_pair(pair: Pair, m: int) -> None:
    """Raise ValueError unless pair lives on the alternatives 1..m."""
    if pair.j > m:
        raise ValueError(f"pair {pair} out of range for m={m}")


@lru_cache(maxsize=None)
def all_pairs(m: int) -> tuple[Pair, ...]:
    """All comparison pairs on 1..m in lexicographic order."""
    if m < 2:
        raise ValueError(f"need at least two alternatives, got m={m}")
    return tuple(Pair(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1))


@lru_cache(maxsize=None)
def _pair_columns(m: int) -> np.ndarray:
    """columns[x, y] is the all_pairs(m) index of the pair of alternatives x + 1 and y + 1, x != y."""
    u, v = np.triu_indices(m, 1)  # row-major upper triangle: all_pairs order
    columns = np.zeros((m, m), dtype=np.intp)
    columns[u, v] = columns[v, u] = np.arange(len(u))
    columns.setflags(write=False)
    return columns


@dataclass(frozen=True)
class Parameters:
    """A model point: m alternatives and the m-1 free log-preferences.

    beta[i-1] is the log-preference of alternative i; alternative m is the
    control with log-preference zero.
    """

    m: int
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least two alternatives, got m={self.m}")
        beta = tuple(float(b) for b in self.beta)
        if len(beta) != self.m - 1:
            raise ValueError(f"expected {self.m - 1} parameters for m={self.m}, got {len(beta)}")
        if not all(math.isfinite(b) for b in beta):
            raise ValueError(f"parameters must be finite, got {beta}")
        object.__setattr__(self, "beta", beta)

    @cached_property
    def intensities(self) -> np.ndarray:
        """Read-only :func:`intensity_vector` of beta, computed on first use.

        A point past the certifiable range still constructs; every access
        then raises IntensityUnderflowError, since a raise caches nothing.
        """
        lam = intensity_vector(self.beta)
        lam.setflags(write=False)
        return lam

    def __reduce__(self):  # pickle (m, beta) only; the copy recomputes its intensities
        return type(self), (self.m, self.beta)


def intensity_vector(beta: np.ndarray) -> np.ndarray:
    """Intensities lambda_ij for every pair, in :func:`all_pairs` order.

    beta has shape (..., m-1) and m is read from its last axis; the result
    has shape (..., P).  The log-odds difference of a pair is exactly its
    regression vector applied to beta, and the logistic variance weight
    e^z / (1 + e^z)^2 is evaluated through e^{-|z|}, so large |z| underflows
    instead of overflowing; it is even in z and peaks at 1/4 for z = 0.
    An intensity that underflows to 0 leaves the certifiable range, and
    this is the one place that says so.
    """
    beta = np.asarray(beta, dtype=float)
    with np.errstate(over="ignore"):  # a gap past the float range is infinite, and its intensity 0
        z = np.inner(beta, regression_matrix(beta.shape[-1] + 1))
    a = np.exp(-np.abs(z))
    # Composed rounding can land one ulp above the analytic peak of 1/4
    # (e.g. z = 1e-12); clamp so the mathematical bound holds exactly.
    lam = np.minimum(a / (1.0 + a) ** 2, 0.25)
    if np.count_nonzero(lam > 0.0) < lam.size:  # a zero, or the NaN of a non-finite beta
        if not np.isfinite(beta).all():
            raise ValueError("log-preferences must be finite")
        raise IntensityUnderflowError(
            "an intensity underflows to 0: the preference gap is beyond the certifiable range"
        )
    return lam


def regression_vector(pair: Pair, m: int) -> np.ndarray:
    """Regression vector f(i,j): e_i - e_j for j < m, e_i for j = m."""
    check_pair(pair, m)
    f = np.zeros(m - 1, dtype=np.int64)
    f[pair.i - 1] = 1
    if pair.j < m:
        f[pair.j - 1] = -1
    return f


@lru_cache(maxsize=None)
def regression_matrix(m: int) -> np.ndarray:
    """Stacked regression vectors, one row per pair in all_pairs order."""
    F = np.array([regression_vector(p, m) for p in all_pairs(m)], dtype=float)
    F.setflags(write=False)
    return F


@dataclass(frozen=True, eq=False)
class Design:
    """An approximate design: nonnegative weights on pairs, summing to one.

    w holds the weights in all_pairs(m) order, read-only.  The constructor
    copies an array of that length, or a mapping in which absent pairs weigh 0.
    The input is checked before any pair table is built, so a bad design at a
    huge m costs no more than its input; a valid mapping still costs the
    P = m(m-1)/2 floats of w.
    """

    m: int
    w: np.ndarray

    def __post_init__(self) -> None:
        m = self.m
        if m < 2:
            raise ValueError(f"need at least two alternatives, got m={m}")
        n = math.comb(m, 2)
        pairs = list(self.w) if isinstance(self.w, Mapping) else None
        if pairs is not None:
            for p in pairs:
                check_pair(p, m)
            values = np.array(list(self.w.values()), dtype=float)
        else:
            values = np.array(self.w, dtype=float)
            if values.shape != (n,):
                raise ValueError(f"expected {n} weights for m={m}, got shape {values.shape}")
        bad = np.flatnonzero(~np.isfinite(values) | (values < 0.0)).tolist()
        if bad:
            pair = (pairs or all_pairs(m))[bad[0]]
            raise ValueError(f"weight for {pair} must be finite and nonnegative, got {values[bad[0]]}")
        total = math.fsum(values.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        w = values
        if pairs is not None:  # scatter each weight to the all_pairs(m) index of its (i, j)
            w = np.zeros(n)
            w[[(p.i - 1) * (2 * m - p.i) // 2 + p.j - p.i - 1 for p in pairs]] = values
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __reduce__(self):  # pickle and deepcopy through the constructor, which keeps w a read-only copy
        return type(self), (self.m, self.w)

    @classmethod
    def uniform(cls, m: int) -> "Design":
        n = len(all_pairs(m))
        return cls(m, np.full(n, 1.0 / n))

    @classmethod
    def equal_on(cls, m: int, pairs: Iterable[Pair]) -> "Design":
        pairs = list(pairs)
        return cls(m, dict.fromkeys(pairs, 1.0 / len(pairs)))

    def weight(self, pair: Pair) -> float:
        return float(self.w[_pair_columns(self.m)[pair.i - 1, pair.j - 1]])

    def support(self) -> tuple[Pair, ...]:
        """Pairs carrying more than SUPPORT_THRESHOLD of weight, in all_pairs order."""
        return tuple(itertools.compress(all_pairs(self.m), (self.w > SUPPORT_THRESHOLD).tolist()))


def information_matrix(design: Design, params: Parameters) -> np.ndarray:
    """M(xi, beta) = sum over pairs of w_ij lambda_ij f(i,j) f(i,j)^T, (m-1) x (m-1)."""
    if design.m != params.m:
        raise ValueError(f"design has m={design.m} but parameters have m={params.m}")
    F = regression_matrix(params.m)
    wl = design.w * params.intensities
    M = F.T @ (F * wl[:, None])
    # Rank-one accumulation is symmetric up to rounding; tie it down exactly.
    return 0.5 * (M + M.T)


def cholesky_pivots(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of A, or None when A is numerically singular.

    A pivot that is nonpositive (the factorization breaks down), at most
    SINGULARITY_RTOL times the largest pivot, or whose square is below the
    normal floats (at m = 2 with a subnormal intensity, M^{-1} would
    overflow) counts as singular.
    """
    A = np.asarray(A, dtype=float)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    d = L.diagonal().tolist()  # Python floats: numpy scalars cost more than the test itself
    low = min(d) ** 2
    if low <= SINGULARITY_RTOL * max(d) ** 2 or low < _SMALLEST_NORMAL:
        return None
    return L


def _derivatives(w: np.ndarray, lam: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Directional values d_p = lambda_p f_p^T M^{-1} f_p for every row f_p of F.

    M = F^T diag(w lambda) F is factored once, M = L L^T; then Y = L^{-1} F^T
    gives f_p^T M^{-1} f_q = (Y^T Y)_pq, so d is lambda times the column sums
    of Y**2.  Returns (d, Y, L), or None when M is singular; L also gives
    log det M, twice the sum of log diag L, to the callers that need it.
    """
    L = cholesky_pivots(F.T @ (F * (w * lam)[:, None]))
    if L is None:
        return None
    Y = np.linalg.solve(L, F.T)
    return lam * np.einsum("ij,ij->j", Y, Y), Y, L


def log_det(M: np.ndarray) -> float:
    """log det of a symmetric PSD matrix; -inf flags a singular matrix."""
    L = cholesky_pivots(M)
    if L is None:
        return float("-inf")
    return 2.0 * float(np.sum(np.log(np.diag(L))))
