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

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

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
        object.__setattr__(self, "_hash", hash((self.i, self.j)))

    def __hash__(self) -> int:  # cached; pairs key every weight table
        return self._hash

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

    @classmethod
    def from_pi(cls, pi: Sequence[float]) -> "Parameters":
        """Build from positive preference values; the last one is the control."""
        m = len(pi)
        if any(p <= 0 for p in pi):
            raise ValueError("preference values must be positive")
        return cls(m, tuple(math.log(pi[i] / pi[-1]) for i in range(m - 1)))

    def beta_full(self) -> np.ndarray:
        """The length-m log-preference vector including the control zero."""
        return np.append(np.asarray(self.beta, dtype=float), 0.0)


def intensity(z: float) -> float:
    """Logistic variance weight e^z / (1 + e^z)^2 of a log-odds difference.

    Evaluated through e^{-|z|} so large |z| underflows gracefully instead of
    overflowing; the function is even in z and peaks at 1/4 for z = 0.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"log-odds difference must be finite, got {z}")
    a = math.exp(-abs(z))
    # Composed rounding can land one ulp above the analytic peak of 1/4
    # (e.g. z = 1e-12); clamp so the mathematical bound holds exactly.
    return min(a / (1.0 + a) ** 2, 0.25)


def intensity_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`intensity` for batch evaluation."""
    a = np.exp(-np.abs(np.asarray(z, dtype=float)))
    return np.minimum(a / (1.0 + a) ** 2, 0.25)


@dataclass(frozen=True)
class IntensityTable:
    """Intensities lambda_ij for every pair at a fixed parameter point."""

    m: int
    values: Mapping[Pair, float]

    def __post_init__(self) -> None:
        values = {p: float(v) for p, v in self.values.items()}
        if set(values) != set(all_pairs(self.m)):
            raise ValueError(f"intensity table must cover exactly the pairs on 1..{self.m}")
        for p, lam in values.items():
            if not (0.0 < lam <= 0.25):
                if lam == 0.0:
                    raise IntensityUnderflowError(
                        f"intensity for {p} underflows to 0: the preference gap is beyond the certifiable range"
                    )
                raise ValueError(f"intensity for {p} must lie in (0, 1/4], got {lam}")
        object.__setattr__(self, "values", values)

    def __getitem__(self, pair: Pair) -> float:
        return self.values[pair]


def intensity_table(params: Parameters) -> IntensityTable:
    """Intensities lambda_ij = intensity(beta_i - beta_j) for all i < j."""
    vals = dict(zip(all_pairs(params.m), intensity_vector(params)))
    return IntensityTable(params.m, vals)


def intensity_vector(params: Parameters) -> np.ndarray:
    """Intensities aligned with :func:`all_pairs` ordering (hot-path form).

    The log-odds difference of a pair is exactly its regression vector
    applied to beta, so the whole table is one matrix-vector product.
    """
    z = regression_matrix(params.m) @ np.asarray(params.beta)
    return intensity_array(z)


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


@dataclass(frozen=True)
class Design:
    """An approximate design: nonnegative weights on pairs, summing to one."""

    m: int
    weights: Mapping[Pair, float]

    def __post_init__(self) -> None:
        weights = {p: float(w) for p, w in self.weights.items()}
        for p, w in weights.items():
            check_pair(p, self.m)
            if not math.isfinite(w) or w < 0.0:
                raise ValueError(f"weight for {p} must be finite and nonnegative, got {w}")
        total = math.fsum(weights.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, m: int) -> "Design":
        pairs = all_pairs(m)
        return cls(m, {p: 1.0 / len(pairs) for p in pairs})

    @classmethod
    def equal_on(cls, m: int, pairs: Iterable[Pair]) -> "Design":
        pairs = list(pairs)
        return cls(m, {p: 1.0 / len(pairs) for p in pairs})

    def weight(self, pair: Pair) -> float:
        return self.weights.get(pair, 0.0)

    def support(self, threshold: float = SUPPORT_THRESHOLD) -> tuple[Pair, ...]:
        """Pairs carrying more than the support threshold of weight."""
        return tuple(sorted(p for p, w in self.weights.items() if w > threshold))

    def as_vector(self, m: int | None = None) -> np.ndarray:
        """Weights aligned with :func:`all_pairs` ordering."""
        pairs = all_pairs(m or self.m)
        return np.array([self.weight(p) for p in pairs])


def design_from_vector(m: int, w: np.ndarray, drop_zero: bool = True) -> Design:
    """Inverse of :meth:`Design.as_vector`, optionally dropping exact zeros."""
    pairs = all_pairs(m)
    weights = {p: float(x) for p, x in zip(pairs, w) if not (drop_zero and x == 0.0)}
    return Design(m, weights)


@dataclass(frozen=True)
class InfoMatrix:
    """A symmetric positive semidefinite (m-1) x (m-1) information matrix."""

    m: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.shape != (self.m - 1, self.m - 1):
            raise ValueError(f"expected shape {(self.m - 1, self.m - 1)}, got {a.shape}")
        if np.max(np.abs(a - a.T), initial=0.0) > 1e-14:
            raise ValueError("information matrix must be symmetric to 1e-14")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


def information_matrix(design: Design, params: Parameters) -> InfoMatrix:
    """M(xi, beta) = sum over pairs of w_ij lambda_ij f(i,j) f(i,j)^T."""
    if design.m != params.m:
        raise ValueError(f"design has m={design.m} but parameters have m={params.m}")
    F = regression_matrix(params.m)
    wl = design.as_vector() * intensity_vector(params)
    M = F.T @ (F * wl[:, None])
    # Rank-one accumulation is symmetric up to rounding; tie it down exactly.
    M = 0.5 * (M + M.T)
    return InfoMatrix(params.m, M)


def cholesky_pivots(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of A, or None when A is numerically singular.

    A pivot that is nonpositive (the factorization breaks down), or at most
    SINGULARITY_RTOL times the largest pivot, counts as singular.
    """
    A = np.asarray(A, dtype=float)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    d = np.diag(L)
    if d.min() ** 2 <= SINGULARITY_RTOL * d.max() ** 2:
        return None
    return L


def log_det(M: InfoMatrix | np.ndarray) -> float:
    """log det of a symmetric PSD matrix; -inf flags a singular matrix."""
    A = M.entries if isinstance(M, InfoMatrix) else np.asarray(M, dtype=float)
    L = cholesky_pivots(A)
    if L is None:
        return float("-inf")
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def solve_spd(M: InfoMatrix | np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve M x = v for symmetric positive definite M."""
    A = M.entries if isinstance(M, InfoMatrix) else np.asarray(M, dtype=float)
    if cholesky_pivots(A) is None:
        raise SingularMatrixError("matrix is singular to working precision")
    return np.linalg.solve(A, np.asarray(v, dtype=float))
