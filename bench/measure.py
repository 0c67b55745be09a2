"""Statistics, output digests and failure accounting shared by the benchmark."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
from typing import Callable, Sequence

# A timing percentile is reported only with at least this many samples
# beyond it, so that it rests on more than a handful of slow calls.
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-quantile; refuses when fewer than ``min_beyond`` samples exceed its rank."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < min_beyond:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q:g} quantile; need {min_beyond}")
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def grid_digest(csv_text: str) -> str:
    """SHA-256 over the kind and support_size columns of a scan CSV, in row order."""
    h = hashlib.sha256()
    for row in csv.DictReader(io.StringIO(csv_text)):
        h.update(f"{row['kind']},{row['support_size']}\n".encode())
    return h.hexdigest()


class Attempts:
    """Counts attempted and failed operations.

    An operation fails when it raises or when ``ok`` rejects its result.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn: Callable, *args, ok: Callable[[object], bool] = lambda _: True, **kwargs):
        """Run ``fn``; return its result, or None when it failed."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any exception is a failed operation, recorded and counted
            self._fail(f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}")
            return None
        if not ok(result):
            self._fail(f"{getattr(fn, '__name__', fn)} returned a rejected result")
            return None
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
