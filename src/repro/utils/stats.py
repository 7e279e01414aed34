"""Small statistics helpers used by recorders, experiments and tests."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "RunningStat",
    "confidence_interval",
    "describe",
    "geometric_mean",
    "relative_error",
]


class RunningStat:
    """Online mean/variance accumulator (Welford's algorithm).

    Useful inside simulators where storing every sample would be wasteful.

    Examples
    --------
    >>> stat = RunningStat()
    >>> for value in [1.0, 2.0, 3.0]:
    ...     stat.push(value)
    >>> stat.mean
    2.0
    >>> round(stat.variance, 6)
    1.0
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Add many observations."""
        for value in values:
            self.push(value)

    @property
    def count(self) -> int:
        """Number of observations pushed so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return self._max

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Return a new accumulator equivalent to having pushed both streams."""
        merged = RunningStat()
        total = self._count + other._count
        if total == 0:
            return merged
        delta = other._mean - self._mean
        merged._count = total
        merged._mean = self._mean + delta * other._count / total
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self._count * other._count / total
        )
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Return a Student-t confidence interval for the mean of ``samples``.

    The half-width is ``t(n - 1, (1 + confidence) / 2) * s / sqrt(n)``, so
    the interval keeps its coverage at the handful of replications a sweep
    runs (at ``n = 2`` the 95% t quantile is 6.5 times the normal one).
    With fewer than two samples the interval degenerates to ``(mean, mean)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    mean = float(arr.mean())
    if arr.size < 2:
        return (mean, mean)
    from scipy.special import stdtrit

    t = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    half_width = t * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return (mean - half_width, mean + half_width)


def describe(samples: Sequence[float]) -> Dict[str, float]:
    """Return a dictionary of summary statistics for ``samples``."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    return {
        "count": float(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "p25": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "p75": float(np.percentile(arr, 75)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }


def geometric_mean(samples: Sequence[float]) -> float:
    """Geometric mean of strictly positive samples."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive samples")
    return float(np.exp(np.mean(np.log(arr))))


def relative_error(measured: float, reference: float) -> float:
    """Return ``|measured - reference| / |reference|`` (absolute error if reference is 0)."""
    measured = float(measured)
    reference = float(reference)
    if reference == 0.0:
        return abs(measured)
    return abs(measured - reference) / abs(reference)
