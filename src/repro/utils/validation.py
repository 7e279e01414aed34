"""Input-validation helpers shared across the library.

These helpers raise ``ValueError`` (or ``TypeError`` where appropriate) with
messages that name the offending argument, so failures at the public API
surface are actionable.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_probability_vector",
    "check_square_matrix",
    "check_stochastic_matrix",
]

Number = Union[int, float]


def check_positive(value: Number, name: str) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_non_negative(value: Number, name: str) -> float:
    """Validate that ``value`` is a finite number greater than or equal to zero."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_fraction(value: Number, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` (or ``(0, 1)`` if not inclusive)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_probability_vector(vector: Sequence[Number], name: str, *, atol: float = 1e-9) -> np.ndarray:
    """Validate that ``vector`` is non-negative and sums to one.

    Returns the vector as a float ndarray (renormalised exactly to sum 1 to
    absorb floating-point drift below ``atol``).
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(arr < -atol):
        raise ValueError(f"{name} must be non-negative")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if not np.isclose(total, 1.0, atol=atol, rtol=0.0):
        raise ValueError(f"{name} must sum to 1 (got {total!r})")
    return arr / total


def check_square_matrix(matrix: Sequence[Sequence[Number]], name: str) -> np.ndarray:
    """Validate that ``matrix`` is a two-dimensional square array."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite entries")
    return arr


def check_stochastic_matrix(
    matrix: Sequence[Sequence[Number]], name: str, *, atol: float = 1e-8
) -> np.ndarray:
    """Validate that ``matrix`` is square, non-negative and row-stochastic.

    Rows are renormalised exactly to sum 1 to absorb floating-point drift
    below ``atol``.
    """
    arr = check_square_matrix(matrix, name)
    if np.any(arr < -atol):
        raise ValueError(f"{name} must be non-negative")
    arr = np.clip(arr, 0.0, None)
    row_sums = arr.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=atol, rtol=0.0):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(
            f"{name} rows must each sum to 1; row {bad} sums to {float(row_sums[bad])!r}"
        )
    return arr / row_sums[:, None]
