"""Spending-rate policies (Sec. VI-D).

A peer's maximum credit spending rate ``μ_i`` governs how fast it converts
wealth back into downloads.  The paper contrasts a *fixed* rate with a
*dynamic* rule in which a peer spends more aggressively when its wealth
exceeds a threshold ``m``:

    μ_i = μ_i^s · B_i / m   if B_i > m
    μ_i = μ_i^s             if B_i ≤ m

Dynamic adjustment was shown (Fig. 10) to reduce the stabilised Gini index,
because rich peers recirculate their surplus instead of hoarding it.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["SpendingPolicy", "FixedSpendingPolicy", "DynamicSpendingPolicy"]


class SpendingPolicy:
    """Maps a peer's base spending rate and current wealth to its effective rate."""

    def effective_rate(self, base_rate: float, wealth: float) -> float:
        """Return the effective maximum spending rate ``μ_i`` right now."""
        raise NotImplementedError

    def effective_rate_vector(
        self, base_rates: np.ndarray, wealths: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`effective_rate` over aligned rate/wealth arrays.

        ``base_rates`` may be one rate all peers share, which broadcasts.
        The base implementation falls back to the scalar method element by
        element; the built-in policies override it with array expressions
        that apply the *same* floating-point operations in the same order,
        so both paths return bit-identical rates.  Simulator hot loops call
        this once per round instead of once per peer.
        """
        return np.array(
            [
                self.effective_rate(float(base), float(wealth))
                for base, wealth in zip(np.broadcast_to(base_rates, np.shape(wealths)), wealths)
            ],
            dtype=float,
        )

    def describe(self) -> str:
        """One-line description for experiment legends."""
        raise NotImplementedError


class FixedSpendingPolicy(SpendingPolicy):
    """The effective rate always equals the base rate (the paper's default)."""

    def effective_rate(self, base_rate: float, wealth: float) -> float:
        return float(base_rate)

    def effective_rate_vector(
        self, base_rates: np.ndarray, wealths: np.ndarray
    ) -> np.ndarray:
        return np.asarray(base_rates, dtype=float)

    def describe(self) -> str:
        return "fixed spending rate"


class DynamicSpendingPolicy(SpendingPolicy):
    """Wealth-proportional acceleration above a threshold (the Sec. VI-D rule).

    Parameters
    ----------
    wealth_threshold:
        The threshold ``m``; below or at it the base rate applies, above it
        the rate scales as ``base_rate * wealth / m``.
    max_multiplier:
        Optional cap on the acceleration factor so a very rich peer does not
        acquire an unphysically large spending rate (``None`` = uncapped,
        matching the paper's formula).
    """

    def __init__(self, wealth_threshold: float, max_multiplier: float = None) -> None:
        self.wealth_threshold = check_positive(wealth_threshold, "wealth_threshold")
        if max_multiplier is not None:
            max_multiplier = check_positive(max_multiplier, "max_multiplier")
            if max_multiplier < 1.0:
                raise ValueError("max_multiplier must be at least 1")
        self.max_multiplier = max_multiplier

    def effective_rate(self, base_rate: float, wealth: float) -> float:
        base_rate = float(base_rate)
        wealth = max(0.0, float(wealth))
        if wealth <= self.wealth_threshold:
            return base_rate
        multiplier = wealth / self.wealth_threshold
        if self.max_multiplier is not None:
            multiplier = min(multiplier, self.max_multiplier)
        return base_rate * multiplier

    def effective_rate_vector(
        self, base_rates: np.ndarray, wealths: np.ndarray
    ) -> np.ndarray:
        base_rates = np.asarray(base_rates, dtype=float)
        wealths = np.maximum(np.asarray(wealths, dtype=float), 0.0)
        multiplier = wealths / self.wealth_threshold
        if self.max_multiplier is not None:
            multiplier = np.minimum(multiplier, self.max_multiplier)
        return np.where(wealths <= self.wealth_threshold, base_rates, base_rates * multiplier)

    def describe(self) -> str:
        if self.max_multiplier is None:
            return f"dynamic spending rate (threshold m={self.wealth_threshold:g})"
        return (
            f"dynamic spending rate (threshold m={self.wealth_threshold:g}, "
            f"cap {self.max_multiplier:g}x)"
        )
