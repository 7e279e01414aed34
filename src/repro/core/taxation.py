"""The taxation counter-measure against wealth condensation (Sec. VI-C).

The paper's taxation rule: for a peer whose wealth exceeds a *tax
threshold*, the system collects a fixed proportion (the *tax rate*) of its
income; whenever the collected pool reaches ``N`` units, one unit is
returned to every peer.  :class:`ThresholdIncomeTax` implements exactly
that rule on the alive peers' balance and income arrays; :class:`NoTax` is
the untaxed baseline.  A policy keeps no run state: the pool and the
totals live in the simulator that applies it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_fraction, check_non_negative

__all__ = ["TaxPolicy", "NoTax", "ThresholdIncomeTax"]


class TaxPolicy:
    """Interface for taxation policies applied to peer income."""

    def apply(
        self, balances: np.ndarray, incomes: np.ndarray, pool: float
    ) -> Tuple[float, float, float]:
        """Tax one round of the alive peers' ``incomes`` and pay rebates from ``pool``.

        ``balances`` and ``incomes`` are aligned arrays over the alive
        peers; ``balances`` is edited in place.  Returns ``(collected,
        rebated, pool)``: what this round collected and rebated, and the
        pool carried to the next round.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description for experiment legends."""
        raise NotImplementedError


class NoTax(TaxPolicy):
    """The baseline: no taxation at all."""

    def apply(
        self, balances: np.ndarray, incomes: np.ndarray, pool: float
    ) -> Tuple[float, float, float]:
        return 0.0, 0.0, pool

    def describe(self) -> str:
        return "no taxation"


class ThresholdIncomeTax(TaxPolicy):
    """The paper's taxation rule: tax income of peers above a wealth threshold.

    Parameters
    ----------
    rate:
        Fraction of income collected from peers whose wealth exceeds the
        threshold (the paper studies 0.1 and 0.2).
    threshold:
        Wealth level above which income is taxed (the paper studies 50 and
        80 against an average wealth of 100).
    rebate_unit:
        Size of the per-peer rebate paid out once the pool holds
        ``rebate_unit × N`` credits (the paper uses 1 credit per peer).
    """

    def __init__(self, rate: float, threshold: float, rebate_unit: float = 1.0) -> None:
        self.rate = check_fraction(rate, "rate")
        self.threshold = check_non_negative(threshold, "threshold")
        self.rebate_unit = check_non_negative(rebate_unit, "rebate_unit")

    def apply(
        self, balances: np.ndarray, incomes: np.ndarray, pool: float
    ) -> Tuple[float, float, float]:
        """Tax every peer on its balance before any rebate, then rebate.

        A peer above the threshold pays ``rate`` of its income, capped at
        its balance.  The pool then pays ``rebate_unit`` to every peer as
        many times as it covers a whole round of rebates, all at once.
        """
        taxable = balances > self.threshold
        taxes = np.where(taxable, np.minimum(incomes * self.rate, balances), 0.0)
        balances -= taxes
        collected = float(taxes.sum())
        pool += collected
        rebated = 0.0
        rebate_cost = self.rebate_unit * balances.size
        if rebate_cost > 0 and pool >= rebate_cost:
            # ``pool / cost`` overflows to inf for a subnormal unit, so the
            # count stops where float64 still counts whole rounds exactly.
            rounds = min(float(np.floor(pool / rebate_cost)), 2.0**53)
            if rounds * rebate_cost > pool:
                rounds -= 1.0
            balances += rounds * self.rebate_unit
            rebated = rounds * rebate_cost
            pool -= rebated
        return collected, rebated, pool

    def describe(self) -> str:
        return f"tax rate={self.rate:g} threshold={self.threshold:g}"
