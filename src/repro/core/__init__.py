"""Core credit-market library — the paper's primary contribution.

The :class:`~repro.core.market.CreditMarket` class ties together an overlay
topology, a pricing scheme, peer earning/spending rates and credit
balances, and exposes the Table I mapping onto a Jackson queueing network.
Around it:

* :mod:`repro.core.pricing` — posted chunk prices (uniform, per-seller flat);
* :mod:`repro.core.taxation` — the income-tax counter-measure of Sec. VI-C
  and its untaxed baseline;
* :mod:`repro.core.spending` — fixed and wealth-proportional dynamic
  spending-rate policies (Sec. VI-D);
* :mod:`repro.core.condensation` — the condensation threshold ``T`` of
  Eq. (4), Theorems 2–3 and the exchange-efficiency formula of Eq. (9);
* :mod:`repro.core.metrics` — Gini/Lorenz and other inequality measures.
"""

from repro.core.pricing import PerPeerFlatPricing, PricingScheme, UniformPricing
from repro.core.taxation import NoTax, TaxPolicy, ThresholdIncomeTax
from repro.core.spending import (
    DynamicSpendingPolicy,
    FixedSpendingPolicy,
    SpendingPolicy,
)
from repro.core.condensation import (
    CondensationReport,
    condensation_threshold,
    diagnose_condensation,
    exchange_efficiency,
    is_symmetric_utilization,
)
from repro.core.metrics import (
    atkinson_index,
    bankruptcy_fraction,
    gini_from_pmf,
    gini_index,
    hoover_index,
    lorenz_curve,
    lorenz_curve_from_pmf,
    theil_index,
    wealth_summary,
)
from repro.core.market import CreditMarket, MarketEquilibrium

__all__ = [
    "PricingScheme",
    "UniformPricing",
    "PerPeerFlatPricing",
    "TaxPolicy",
    "NoTax",
    "ThresholdIncomeTax",
    "SpendingPolicy",
    "FixedSpendingPolicy",
    "DynamicSpendingPolicy",
    "CondensationReport",
    "condensation_threshold",
    "diagnose_condensation",
    "exchange_efficiency",
    "is_symmetric_utilization",
    "gini_index",
    "gini_from_pmf",
    "lorenz_curve",
    "lorenz_curve_from_pmf",
    "theil_index",
    "hoover_index",
    "atkinson_index",
    "bankruptcy_fraction",
    "wealth_summary",
    "CreditMarket",
    "MarketEquilibrium",
]
