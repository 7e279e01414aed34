"""repro — reproduction of "Exploring the Sustainability of Credit-incentivized
Peer-to-Peer Content Distribution" (Qiu, Huang, Wu, Li, Lau — ICDCSW 2012).

The package models credit-based P2P content distribution markets, maps them
onto Jackson queueing networks (Table I of the paper), analyses wealth
condensation (Lemma 1, Theorems 2–3, Eqs. 3–9) and reproduces the paper's
simulation study with two tick simulators: a chunk-level mesh-pull
streaming swarm and a transaction-level credit market.

Quickstart
----------
>>> from repro import CreditMarket, scale_free_topology
>>> topology = scale_free_topology(100, seed=1)
>>> market = CreditMarket(topology, initial_credits=50.0)
>>> equilibrium = market.equilibrium()
>>> bool(equilibrium.condensation.condenses) in (True, False)
True

Subpackages
-----------
``repro.core``
    Credit market, pricing, the income tax, spending policies,
    condensation analysis and inequality metrics.
``repro.queueing``
    Jackson queueing-network analytics (traffic equations, closed/open
    networks, Buzen convolution, MVA, the paper's approximations).
``repro.overlay``
    Overlay topologies, membership and churn parameters.
``repro.p2psim``
    The integrated credit-incentivized P2P simulators (chunk-level and
    transaction-level).
``repro.runner``
    Cached, parallel parameter sweeps.
``repro.experiments``
    One registered runner per figure of the paper's evaluation.
``repro.obs``
    Zero-dependency telemetry and the ``repro serve`` sweep daemon.
``repro.analysis``
    The determinism static analyzer (``repro analyze``).
``repro.utils``
    Seeded RNG streams, argument validation, statistics and records.
"""

from repro.core import (
    CreditMarket,
    DynamicSpendingPolicy,
    FixedSpendingPolicy,
    MarketEquilibrium,
    NoTax,
    PerPeerFlatPricing,
    PricingScheme,
    ThresholdIncomeTax,
    UniformPricing,
    condensation_threshold,
    diagnose_condensation,
    exchange_efficiency,
    gini_from_pmf,
    gini_index,
    lorenz_curve,
    lorenz_curve_from_pmf,
    wealth_summary,
)
from repro.overlay import (
    ChurnConfig,
    MembershipTracker,
    OverlayTopology,
    scale_free_topology,
)
from repro.queueing import (
    ClosedJacksonNetwork,
    OpenJacksonNetwork,
    RoutingMatrix,
    solve_traffic_equations,
    symmetric_marginal_pmf,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CreditMarket",
    "MarketEquilibrium",
    "PricingScheme",
    "UniformPricing",
    "PerPeerFlatPricing",
    "ThresholdIncomeTax",
    "NoTax",
    "FixedSpendingPolicy",
    "DynamicSpendingPolicy",
    "condensation_threshold",
    "diagnose_condensation",
    "exchange_efficiency",
    "gini_index",
    "gini_from_pmf",
    "lorenz_curve",
    "lorenz_curve_from_pmf",
    "wealth_summary",
    # overlay
    "OverlayTopology",
    "scale_free_topology",
    "MembershipTracker",
    "ChurnConfig",
    # queueing
    "RoutingMatrix",
    "ClosedJacksonNetwork",
    "OpenJacksonNetwork",
    "solve_traffic_equations",
    "symmetric_marginal_pmf",
]
