"""Configuration objects for the integrated P2P credit simulators."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.pricing import PricingScheme, UniformPricing
from repro.core.spending import FixedSpendingPolicy, SpendingPolicy
from repro.core.taxation import NoTax, TaxPolicy
from repro.overlay.churn import ChurnConfig
from repro.utils.validation import check_positive

__all__ = ["UtilizationMode", "MarketSimConfig", "StreamingSimConfig"]


class UtilizationMode(enum.Enum):
    """How peer earning/spending rates are configured (Sec. VI of the paper).

    ``SYMMETRIC`` — spending rates are tuned so every peer's utilization
    ``λ_i / μ_i`` is identical (the ū = {1, ..., 1} case): ``μ_i ∝ λ_i``
    with ``λ_i = w_i · W_i``, the exact solution of the traffic equations
    for routing in proportion to the sellers' prices ``w`` (``W_i`` sums
    them over ``i``'s neighbours), found in one pass over the overlay's
    edges rather than by an ``N × N`` eigenvector solve.  Peers joining
    through churn get the mean rate of the peers alive before them.
    ``ASYMMETRIC`` — every peer has the same maximum spending rate while
    earning rates follow from the (heterogeneous, scale-free) topology, so
    utilizations differ across peers.
    """

    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"


@dataclass
class MarketSimConfig:
    """Parameters of the transaction-level credit-market simulator.

    Attributes
    ----------
    num_peers:
        Initial population ``N`` (the paper's default simulations use 1000;
        benchmarks use smaller populations for wall-clock reasons).
    initial_credits:
        Initial wealth ``c`` endowed to every peer (and to every joining
        peer under churn).
    horizon:
        Simulated seconds.
    step:
        Length of one simulation round in seconds; credit transfers within a
        round are drawn from the corresponding Poisson counts.
    base_spending_rate:
        Baseline maximum spending rate ``μ`` in credits per second.
    utilization:
        Symmetric or asymmetric utilization (see :class:`UtilizationMode`).
    spending_rate_noise:
        Multiplicative lognormal noise applied to each peer's configured
        spending rate (coefficient of variation).  Models the fact that the
        rates *realised* by a protocol deviate from the configured ones; a
        perfectly symmetric configuration with a few percent of realised
        noise is what the paper's "symmetric utilization" simulations
        correspond to in practice.  Default 0 (exact configuration).
    topology_shape / topology_mean_degree:
        Scale-free overlay parameters (the paper uses shape 2.5, mean 20).
    pricing:
        Pricing scheme; prices shape both spending rates and routing
        weights (credits flow toward expensive, attractive sellers).
    spending_policy:
        Fixed or dynamic (wealth-proportional) spending policy.
    tax_policy:
        Taxation policy applied to peer income.
    churn:
        Optional churn configuration; ``None`` simulates a static overlay
        (closed network).
    sample_interval:
        Seconds between Gini/snapshot samples.
    seed:
        Base RNG seed.
    """

    num_peers: int = 200
    initial_credits: float = 100.0
    horizon: float = 4000.0
    step: float = 1.0
    base_spending_rate: float = 1.0
    utilization: UtilizationMode = UtilizationMode.SYMMETRIC
    spending_rate_noise: float = 0.0
    topology_shape: float = 2.5
    topology_mean_degree: float = 20.0
    pricing: PricingScheme = field(default_factory=UniformPricing)
    spending_policy: SpendingPolicy = field(default_factory=FixedSpendingPolicy)
    tax_policy: TaxPolicy = field(default_factory=NoTax)
    churn: Optional[ChurnConfig] = None
    sample_interval: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_peers < 2:
            raise ValueError("num_peers must be at least 2")
        check_positive(self.initial_credits, "initial_credits")
        check_positive(self.horizon, "horizon")
        check_positive(self.step, "step")
        check_positive(self.base_spending_rate, "base_spending_rate")
        if self.spending_rate_noise < 0:
            raise ValueError("spending_rate_noise must be non-negative")
        check_positive(self.sample_interval, "sample_interval")
        if self.topology_mean_degree >= self.num_peers:
            raise ValueError("topology_mean_degree must be smaller than num_peers")


@dataclass
class StreamingSimConfig:
    """Parameters of the chunk-level streaming-market simulator.

    Attributes
    ----------
    num_peers:
        Population size (the paper's Fig. 1 uses 500).
    initial_credits:
        Initial wealth ``c`` per peer.
    horizon:
        Simulated seconds.
    chunk_rate:
        Source streaming rate in chunks per second.
    scheduling_interval:
        Seconds between a peer's chunk-scheduling rounds.
    max_requests_per_round:
        Concurrent chunk requests per scheduling round.
    startup_chunks:
        Contiguous chunks required before playback starts.
    playback_window:
        Number of chunk positions between the playback point and the live
        edge a peer tries to fill.
    transfer_latency:
        Seconds between paying for a chunk and receiving it.
    upload_capacity:
        Maximum chunks a peer may upload (sell) per scheduling interval —
        models the finite upload bandwidth of the UUSee-like protocol and
        prevents high-degree peers from serving unboundedly many buyers.
    supplier_choice:
        ``"least-loaded"`` (default: prefer the supplier that has uploaded
        the least so far, the load balancing of deployed mesh-pull systems),
        ``"availability"`` (pick uniformly among neighbours that hold the
        chunk) or ``"cheapest"`` (price-shopping ablation).
    seed_fanout:
        Number of random peers that receive each freshly emitted chunk for
        free from the source (the origin server's push degree).
    pricing:
        Posted per-seller chunk prices (Fig. 1 case A draws each seller's
        flat price from a Poisson law with mean 1 credit, case B prices
        every chunk at 1 credit).
    spending_policy / tax_policy:
        As in :class:`MarketSimConfig`.
    topology_shape / topology_mean_degree:
        Scale-free overlay parameters.
    churn:
        Optional churn configuration; ``None`` streams on a static overlay.
        Joining peers receive ``initial_credits`` and tune in near the live
        edge; departing peers take their credits out of the economy, as in
        the market simulator.
    sample_interval:
        Seconds between recorder samples.
    seed:
        Base RNG seed.
    """

    num_peers: int = 100
    initial_credits: float = 100.0
    horizon: float = 600.0
    chunk_rate: float = 1.0
    scheduling_interval: float = 1.0
    max_requests_per_round: int = 4
    startup_chunks: int = 5
    playback_window: int = 30
    transfer_latency: float = 0.2
    upload_capacity: int = 3
    supplier_choice: str = "least-loaded"
    seed_fanout: int = 4
    pricing: PricingScheme = field(default_factory=UniformPricing)
    spending_policy: SpendingPolicy = field(default_factory=FixedSpendingPolicy)
    tax_policy: TaxPolicy = field(default_factory=NoTax)
    topology_shape: float = 2.5
    topology_mean_degree: float = 20.0
    churn: Optional[ChurnConfig] = None
    sample_interval: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_peers < 2:
            raise ValueError("num_peers must be at least 2")
        check_positive(self.initial_credits, "initial_credits")
        check_positive(self.horizon, "horizon")
        check_positive(self.chunk_rate, "chunk_rate")
        check_positive(self.scheduling_interval, "scheduling_interval")
        check_positive(self.sample_interval, "sample_interval")
        if self.max_requests_per_round < 1:
            raise ValueError("max_requests_per_round must be at least 1")
        if self.upload_capacity < 1:
            raise ValueError("upload_capacity must be at least 1")
        if self.supplier_choice not in ("availability", "least-loaded", "cheapest"):
            raise ValueError(
                "supplier_choice must be 'availability', 'least-loaded' or 'cheapest'"
            )
        if self.seed_fanout < 1:
            raise ValueError("seed_fanout must be at least 1")
        if self.playback_window < 1:
            raise ValueError("playback_window must be at least 1")
        if self.startup_chunks < 0:
            raise ValueError("startup_chunks must be non-negative")
        if self.transfer_latency < 0:
            raise ValueError("transfer_latency must be non-negative")
        if self.topology_mean_degree >= self.num_peers:
            raise ValueError("topology_mean_degree must be smaller than num_peers")
