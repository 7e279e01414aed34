"""The credit market model and its mapping onto a queueing network (Table I).

:class:`CreditMarket` is the paper's central abstraction: a population of
peers on an overlay, each with an earning rate ``λ_i``, a maximum spending
rate ``μ_i``, an initial credit balance, a pricing scheme and trading
preferences encoded in the routing matrix ``P``.  The class

* derives ``μ_i`` and ``P`` from chunk transfer rates and prices using the
  relations of Sec. V-C (``μ_i p_ij = r_ji s_j`` hence
  ``μ_i = Σ_j r_ji s_j``);
* solves the traffic equations for the equilibrium ``λ`` (Lemma 1);
* exposes the normalized utilizations of Eq. (2) and the condensation
  diagnosis of Theorems 2–3;
* converts itself into a :class:`~repro.queueing.closed.ClosedJacksonNetwork`
  (the Table I mapping) for exact finite-network statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.condensation import CondensationReport, diagnose_condensation
from repro.core.pricing import PricingScheme, UniformPricing
from repro.overlay.topology import OverlayTopology
from repro.queueing.closed import ClosedJacksonNetwork
from repro.queueing.routing import RoutingMatrix
from repro.queueing.traffic import (
    TrafficSolution,
    normalized_utilizations,
    solve_traffic_equations,
)
from repro.utils.validation import check_fraction, check_positive

__all__ = ["MarketEquilibrium", "CreditMarket"]


@dataclass(frozen=True)
class MarketEquilibrium:
    """Equilibrium summary of a credit market.

    Attributes
    ----------
    arrival_rates:
        The equilibrium earning-rate vector ``λ`` (scaled so no entry
        exceeds the corresponding spending rate, honouring ``λ_i ≤ μ_i``).
    service_rates:
        The maximum spending rates ``μ``.
    utilizations:
        Normalized utilizations ``u`` of Eq. (2).
    traffic_residual:
        ``max |λP − λ|`` of the reported solution.
    condensation:
        The condensation diagnosis at the market's average wealth.
    """

    arrival_rates: np.ndarray
    service_rates: np.ndarray
    utilizations: np.ndarray
    traffic_residual: float
    condensation: CondensationReport


class CreditMarket:
    """A credit-incentivized P2P content market.

    Every peer holds its ``initial_credits`` endowment.  The class analyses
    the market at equilibrium and never moves a credit, so the balances
    stay constant; the simulators of :mod:`repro.p2psim` move them.

    Parameters
    ----------
    topology:
        The P2P overlay; trading happens only between neighbours.
    initial_credits:
        Initial wealth ``c`` endowed to every peer (the paper's per-peer
        initial credit amount).
    pricing:
        Chunk pricing scheme; defaults to uniform pricing at 1 credit.
    spending_rates:
        Optional per-peer maximum spending rates ``μ_i``.  When omitted they
        are derived from ``chunk_rates`` and the pricing scheme via
        ``μ_i = Σ_j r_ji s_j`` (Sec. V-C); when ``chunk_rates`` is also
        omitted a uniform streaming rate of 1 chunk/s is assumed.
    chunk_rates:
        Optional mapping ``{buyer: {seller: chunks per second}}`` giving the
        long-run chunk transfer rates ``r_ji`` used to derive ``μ`` and ``P``.
    reserve_fraction:
        Fraction of credits each peer withholds from trading (``p_ii``).
    """

    def __init__(
        self,
        topology: OverlayTopology,
        initial_credits: float = 100.0,
        pricing: Optional[PricingScheme] = None,
        spending_rates: Optional[Mapping[int, float]] = None,
        chunk_rates: Optional[Mapping[int, Mapping[int, float]]] = None,
        reserve_fraction: float = 0.0,
    ) -> None:
        if topology.num_peers < 2:
            raise ValueError("a credit market needs at least 2 peers")
        self.topology = topology
        self.initial_credits = check_positive(initial_credits, "initial_credits")
        self.pricing = pricing if pricing is not None else UniformPricing(1.0)
        self.reserve_fraction = check_fraction(reserve_fraction, "reserve_fraction")
        self._order = topology.peers()
        self._index = {peer: i for i, peer in enumerate(self._order)}

        self._balances = np.full(len(self._order), float(initial_credits))

        self._chunk_rates = self._normalize_chunk_rates(chunk_rates)
        self._mu = self._derive_spending_rates(spending_rates)
        self._routing = self._derive_routing_matrix()
        self._equilibrium: Optional[MarketEquilibrium] = None

    # ------------------------------------------------------------------ construction helpers

    def _normalize_chunk_rates(
        self, chunk_rates: Optional[Mapping[int, Mapping[int, float]]]
    ) -> Dict[int, Dict[int, float]]:
        """Fill in default chunk transfer rates (uniform streaming) when not provided.

        The default models the streaming case of Sec. V-C: every peer
        downloads at an aggregate rate of 1 chunk/s, split evenly over its
        neighbours.
        """
        rates: Dict[int, Dict[int, float]] = {}
        if chunk_rates is None:
            for buyer in self._order:
                neighbors = [p for p in self.topology.neighbors(buyer) if p in self._index]
                if not neighbors:
                    rates[buyer] = {}
                    continue
                share = 1.0 / len(neighbors)
                rates[buyer] = {seller: share for seller in neighbors}
            return rates
        for buyer, sellers in chunk_rates.items():
            buyer = int(buyer)
            if buyer not in self._index:
                raise KeyError(f"chunk_rates references unknown peer {buyer}")
            rates[buyer] = {}
            for seller, rate in sellers.items():
                seller = int(seller)
                if seller not in self._index:
                    raise KeyError(f"chunk_rates references unknown peer {seller}")
                if not self.topology.has_edge(buyer, seller):
                    raise ValueError(
                        f"chunk_rates includes non-neighbour pair ({buyer}, {seller})"
                    )
                if rate < 0:
                    raise ValueError("chunk rates must be non-negative")
                rates[buyer][seller] = float(rate)
        for buyer in self._order:
            rates.setdefault(buyer, {})
        return rates

    def _derive_spending_rates(
        self, spending_rates: Optional[Mapping[int, float]]
    ) -> np.ndarray:
        """``μ_i = Σ_j r_ji s_j`` (Sec. V-C) unless explicit rates are given."""
        mu = np.zeros(len(self._order))
        if spending_rates is not None:
            for peer, rate in spending_rates.items():
                peer = int(peer)
                if peer not in self._index:
                    raise KeyError(f"spending_rates references unknown peer {peer}")
                mu[self._index[peer]] = check_positive(rate, f"spending rate of peer {peer}")
            if np.any(mu <= 0):
                missing = [self._order[i] for i in np.flatnonzero(mu <= 0)]
                raise ValueError(f"spending_rates missing for peers {missing}")
            return mu
        for buyer in self._order:
            sellers = list(self._chunk_rates[buyer])
            if sellers:
                # One batched quote per buyer row (μ_i = Σ_j r_ji s_j).
                rates = np.fromiter(
                    (self._chunk_rates[buyer][s] for s in sellers),
                    dtype=float,
                    count=len(sellers),
                )
                prices = self.pricing.price_array(sellers)
                total = float(rates @ prices)
            else:
                total = 0.0
            mu[self._index[buyer]] = total if total > 0 else self.pricing.mean_price()
        return mu

    def _derive_routing_matrix(self) -> RoutingMatrix:
        """``p_ij ∝ r_ji s_j`` over the buyer's neighbours (Sec. V-C)."""
        n = len(self._order)
        purchase_rates = np.zeros((n, n))
        for buyer in self._order:
            i = self._index[buyer]
            sellers = list(self._chunk_rates[buyer])
            if not sellers:
                continue
            rates = np.fromiter(
                (self._chunk_rates[buyer][s] for s in sellers),
                dtype=float,
                count=len(sellers),
            )
            prices = self.pricing.price_array(sellers)
            columns = np.fromiter(
                (self._index[s] for s in sellers), dtype=np.int64, count=len(sellers)
            )
            purchase_rates[i, columns] = rates * prices
        routing = RoutingMatrix.from_purchase_rates(purchase_rates)
        if self.reserve_fraction > 0:
            routing = routing.with_reserve_fraction(self.reserve_fraction)
        return routing

    # ------------------------------------------------------------------ accessors

    @property
    def num_peers(self) -> int:
        """Number of peers ``N``."""
        return len(self._order)

    @property
    def peer_order(self) -> Sequence[int]:
        """Peer ids in matrix/vector index order."""
        return list(self._order)

    @property
    def total_credits(self) -> float:
        """Total credits ``M`` currently in circulation."""
        # A sequential sum, not numpy's pairwise one: fig3 prints this total.
        return sum(self._balances.tolist())

    @property
    def average_wealth(self) -> float:
        """Average credits per peer ``c = M / N``."""
        return self.total_credits / self.num_peers

    @property
    def routing_matrix(self) -> RoutingMatrix:
        """The credit transfer probability matrix ``P``."""
        return self._routing

    @property
    def spending_rates(self) -> np.ndarray:
        """Maximum spending rates ``μ`` in peer order."""
        return self._mu.copy()

    def wealth_vector(self) -> np.ndarray:
        """Current credit balances in peer order."""
        return self._balances.copy()

    # ------------------------------------------------------------------ equilibrium analysis

    def equilibrium(self, recompute: bool = False) -> MarketEquilibrium:
        """Solve the traffic equations and produce the equilibrium summary.

        The raw eigenvector solution of ``λP = λ`` is scaled so that
        ``λ_i ≤ μ_i`` holds for every peer with equality for at least one
        (the paper's long-run assumption that earning cannot outpace the
        willingness to spend), which fixes the otherwise-free scale of ``λ``.
        """
        if self._equilibrium is not None and not recompute:
            return self._equilibrium
        solution: TrafficSolution = solve_traffic_equations(self._routing)
        raw = solution.arrival_rates
        ratios = raw / self._mu
        scale = 1.0 / ratios.max()
        lam = raw * scale
        utilizations = normalized_utilizations(lam, self._mu)
        condensation = diagnose_condensation(
            utilizations, self.average_wealth, num_peers=self.num_peers
        )
        self._equilibrium = MarketEquilibrium(
            arrival_rates=lam,
            service_rates=self._mu.copy(),
            utilizations=utilizations,
            traffic_residual=solution.residual,
            condensation=condensation,
        )
        return self._equilibrium

    def to_queueing_network(self, total_credits: Optional[int] = None) -> ClosedJacksonNetwork:
        """The Table I mapping: build the closed Jackson network of this market.

        Parameters
        ----------
        total_credits:
            Job population ``M``; defaults to the (rounded) credits
            currently in circulation.
        """
        equilibrium = self.equilibrium()
        jobs = int(round(self.total_credits)) if total_credits is None else int(total_credits)
        return ClosedJacksonNetwork(equilibrium.utilizations, jobs)

    def predicted_gini(self, total_credits: Optional[int] = None) -> float:
        """Gini index of the expected wealth profile of the mapped queueing network."""
        network = self.to_queueing_network(total_credits)
        return network.expected_wealth_gini()

    def predicted_bankruptcy_fraction(self, total_credits: Optional[int] = None) -> float:
        """Average bankruptcy probability ``Q{B_i = 0}`` over peers."""
        network = self.to_queueing_network(total_credits)
        return float(network.idle_probabilities().mean())

    def table_one_mapping(self) -> Dict[str, object]:
        """The explicit Table I correspondence for this market (used in docs/tests)."""
        equilibrium = self.equilibrium()
        return {
            "num_peers_N": self.num_peers,
            "num_queues_N": self.num_peers,
            "total_credits_M": self.total_credits,
            "total_jobs_M": int(round(self.total_credits)),
            "routing_probabilities_p_ij": self._routing.matrix,
            "service_rates_mu": equilibrium.service_rates,
            "arrival_rates_lambda": equilibrium.arrival_rates,
            "credit_pools_B_i": self.wealth_vector(),
        }
