"""Transaction-level credit-market simulator.

The simulator advances the credit circulation of a P2P market one round at
a time: within a round of length ``step`` seconds every peer spends a
Poisson number of credits (rate = its effective spending rate, capped by
its balance) and each spent credit is routed to one of its neighbours with
the routing probabilities derived from the overlay and the pricing scheme.
This is a direct simulation of the closed (or, with churn, open) Jackson
network of Table I — one job = one credit — with the practical extensions
the paper studies on top: taxation of income (Sec. VI-C), dynamic
wealth-dependent spending rates (Sec. VI-D) and peer churn (Sec. VI-E).

The simulator is deliberately array-based (peer state lives in numpy
arrays indexed by slot) so that populations of several hundred peers over
tens of thousands of simulated seconds run in seconds of wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs import get_emitter
from repro.overlay.generators import scale_free_topology
from repro.overlay.membership import MembershipTracker
from repro.overlay.topology import OverlayTopology
from repro.p2psim.config import MarketSimConfig, UtilizationMode
from repro.p2psim.recorder import WealthRecorder
from repro.p2psim.slots import apply_income_taxation, apply_round_churn
from repro.queueing.routing import RoutingMatrix
from repro.queueing.traffic import solve_traffic_equations
from repro.utils.rng import make_rng

__all__ = ["MarketSimResult", "CreditMarketSimulator"]


@dataclass
class _RoutingPack:
    """Alive peers' routing rows in CSR (segmented) layout — no padding.

    Row ``r`` describes the peer in slot ``alive_slots[r]``: its routing
    edges occupy positions ``row_start[r]:row_start[r+1]`` of the flat
    edge arrays.  ``edge_dst`` holds neighbour slot indices and ``flat``
    the segmented cumulative routing probabilities offset by ``3.0 * r``
    (each row's CDF is normalised so its last entry is exactly 1.0, so row
    ``r`` occupies values in ``(3r, 3r + 1]``).  The concatenation is
    therefore one globally sorted vector, and a credit of spender row
    ``r`` with uniform ``u`` routes to edge ``searchsorted(flat, u + 3r,
    "right")`` — one batched binary search routes every credit of a round
    against exactly the degree mass of the overlay, instead of the padded
    ``N × max_degree`` matrices earlier revisions materialised (which made
    a single scale-free hub cost its degree on *every* peer and capped the
    population near 10^3).  Both kernels compare against the same ``flat``
    values, so their routing decisions are bit-identical.

    The pack is a pure cache derived from ``_neighbors``/``_cdfs``; any
    membership or routing change drops it and the next round rebuilds it.
    """

    alive_slots: np.ndarray
    degrees: np.ndarray
    row_start: np.ndarray
    edge_dst: np.ndarray
    flat: np.ndarray


@dataclass
class MarketSimResult:
    """Output of one :class:`CreditMarketSimulator` run.

    Attributes
    ----------
    config:
        The configuration that produced the run.
    recorder:
        Time series of Gini index, bankruptcy fraction, mean wealth and
        population, plus any requested snapshots.
    final_wealths:
        Wealth of every peer alive at the end of the run.
    spending_rates:
        Measured credit spending rate (credits per second over the whole
        run) of every peer alive at the end.
    earning_rates:
        Measured credit earning rate of every peer alive at the end.
    total_transfers:
        Total number of credit transfers simulated.
    joins, leaves:
        Churn event counts (zero for static overlays).
    """

    config: MarketSimConfig
    recorder: WealthRecorder
    final_wealths: np.ndarray
    spending_rates: np.ndarray
    earning_rates: np.ndarray
    total_transfers: int
    joins: int = 0
    leaves: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def final_gini(self) -> float:
        """Gini index at the end of the run."""
        return self.recorder.final_gini()

    @property
    def stabilized_gini(self) -> float:
        """Mean Gini over the last quarter of samples."""
        return self.recorder.stabilized_gini()


class CreditMarketSimulator:
    """Round-based simulator of credit circulation on a P2P overlay.

    Parameters
    ----------
    config:
        Simulation parameters (see :class:`~repro.p2psim.config.MarketSimConfig`).
    topology:
        Optional pre-built overlay; a scale-free overlay with the configured
        shape/mean degree is generated when omitted.
    snapshot_times:
        Simulation times at which sorted wealth snapshots are kept.
    """

    def __init__(
        self,
        config: MarketSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> None:
        self.config = config
        self._rng = make_rng(config.seed, "market-sim")
        self.topology = (
            topology
            if topology is not None
            else scale_free_topology(
                config.num_peers,
                shape=config.topology_shape,
                mean_degree=config.topology_mean_degree,
                seed=config.seed,
            )
        )
        if self.topology.num_peers < 2:
            raise ValueError("the overlay must contain at least 2 peers")
        self.recorder = WealthRecorder(snapshot_times=snapshot_times)
        self._tracker = MembershipTracker(
            self.topology,
            target_degree=int(round(config.topology_mean_degree)),
            seed=config.seed + 1,
        )

        # --- slot-based peer state -------------------------------------------------
        capacity = max(16, 2 * self.topology.num_peers)
        self._capacity = capacity
        self._alive = np.zeros(capacity, dtype=bool)
        self._balance = np.zeros(capacity)
        self._base_mu = np.zeros(capacity)
        self._spent = np.zeros(capacity)
        self._earned = np.zeros(capacity)
        self._slot_of: Dict[int, int] = {}
        self._peer_of: Dict[int, int] = {}
        self._free_slots: List[int] = list(range(capacity - 1, -1, -1))
        self._neighbors: Dict[int, np.ndarray] = {}
        self._cdfs: Dict[int, np.ndarray] = {}
        self._pack: Optional[_RoutingPack] = None
        # Per-round scratch buffers: `_income` accumulates the loop kernel's
        # transfers, `_zero_income` is the (never written) empty-round view —
        # both preallocated so the hot loop allocates nothing on quiet rounds.
        self._income = np.zeros(capacity)
        self._zero_income = np.zeros(capacity)

        self._tax_pool = 0.0
        self.total_transfers = 0
        self.joins = 0
        self.leaves = 0
        self._time = 0.0
        self._next_sample = 0.0

        initial_peers = self.topology.peers()
        mu_by_peer = self._configure_spending_rates(initial_peers)
        # Bulk admission: `_admit` never derives routing rows, so create
        # every peer's state first, then derive each row exactly once.  A
        # row only depends on which of its own neighbours are admitted, so
        # deferring the derivation changes no row; churn rounds defer it
        # the same way (see `apply_round_churn`).
        for peer in initial_peers:
            self._admit(peer, mu_by_peer[peer])
        for peer in initial_peers:
            self._refresh_routing_row(peer)
        # Build the routing pack eagerly: it is part of construction, not of
        # the first advanced round (benchmarks time rounds, not set-up).
        self._routing_pack()

    # ------------------------------------------------------------------ setup helpers

    def _configure_spending_rates(self, peers: Sequence[int]) -> Dict[int, float]:
        """Assign base spending rates according to the utilization mode.

        Asymmetric mode gives every peer the same maximum spending rate, so
        utilizations inherit the (heterogeneous) earning rates implied by
        the topology and pricing.  Symmetric mode solves the traffic
        equations and sets ``μ_i ∝ λ_i`` so every utilization is equal,
        then rescales so the mean spending rate equals the configured base
        rate (keeping overall credit velocity comparable across modes).
        """
        base = self.config.base_spending_rate
        if self.config.utilization is UtilizationMode.ASYMMETRIC:
            rates = {peer: base for peer in peers}
        else:
            routing = RoutingMatrix.weighted_over_neighbors(
                self.topology,
                weights=self._seller_weights(peers),
                order=peers,
            )
            solution = solve_traffic_equations(routing)
            lam = solution.arrival_rates
            lam = lam / lam.mean() * base
            rates = {peer: float(rate) for peer, rate in zip(peers, lam)}
        noise = self.config.spending_rate_noise
        if noise > 0:
            sigma = float(np.sqrt(np.log(1.0 + noise**2)))
            for peer in rates:
                rates[peer] *= float(self._rng.lognormal(-sigma**2 / 2.0, sigma))
        return rates

    def _seller_weights(self, peers: Sequence[int]) -> Dict[int, float]:
        """Attractiveness of each peer as a seller (its posted chunk price)."""
        return {
            peer: float(self.config.pricing.price(peer, chunk_index=0)) for peer in peers
        }

    def _default_spending_rate(self) -> float:
        """Spending rate for peers that join after start-up."""
        if self.config.utilization is UtilizationMode.ASYMMETRIC:
            return self.config.base_spending_rate
        alive_rates = self._base_mu[self._alive]
        if alive_rates.size == 0:
            return self.config.base_spending_rate
        return float(alive_rates.mean())

    # ------------------------------------------------------------------ peer lifecycle

    def _grow_capacity(self) -> None:
        new_capacity = self._capacity * 2
        pad = new_capacity - self._capacity

        def extend(array: np.ndarray) -> np.ndarray:
            return np.concatenate([array, np.zeros(pad, dtype=array.dtype)])

        self._alive = extend(self._alive)
        self._balance = extend(self._balance)
        self._base_mu = extend(self._base_mu)
        self._spent = extend(self._spent)
        self._earned = extend(self._earned)
        self._income = np.zeros(new_capacity)
        self._zero_income = np.zeros(new_capacity)
        self._free_slots = list(range(new_capacity - 1, self._capacity - 1, -1)) + self._free_slots
        self._capacity = new_capacity

    def _admit(self, peer_id: int, spending_rate: float) -> int:
        """Create simulator state for ``peer_id`` (already present in the topology).

        No routing row is derived here: the caller refreshes the rows of
        the new peer and of its neighbours once it has admitted everyone —
        ``__init__`` once per initial peer, :func:`apply_round_churn` once
        per touched peer per round.
        """
        if not self._free_slots:
            self._grow_capacity()
        slot = self._free_slots.pop()
        self._alive[slot] = True
        self._balance[slot] = self.config.initial_credits
        self._base_mu[slot] = spending_rate
        self._spent[slot] = 0.0
        self._earned[slot] = 0.0
        self._slot_of[peer_id] = slot
        self._peer_of[slot] = peer_id
        self._pack = None
        return slot

    def _admit_joiner(self, peer_id: int) -> int:
        """Admit a peer arriving through churn.

        Memoised pricing schemes draw a seller's price the first time a
        routing row quotes it.  Rows are refreshed only at the end of a
        churn round, so the joiner is quoted here, on arrival: its draw
        then keeps its place in the pricing stream whatever order the rows
        are refreshed in.  Peers already in the overlay were quoted when
        their neighbours' rows were built; an initial peer without
        neighbours is the one exception.
        """
        self.config.pricing.price(peer_id, chunk_index=0)
        return self._admit(peer_id, self._default_spending_rate())

    def _evict(self, peer_id: int) -> None:
        """Remove ``peer_id``'s simulator state (topology surgery happens separately)."""
        slot = self._slot_of.pop(peer_id)
        self._peer_of.pop(slot)
        self._alive[slot] = False
        self._balance[slot] = 0.0
        self._neighbors.pop(slot, None)
        self._cdfs.pop(slot, None)
        self._free_slots.append(slot)
        self._pack = None

    def _refresh_routing_row(self, peer_id: int) -> None:
        """Recompute the neighbour list and routing CDF of one peer.

        The cumulative distribution is derived here rather than at
        pack-build time: per-row ``cumsum`` keeps the exact historical float
        sequence — a segmented cumsum over the concatenated edge array
        would accumulate across rows and round differently — and moves the
        O(degree) Python work out of the (benchmarked) round loop.
        """
        slot = self._slot_of.get(peer_id)
        if slot is None:
            return
        self._pack = None
        neighbor_ids = [
            neighbor
            for neighbor in self.topology.neighbors(peer_id)
            if neighbor in self._slot_of
        ]
        if not neighbor_ids:
            self._neighbors[slot] = np.empty(0, dtype=np.int64)
            self._cdfs[slot] = np.empty(0)
            return
        weights = np.asarray(
            self.config.pricing.price_array(neighbor_ids, 0), dtype=float
        )
        weights = np.clip(weights, 1e-12, None)
        self._neighbors[slot] = np.array(
            [self._slot_of[neighbor] for neighbor in neighbor_ids],
            dtype=np.int64,
        )
        probs = weights / weights.sum()
        row_cdf = np.cumsum(probs)
        # The last entry must be exactly 1.0 so every uniform draw in
        # [0, 1) lands on a real neighbour despite cumsum rounding;
        # dividing by the total guarantees it.
        row_cdf /= row_cdf[-1]
        self._cdfs[slot] = row_cdf

    # ------------------------------------------------------------------ churn

    def _apply_churn(self, dt: float) -> None:
        apply_round_churn(
            self,
            dt,
            admit=self._admit_joiner,
            refresh_neighbor=self._refresh_routing_row,
        )

    # ------------------------------------------------------------------ taxation

    def _apply_taxation(self, income: np.ndarray) -> None:
        apply_income_taxation(self, income, self._time)

    # ------------------------------------------------------------------ main loop

    def _routing_pack(self) -> _RoutingPack:
        """Return the CSR routing arrays of the alive population.

        Rebuilt lazily after any membership/routing change; on static
        overlays the pack is built once and reused for the whole run.
        Memory and build time scale with the edge count, never with
        ``N × max_degree``.
        """
        if self._pack is None:
            alive_slots = np.flatnonzero(self._alive)
            count = alive_slots.size
            empty_nbr = np.empty(0, dtype=np.int64)
            rows = [self._neighbors.get(int(slot), empty_nbr) for slot in alive_slots]
            degrees = np.fromiter(
                (row.size for row in rows), dtype=np.int64, count=count
            )
            row_start = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(degrees, out=row_start[1:])
            if count:
                edge_dst = np.concatenate(rows)
                edge_cdf = np.concatenate(
                    [self._cdfs.get(int(slot), empty_nbr) for slot in alive_slots]
                )
            else:
                edge_dst = empty_nbr
                edge_cdf = np.empty(0)
            flat = edge_cdf + 3.0 * np.repeat(
                np.arange(count, dtype=np.float64), degrees
            )
            self._pack = _RoutingPack(alive_slots, degrees, row_start, edge_dst, flat)
        return self._pack

    def _route_credits_vectorized(
        self, pack: _RoutingPack, spendable: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Route every credit of the round with one batched binary search.

        The segmented CDF array is globally sorted (row ``r`` occupies
        ``(3r, 3r + 1]``), so one ``searchsorted`` against the whole edge
        array resolves every credit; entries of earlier rows are at most
        ``3r - 2`` and can never capture row ``r``'s draws.
        """
        rows = np.repeat(np.arange(pack.alive_slots.size), spendable)
        hits = np.searchsorted(pack.flat, draws + 3.0 * rows, side="right")
        # `u + 3r` can round up to exactly the row's final cdf value (e.g.
        # u = 1 - 2**-53 at row 1 rounds to 4.0), which would index one past
        # the row's last edge; clamp those ~ulp-probability draws onto it.
        hits = np.minimum(hits, pack.row_start[rows + 1] - 1)
        destinations = pack.edge_dst[hits]
        return np.bincount(destinations, minlength=self._capacity).astype(float)

    def _route_credits_loop(
        self, pack: _RoutingPack, spendable: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Per-spender routing loop (the benchmark baseline).

        Consumes the draws exactly like the vectorized kernel — the same
        inverse-CDF search against the same edge-segment values — so both
        kernels produce bit-identical income vectors.
        """
        income = self._income
        income.fill(0.0)
        offset = 0
        for row in range(pack.alive_slots.size):
            to_spend = int(spendable[row])
            if to_spend == 0:
                continue
            uniforms = draws[offset : offset + to_spend]
            offset += to_spend
            start = pack.row_start[row]
            end = pack.row_start[row + 1]
            segment = pack.flat[start:end]
            hits = np.searchsorted(segment, uniforms + 3.0 * row, side="right")
            hits = np.minimum(hits, pack.degrees[row] - 1)
            np.add.at(income, pack.edge_dst[start:end][hits], 1.0)
        return income

    def _spending_round(self, dt: float) -> None:
        rng = self._rng
        pack = self._routing_pack()
        alive_slots = pack.alive_slots
        if alive_slots.size == 0:
            return
        balances = self._balance[alive_slots]
        rates = self.config.spending_policy.effective_rate_vector(
            self._base_mu[alive_slots], balances
        )
        intended = rng.poisson(rates * dt)
        spendable = np.minimum(intended, np.floor(balances).astype(np.int64))
        spendable = np.where(pack.degrees > 0, spendable, 0)
        total = int(spendable.sum())
        if total == 0:
            # Nobody spent: skip the transfer machinery entirely, but still
            # show the (all-zero) income to the tax policy — rebate rounds
            # may fire on a quiet round once the pool is full.
            self._apply_taxation(self._zero_income)
            return
        draws = rng.random(total)
        # The kernel runs tens of thousands of times per second, so its
        # timing is a pre-measured `timing()` event rather than a `span()`
        # context manager — roughly half the per-round instrumentation
        # cost, which the telemetry-overhead CI gate holds under 5%.
        options = self.config.options
        emitter = get_emitter()
        observing = emitter.enabled
        kernel_started = time.perf_counter() if observing else 0.0
        if options.kernel == "loop":
            income = self._route_credits_loop(pack, spendable, draws)
        else:
            income = self._route_credits_vectorized(pack, spendable, draws)
        if observing:
            emitter.timing(
                "market.kernel." + options.kernel,
                time.perf_counter() - kernel_started,
            )
        spent = spendable.astype(float)
        self._balance[alive_slots] -= spent
        self._spent[alive_slots] += spent
        self.total_transfers += total
        received = np.flatnonzero(income > 0)
        self._balance[received] += income[received]
        self._earned[received] += income[received]
        self._apply_taxation(income)

    def total_rounds(self) -> int:
        """Number of simulation rounds the configured horizon spans."""
        return int(np.ceil(self.config.horizon / self.config.step))

    def advance_rounds(self, rounds: int) -> None:
        """Advance the simulation by ``rounds`` rounds (without finalising).

        ``run()`` is ``advance_rounds(total_rounds())`` + ``finalize()``;
        intra-run partitioning (:mod:`repro.runner.partition`) advances the
        same rounds in checkpointed blocks, which yields an identical state
        because each round's draws depend only on the state before it.
        """
        dt = self.config.step
        observing = get_emitter().enabled
        started = time.perf_counter() if observing else 0.0
        for _ in range(rounds):
            if self._time + 1e-9 >= self._next_sample:
                self._record_sample()
                self._next_sample += self.config.sample_interval
            self._apply_churn(dt)
            self._spending_round(dt)
            self._time += dt
        if observing and rounds:
            elapsed = max(time.perf_counter() - started, 1e-9)
            get_emitter().gauge("market.steps_per_second", rounds / elapsed)

    def finalize(self) -> MarketSimResult:
        """Record the final sample and assemble the run's result."""
        self._record_sample()
        return self._build_result()

    def run(self) -> MarketSimResult:
        """Run the simulation for the configured horizon and return the result."""
        self.advance_rounds(self.total_rounds())
        return self.finalize()

    def _record_sample(self) -> None:
        alive_slots = np.flatnonzero(self._alive)
        emitter = get_emitter()
        observing = emitter.enabled
        before = len(self.recorder.gini_series.x) if observing else 0
        self.recorder.record(self._time, self._balance[alive_slots])
        # Stream the freshly recorded sample (the recorder drops empty
        # populations, so only emit when it actually appended one).
        if observing and len(self.recorder.gini_series.x) > before:
            emitter.point("market.gini", self._time, self.recorder.gini_series.y[-1])
            emitter.point(
                "market.bankrupt_fraction", self._time, self.recorder.bankrupt_series.y[-1]
            )
            emitter.point(
                "market.mean_wealth", self._time, self.recorder.mean_wealth_series.y[-1]
            )
            emitter.point("market.population", self._time, float(alive_slots.size))

    def _build_result(self) -> MarketSimResult:
        alive_slots = np.flatnonzero(self._alive)
        elapsed = max(self._time, 1e-9)
        return MarketSimResult(
            config=self.config,
            recorder=self.recorder,
            final_wealths=self._balance[alive_slots].copy(),
            spending_rates=self._spent[alive_slots] / elapsed,
            earning_rates=self._earned[alive_slots] / elapsed,
            total_transfers=self.total_transfers,
            joins=self.joins,
            leaves=self.leaves,
            extras={
                "tax_pool": self._tax_pool,
                "final_population": int(alive_slots.size),
            },
        )

    # ------------------------------------------------------------------ conveniences

    @classmethod
    def run_config(
        cls,
        config: MarketSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> MarketSimResult:
        """Build a simulator for ``config`` and run it to completion.

        When an intra-run partition context is active (see
        :mod:`repro.runner.partition`), the run executes as checkpointed
        round-blocks through that context instead — producing bit-identical
        results, since block boundaries only pickle/unpickle the state the
        monolithic loop would carry anyway.
        """
        from repro.runner.partition import active_context

        context = active_context()
        if context is not None:
            return context.run_simulation(
                cls, config, topology=topology, snapshot_times=snapshot_times
            )
        return cls(config, topology=topology, snapshot_times=snapshot_times).run()
