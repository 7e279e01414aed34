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
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.obs import get_emitter
from repro.overlay.topology import OverlayTopology, component_labels, segments
from repro.p2psim.config import MarketSimConfig, UtilizationMode
from repro.p2psim.recorder import WealthRecorder
from repro.p2psim.slots import (
    SlotArray,
    SlotPack,
    SlotSimulator,
    apply_income_taxation,
    apply_round_churn,
)

__all__ = ["MarketSimResult", "CreditMarketSimulator"]

#: Rows normalised per block when routing rows are refreshed.
_ROW_BLOCK = 4096


def routing_cdfs(prices: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Routing CDFs of consecutive rows of ``prices`` (row ``i`` has ``degrees[i]``).

    Each CDF ends at exactly 1.0, so every uniform draw in [0, 1) lands on
    a real neighbour.  One stable sort by degree and one gather lay the
    rows out by degree, so each group of equal-degree rows is one
    contiguous stretch, normalised and summed as a C-contiguous ``(rows,
    degree)`` view: its sums and ``cumsum`` round exactly as each row's
    alone would, which ``np.add.reduceat`` or zero padding would not.
    """
    rows = np.flatnonzero(degrees)
    rows = rows[np.argsort(degrees[rows], kind="stable")]
    sorted_degrees = degrees[rows]
    edges = segments((np.cumsum(degrees) - degrees)[rows], sorted_degrees)
    probs = np.clip(prices[edges], 1e-12, None)
    distinct, counts = np.unique(sorted_degrees, return_counts=True)
    lo = 0
    # `np.add.reduce` and `np.add.accumulate` are what `sum` and `cumsum`
    # call, minus the Python wrappers that dominate small groups.
    for degree, count in zip(distinct.tolist(), counts.tolist()):
        block = probs[lo : lo + degree * count].reshape(count, degree)
        block /= np.add.reduce(block, axis=1, keepdims=True)
        np.add.accumulate(block, axis=1, out=block)
        lo += degree * count
    # Dividing by each row's last entry is elementwise, so it can wait
    # for the whole array.
    last = np.cumsum(sorted_degrees) - 1
    probs /= np.repeat(probs[last], sorted_degrees)
    cdf = np.empty(prices.size)
    cdf[edges] = probs
    return cdf


def _search_rows(
    cdf: np.ndarray, keys: np.ndarray, guesses: np.ndarray, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """Settle the keys whose guessed edge missed, each inside its own row.

    Key ``i`` belongs to the row of edges ``first[i]..last[i]`` and missed
    the edge ``guesses[i]``.  Returns, for each, the first edge of its row
    whose CDF exceeds the key, or ``last`` if none does: the row's
    ``searchsorted(side="right")``, clamped.  A miss tells which side of
    the guess its edge lies on.  The edge next to the guess on that side
    is probed first, since that is where nearly every miss ends, and a
    binary search bounded to the rest of the side settles the others.
    """
    right = cdf[guesses] <= keys
    lo = np.where(right, np.minimum(guesses + 1, last), first)
    hi = np.where(right, last, guesses - 1)
    # The answer lies in lo..hi; a range closes when they meet.
    pending = np.flatnonzero(lo < hi)
    probe = np.where(right, lo, hi - 1)[pending]
    while pending.size:
        above = cdf[probe] > keys[pending]
        hi[pending] = np.where(above, probe, hi[pending])
        lo[pending] = np.where(above, lo[pending], probe + 1)
        pending = pending[lo[pending] < hi[pending]]
        probe = (lo[pending] + hi[pending]) >> 1
    return lo


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
    extras:
        ``tax_pool`` (credits the tax holds at the end), the run's tax
        totals ``tax_collected`` and ``tax_rebated``, and ``final_population``.
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


class CreditMarketSimulator(SlotSimulator):
    """Round-based simulator of credit circulation on a P2P overlay.

    Peer state lives in slot-indexed arrays kept by a
    :class:`~repro.p2psim.slots.PeerSlots` store, which also holds each
    alive peer's neighbour row as one segment of its buffer.  The
    simulator adds what routing needs on top: ``_edge_cdf``, aligned with
    that buffer, holds each row's routing CDF over its neighbours'
    posted prices (the per-slot ``_price``) in the row's own segment, and
    each credit is routed on its spender's CDF alone (see
    :meth:`_route_credits`).

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

    _rng_label = "market-sim"
    _base_mu = SlotArray()
    _spent = SlotArray()
    _earned = SlotArray()
    _edge_cdf = SlotArray(edges=True)

    def __init__(
        self,
        config: MarketSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(config, topology, snapshot_times)
        # --- slot-based peer state -------------------------------------------------
        capacity = self._slots.capacity
        self._base_mu = np.zeros(capacity)
        self._spent = np.zeros(capacity)
        self._earned = np.zeros(capacity)
        # The routing CDF of every row entry of the store's buffer.
        self._edge_cdf = np.empty(0)

        self.total_transfers = 0
        self._time = 0.0
        self._next_sample = 0.0

        initial_peers = self.topology.peer_degrees()[0]
        # Admit everyone first, then derive every row in one batch.
        slots = self._admit(initial_peers, 0.0)
        self._refresh_routing_rows(initial_peers)
        symmetric = self.config.utilization is UtilizationMode.SYMMETRIC
        self._base_mu[slots] = self._configure_spending_rates(symmetric)
        # Asymmetric rates without noise are the base rate for every peer,
        # joiners too: one scalar draws the Poisson stream its array draws,
        # without numpy's per-array checks.
        shared = not symmetric and self.config.spending_rate_noise == 0
        self._shared_rate = float(self.config.base_spending_rate) if shared else None

    # ------------------------------------------------------------------ setup helpers

    def _configure_spending_rates(self, symmetric: bool) -> np.ndarray:
        """Base spending rates of the initial population, in slot order.

        Asymmetric mode gives every peer the same maximum spending rate, so
        utilizations inherit the (heterogeneous) earning rates implied by
        the topology and pricing.  Symmetric mode sets ``μ_i ∝ λ_i``, the
        solution of the traffic equations ``λP = λ``, so every utilization
        is equal, then rescales so the mean spending rate equals the
        configured base rate (keeping overall credit velocity comparable
        across modes).

        Routing ``P_ij = w_j / W_i`` over the overlay — ``w`` the sellers'
        clipped posted prices (the weights :func:`routing_cdfs` routes
        with), ``W_i`` the sum of ``w`` over ``i``'s neighbours — is
        a reversible random walk, so ``λ_i = w_i W_i`` satisfies detailed
        balance and solves the equations exactly (Kelly, *Reversibility and
        Stochastic Networks*, 1979).  ``W`` is summed over each pack row, in
        ascending neighbour order.  Each connected component is normalised
        to its size, and an isolated peer gets ``λ = 1``, as the power
        method from a uniform start would give.  The optional lognormal
        noise is one draw per peer, in slot order.
        """
        pack = self._slots.pack()
        base = self.config.base_spending_rate
        if not symmetric:
            rates = np.full(pack.alive_slots.size, base)
        else:
            w = np.clip(self._price[pack.alive_slots], 1e-12, None)
            rows = np.repeat(np.arange(pack.alive_slots.size), pack.degrees)
            lam = w * np.bincount(rows, weights=w[pack.edge_dst], minlength=w.size)
            lam[pack.degrees == 0] = 1.0
            label = component_labels(pack.degrees, pack.edge_dst)
            lam *= np.bincount(label)[label] / np.bincount(label, weights=lam)[label]
            rates = lam / lam.mean() * base
        noise = self.config.spending_rate_noise
        if noise > 0:
            sigma = float(np.sqrt(np.log(1.0 + noise**2)))
            rates *= self._rng.lognormal(-sigma**2 / 2.0, sigma, size=rates.size)
        return rates

    # ------------------------------------------------------------------ peer lifecycle

    def _admit(self, peer_ids: np.ndarray, spending_rate: float) -> np.ndarray:
        """Create simulator state for ``peer_ids`` (already in the topology).

        No routing row is derived here: the caller refreshes the rows of
        the new peers and of their neighbours in one batch once it has
        admitted everyone — ``__init__`` for the initial population,
        :func:`apply_round_churn` at the end of each round.
        """
        slots = self._admit_peers(peer_ids)
        self._base_mu[slots] = spending_rate
        self._spent[slots] = 0.0
        self._earned[slots] = 0.0
        return slots

    def _admit_joiners(self, peer_ids: np.ndarray) -> np.ndarray:
        """Admit a round's churn arrivals, in join order.

        In symmetric mode every joiner gets the mean rate of the peers
        alive before the round's admissions; in asymmetric mode, the base
        rate.
        """
        rate = self.config.base_spending_rate
        if self.config.utilization is UtilizationMode.SYMMETRIC and self._alive.any():
            rate = float(self._base_mu[self._alive].mean())
        return self._admit(peer_ids, rate)

    def _evict(self, peer_ids: np.ndarray) -> None:
        """Remove the simulator state of ``peer_ids`` (topology surgery happens separately)."""
        self._balance[self._slots.evict(peer_ids)] = 0.0

    def _refresh_routing_rows(self, peer_ids: Sequence[int]) -> None:
        """Re-derive the neighbour rows and routing CDFs of ``peer_ids``.

        The store writes the slot-sorted rows to their segments, and
        :func:`routing_cdfs` fills their segments of ``_edge_cdf`` from
        their neighbours' posted prices.
        """
        store = self._slots
        slots, positions = store.refresh_rows(peer_ids)
        degree = store.arrays["degree"][slots]
        ends = np.cumsum(degree)
        # Blocks of rows bound the transient arrays of a start-up batch.
        for lo in range(0, slots.size, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, slots.size)
            first, last = ends[lo] - degree[lo], ends[hi - 1]
            edges: Union[slice, np.ndarray] = (
                slice(first, last) if positions is None else positions[first:last]
            )
            prices = self._price[store.edges[edges]]
            self._edge_cdf[edges] = routing_cdfs(prices, degree[lo:hi])

    # ------------------------------------------------------------------ churn

    def _apply_churn(self, dt: float) -> None:
        apply_round_churn(
            self,
            dt,
            admit=self._admit_joiners,
            refresh_rows=self._refresh_routing_rows,
        )

    # ------------------------------------------------------------------ main loop

    def _route_credits(
        self, rows: SlotPack, spendable: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Route every credit of the round on its spender's own CDF.

        Returns each slot's credits as int64 counts.  A credit with
        uniform ``u`` from a row of degree ``d`` whose CDF ``c`` starts at
        buffer entry ``s`` routes to edge ``s + j``, ``j =
        searchsorted(c, u, "right")`` clamped to ``d - 1``.  ``c`` is near
        ``(j + 1) / d`` when prices are near equal, so the kernel guesses
        ``j = floor(u·d)`` and accepts it when ``(j == 0 or c[j - 1] <= u)
        and u < c[j]``: since ``c`` is sorted, that is exactly the
        search's answer.  Under round-to-nearest ``fl(u·d) < d`` for every
        ``u < 1``, so a guess never leaves its row.  Only the misses are
        searched, each inside its row (:func:`_search_rows`).
        """
        cdf = self._edge_cdf
        first = rows.row_start.repeat(spendable)
        degrees = rows.degrees.repeat(spendable)
        guesses = (draws * degrees).astype(np.int64)
        hits = first + guesses
        misses = (((cdf[hits - 1] > draws) & (guesses > 0)) | (draws >= cdf[hits])).nonzero()[0]
        if misses.size:
            first, last = first[misses], first[misses] + degrees[misses] - 1
            hits[misses] = _search_rows(cdf, draws[misses], hits[misses], first, last)
        return np.bincount(rows.edge_dst[hits], minlength=self._slots.capacity)

    def _spending_round(self, dt: float) -> None:
        """Spend, route and tax one round on the alive rows' arrays.

        Balances are gathered and scattered once.  A zero income leaves a
        balance as it was: spending and tax end at +0.0, never at -0.0.
        """
        rng = self._rng
        rows = self._slots.rows()
        alive_slots = rows.alive_slots
        balances = self._balance[alive_slots]
        base_rates = self._base_mu[alive_slots] if self._shared_rate is None else self._shared_rate
        rates = self.config.spending_policy.effective_rate_vector(base_rates, balances)
        intended = rng.poisson(rates * dt, size=alive_slots.size)
        spendable = np.minimum(intended, np.floor(balances).astype(np.int64))
        spendable *= rows.has_row
        total = int(spendable.sum())
        if total:
            draws = rng.random(total)
            # The kernel runs tens of thousands of times per second, so its
            # timing is a pre-measured `timing()` event rather than a `span()`
            # context manager — roughly half the per-round instrumentation
            # cost, which the telemetry-overhead CI gate holds under 5%.
            emitter = get_emitter()
            observing = emitter.enabled
            kernel_started = time.perf_counter() if observing else 0.0
            income = self._route_credits(rows, spendable, draws)[alive_slots]
            if observing:
                emitter.timing("market.kernel.vectorized", time.perf_counter() - kernel_started)
            balances -= spendable
            balances += income
            self._spent[alive_slots] += spendable
            self._earned[alive_slots] += income
            self.total_transfers += total
        else:
            # Nobody spent: skip the transfer machinery entirely, but still
            # show the (all-zero) income to the tax policy — rebate rounds
            # may fire on a quiet round once the pool is full.
            income = np.zeros(alive_slots.size, dtype=np.int64)
        apply_income_taxation(self, balances, income)
        self._balance[alive_slots] = balances

    def total_rounds(self) -> int:
        """Number of simulation rounds the configured horizon spans."""
        return int(np.ceil(self.config.horizon / self.config.step))

    def advance_rounds(self, rounds: int) -> None:
        """Advance the simulation by ``rounds`` rounds (without finalising).

        ``run()`` is ``advance_rounds(total_rounds())`` + ``finalize()``;
        advancing the same rounds in several calls yields an identical
        state because each round's draws depend only on the state before it.
        """
        dt = self.config.step
        churned = self.config.churn is not None
        observing = get_emitter().enabled
        started = time.perf_counter() if observing else 0.0
        for _ in range(rounds):
            if self._time + 1e-9 >= self._next_sample:
                self._record_sample()
                self._next_sample += self.config.sample_interval
            if churned:
                self._apply_churn(dt)
            self._spending_round(dt)
            self._time += dt
        if observing and rounds:
            elapsed = max(time.perf_counter() - started, 1e-9)
            get_emitter().gauge("market.steps_per_second", rounds / elapsed)

    def _record_sample(self) -> None:
        self._record_wealth("market", self._time, self._slots.rows().alive_slots)

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
                "tax_collected": self._tax_collected,
                "tax_rebated": self._tax_rebated,
                "final_population": int(alive_slots.size),
            },
        )
