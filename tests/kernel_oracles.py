"""The simulators' per-peer loop kernels, kept as bit-identity oracles.

Each simulator runs one vectorized kernel for its hot round.  The loops
here walk the same round one spender (market) or one peer and window
position (streaming) at a time, consume the same random draws and end in
byte-identical states.  :class:`LoopCreditMarketSimulator` and
:class:`LoopStreamingMarketSimulator` swap the loop in for the one kernel
method, so ``LoopCreditMarketSimulator.run_config(config)`` runs a whole
simulation on the oracle.  ``MARKET_KERNELS`` and ``STREAMING_KERNELS``
name each simulator class by its kernel, for tests parametrised over both.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.p2psim import CreditMarketSimulator, StreamingMarketSimulator
from repro.p2psim.slots import SlotPack
from repro.p2psim.streaming_sim import _EMPTY, _EPS


def route_credits_loop(
    sim: CreditMarketSimulator, rows: SlotPack, spendable: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Per-spender routing loop: the market router's oracle.

    Consumes the draws exactly like the vectorized kernel: each
    spender's credits search its own row's CDF with
    ``searchsorted(side="right")``, clamped to the last edge, so both
    kernels produce bit-identical int64 income counts.
    """
    income = np.zeros(sim._slots.capacity, dtype=np.int64)
    cdf, edges = sim._edge_cdf, rows.edge_dst
    offset = 0
    for start, degree, to_spend in zip(
        rows.row_start.tolist(), rows.degrees.tolist(), spendable.tolist()
    ):
        if to_spend == 0:
            continue
        uniforms = draws[offset : offset + to_spend]
        offset += to_spend
        end = start + degree
        hits = np.minimum(np.searchsorted(cdf[start:end], uniforms, side="right"), degree - 1)
        np.add.at(income, edges[start:end][hits], 1)
    return income


def schedule_loop(
    sim: StreamingMarketSimulator,
    pack: SlotPack,
    balances: np.ndarray,
    uniforms: np.ndarray,
    base: int,
    live_edge: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-peer scheduling loop: the streaming scheduler's oracle.

    Walks every alive peer's want window one position at a time —
    exactly what the retired event-driven scheduler did per peer per
    round — consuming the same tie-break uniforms as the vectorized
    kernel, so both produce bit-identical purchases.
    """
    config = sim.config
    window = config.playback_window
    capacity = config.upload_capacity
    choice = config.supplier_choice
    max_requests = config.max_requests_per_round
    have = sim._have
    price = sim._price
    uploads_total = sim._uploads_total
    pb_next = sim._pb_next
    buyers: List[int] = []
    sellers: List[int] = []
    chunks: List[int] = []
    paid: List[float] = []
    used: Dict[int, int] = {}
    if live_edge < 0:
        return _EMPTY, _EMPTY, _EMPTY, np.empty(0)
    for row in range(pack.alive_slots.size):
        slot = int(pack.alive_slots[row])
        degree = int(pack.degrees[row])
        if degree == 0:
            continue
        neighbors = sim._slots.row(slot)
        playback_point = int(pb_next[slot])
        budget = float(balances[row])
        requests = 0
        for w in range(window):
            if requests >= max_requests:
                break
            index = playback_point + w
            if index < base or index > live_edge:
                continue
            col = index - base
            if have[col, slot]:
                continue
            eligible = [int(s) for s in neighbors if have[col, s]]
            if not eligible:
                continue
            if choice == "least-loaded":
                loads = [float(uploads_total[s]) for s in eligible]
                best = min(loads)
                ties = [s for s, load in zip(eligible, loads) if load <= best + _EPS]
            elif choice == "cheapest":
                quotes = [float(price[s]) for s in eligible]
                best = min(quotes)
                ties = [s for s, quote in zip(eligible, quotes) if quote <= best + _EPS]
            else:
                ties = eligible
            pick = min(int(float(uniforms[row, w]) * len(ties)), len(ties) - 1)
            seller = ties[pick]
            quote = float(price[seller])
            if quote > budget + _EPS:
                continue
            budget -= quote
            requests += 1
            # Upload-slot admission (global order = this scan order),
            # counted per tick: ``used`` is scoped to this one call.
            if used.get(seller, 0) >= capacity:
                continue
            used[seller] = used.get(seller, 0) + 1
            buyers.append(slot)
            sellers.append(seller)
            chunks.append(index)
            paid.append(quote)
    return (
        np.array(buyers, dtype=np.int64),
        np.array(sellers, dtype=np.int64),
        np.array(chunks, dtype=np.int64),
        np.array(paid),
    )


class LoopCreditMarketSimulator(CreditMarketSimulator):
    """The market simulator with :func:`route_credits_loop` as its router."""

    def _route_credits(
        self, rows: SlotPack, spendable: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        return route_credits_loop(self, rows, spendable, draws)


class LoopStreamingMarketSimulator(StreamingMarketSimulator):
    """The streaming simulator with :func:`schedule_loop` as its scheduler."""

    def _schedule(
        self,
        pack: SlotPack,
        balances: np.ndarray,
        uniforms: np.ndarray,
        base: int,
        live_edge: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return schedule_loop(self, pack, balances, uniforms, base, live_edge)


MARKET_KERNELS = {"vectorized": CreditMarketSimulator, "loop": LoopCreditMarketSimulator}
STREAMING_KERNELS = {
    "vectorized": StreamingMarketSimulator,
    "loop": LoopStreamingMarketSimulator,
}
