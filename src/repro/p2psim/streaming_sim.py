"""Batched chunk-level simulator of a credit-incentivized streaming swarm.

This is the detailed counterpart of
:class:`~repro.p2psim.market_sim.CreditMarketSimulator`: instead of moving
credits directly, peers run a mesh-pull streaming protocol (UUSee-like, as
in Sec. VI of the paper) and credits move only when a chunk is actually
bought from a neighbour:

* the source emits the live chunk stream and seeds every new chunk to a few
  random peers;
* once per ``scheduling_interval`` every peer looks at the availability of
  the chunks between its playback point and the live edge, requests the
  missing ones closest to their playback deadline from a supplier chosen by
  the configured policy, and pays the supplier's posted price from its
  wallet (skipping chunks it cannot afford — the budget constraint that
  couples wealth to download performance);
* suppliers admit at most ``upload_capacity`` uploads per interval;
* purchased chunks arrive after a transfer latency and playback advances at
  the stream rate, recording continuity.

The simulator produces per-peer credit spending rates (Fig. 1), wealth
profiles over time (Figs. 5–6) and — with a churn configuration — the
dynamic-overlay Gini series of Fig. 11, at higher fidelity than the market
simulator.

Execution model
---------------
The simulator advances in **synchronous ticks** of one scheduling
interval.  Peer state lives in slot-indexed numpy arrays behind an alive
mask.  Chunk availability is a sliding boolean window over the live
stream, column-major (``_have[col, slot]``): a chunk's holders are one
contiguous row, emission fills a row and a slide moves whole rows.  A
seller's posted price is one entry of the per-slot ``_price``, quoted
when the peer is admitted.  The scheduling round
— candidate cells, supplier choice, budget greedy, upload-slot admission
— runs as one batched kernel over all alive peers.

The kernel stacks the round into array operations.  Its oracle, the
per-peer loop in ``tests/kernel_oracles.py``, walks peers and window
positions one at a time over the same random draws (one tie-break
uniform per (peer, window-position) cell, drawn tick-wise before the
kernel runs); the determinism and golden tests hold the kernel to it
byte for byte.  Each tick depends only on the simulator's (fully
picklable) state, so a run advanced in blocks with a pickle round-trip
between them is bit-identical to the one-block run.

The vectorized kernel works per window column.  One pass over the live
columns' ``have`` rows marks the candidate cells (window columns a peer
misses), and each column is resolved from its cheaper side: the
*demand* side walks the row of every peer missing the chunk, the
*supply* side the row of every holder, keeping the neighbours that miss
it.  Early in the stream few peers hold anything, so the supply side is
orders of magnitude smaller.  Both choose among holding neighbours
only, in the cell's neighbour order and with its uniform, so the side
never changes a purchase.  A peer stops at ``max_requests_per_round``
purchases, so only the columns before the first supply column are
resolved whole, in one batch; the later ones are walked in window
order, each resolving only the peers that can still request.

Churn (Sec. VI-E) follows the market simulator's round-based model: per
tick, each alive peer departs with probability ``1 − exp(−dt/lifespan)``
and a Poisson number of peers arrives, each endowed with the initial
credits and wired into the overlay by the membership tracker.  Topology
surgery only touches the affected peers' compacted neighbour rows, so it
commutes with the batched tick.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import get_emitter
from repro.overlay.topology import OverlayTopology
from repro.p2psim.config import StreamingSimConfig
from repro.p2psim.recorder import WealthRecorder
from repro.p2psim.slots import (
    SlotArray,
    SlotPack,
    SlotSimulator,
    apply_income_taxation,
    apply_round_churn,
)

__all__ = ["StreamingSimResult", "StreamingMarketSimulator"]

#: Tolerance used in budget and tie comparisons, matching the historical
#: wallet/scheduler epsilon.  The loop oracle imports this constant.
_EPS = 1e-12


#: Upper bound on the entry count a single expansion block of the
#: vectorized scheduling kernel materialises at once.  Supplier choice is
#: independent per candidate cell, so processing cells in bounded blocks is
#: exact; blocks this small cap the kernel's transient memory at a few MB
#: and keep each block's arrays in cache.
_EDGE_BLOCK = 1 << 18

#: The supply side's fixed cost, in expanded entries: it makes about
#: forty array calls however little it expands, so it runs only when the
#: columns it would take save more entries than this.  Below a few
#: hundred peers it never does.
_SUPPLY_OVERHEAD = 1 << 12

_EMPTY = np.empty(0, dtype=np.int64)


def _blocks(seg: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Split consecutive segments into runs ``lo:hi`` of at most ~``_EDGE_BLOCK`` entries.

    A segment longer than the block gets a run of its own.
    """
    ends = np.cumsum(seg)
    lo = 0
    while lo < seg.size:
        offset = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, offset + _EDGE_BLOCK, side="right"))
        hi = min(max(hi, lo + 1), seg.size)
        yield lo, hi
        lo = hi


def _candidate_cells(
    have: np.ndarray, pack: SlotPack, first_col: np.ndarray, window: int, live: int
) -> Tuple[int, np.ndarray]:
    """Every candidate cell of the round, as a mask over the live columns.

    Pack row ``r`` wants the columns ``first_col[r] ≤ c < first_col[r] +
    window`` that are live (``0 ≤ c < live``) and that it does not hold,
    if it has a neighbour to ask.  One pass over the live columns'
    contiguous ``have`` rows finds them all.  Returns ``(lo, wanted)``:
    row ``r`` wants column ``lo + i`` iff ``wanted[i, r]``.
    """
    start = np.maximum(first_col, 0)
    stop = np.where(pack.degrees > 0, np.minimum(first_col + window, live), 0)
    lo, hi = int(start.min()), int(stop.max())
    col = np.arange(lo, max(lo, hi))[:, None]
    wanted = (col >= start) & (col < stop)
    # In the window and not held: ``wanted > held``.
    np.greater(wanted, have[lo : lo + col.size, pack.alive_slots], out=wanted)
    return lo, wanted


class _Round(NamedTuple):
    """The read-only inputs of one round's supplier choice.

    ``have`` is column-major, ``[col, slot]``, and ``price`` is each
    slot's posted price.  Pack row ``r``'s window starts at column
    ``first_col[r]``, and its cell at window position ``w`` spends
    tie-break uniform ``uniforms[r, w]``.
    """

    have: np.ndarray
    price: np.ndarray
    uploads_total: np.ndarray
    pack: SlotPack
    first_col: np.ndarray
    uniforms: np.ndarray
    choice: str

    def cell_uniforms(self, rows: np.ndarray, cols: Union[int, np.ndarray]) -> np.ndarray:
        """The uniform of each cell ``(rows, cols)``."""
        at = rows * self.uniforms.shape[1] + (cols - self.first_col[rows])
        return self.uniforms.ravel()[at]

    def score(self, offers: np.ndarray) -> Optional[np.ndarray]:
        """Each offer's score (None: all tie)."""
        if self.choice == "least-loaded":
            return self.uploads_total[offers]
        if self.choice == "cheapest":
            return self.price[offers]
        return None


def _nth_tie(u: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """Each cell's ``pick = floor(u · ties)``: the loop oracle's ``ties[pick]``."""
    # u·ties can round up to ties.
    return np.minimum(np.floor(u * ties).astype(np.int64), ties - 1)


def _pick_ties(
    offers: np.ndarray, cell: np.ndarray, u: np.ndarray, score: Optional[np.ndarray]
) -> np.ndarray:
    """Pick one supplier per cell from its offers: the demand side's tail.

    Offer ``i`` is neighbour ``offers[i]``, which holds the chunk of cell
    ``cell[i]``.  ``cell`` is non-decreasing, every cell ``0 … u.size-1``
    has an offer, and each cell's offers come in its neighbour order;
    ``u`` holds each cell's uniform.  The offers whose ``score`` is
    within ``_EPS`` of their cell's best tie (all of them when ``score``
    is None) tie, and the cell takes tie :func:`_nth_tie` in neighbour
    order.  Returns each cell's choice.
    """
    count = u.size
    if score is None:
        ties = np.bincount(cell, minlength=count)
        tied = offers
    else:
        best = np.full(count, np.inf)
        # An equal but distinct float64 dtype (an unpickled array's) would
        # send ``ufunc.at`` down a per-element casting path.
        np.minimum.at(best, cell, score.view(best.dtype))
        best += _EPS
        at = np.flatnonzero(score <= best[cell])
        ties = np.bincount(cell[at], minlength=count)
        tied = offers[at]
    before = np.zeros(count, dtype=np.int64)
    np.cumsum(ties[:-1], out=before[1:])
    return tied[before + _nth_tie(u, ties)]


def _demand_side(round_: _Round, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Resolve cells ``(rows, cols)`` by expanding each over its whole row.

    Each edge of a cell's row offers its neighbour, read from the
    column's contiguous ``have`` row; only the neighbours holding the
    chunk reach the tie tail.  Returns the resolved cells' rows, columns
    and suppliers.
    """
    pack, capacity = round_.pack, round_.have.shape[1]
    held = round_.have.ravel()
    seg_all = pack.degrees[rows]
    out = []
    for lo, hi in _blocks(seg_all):
        b_rows, b_cols, seg = rows[lo:hi], cols[lo:hi], seg_all[lo:hi]
        dst = pack.edge_dst[pack.edge_positions(b_rows)]
        cell = np.repeat(np.arange(seg.size), seg)
        at = np.repeat(b_cols * capacity, seg)
        at += dst
        keep = np.flatnonzero(held[at])
        cell = cell[keep]
        offered = np.bincount(cell, minlength=seg.size) > 0
        found = np.flatnonzero(offered)
        if found.size == 0:
            continue
        if found.size < seg.size:
            cell = (np.cumsum(offered) - 1)[cell]
        f_rows, f_cols = b_rows[found], b_cols[found]
        offers = dst[keep]
        u = round_.cell_uniforms(f_rows, f_cols)
        out.append((f_rows, f_cols, _pick_ties(offers, cell, u, round_.score(offers))))
    return _concat(out)


class _Holders(NamedTuple):
    """The supply side's per-tick scratch, by slot: ``linked`` (alive, with a
    neighbour), its pack row, and the row of its cell in the column being
    resolved (else -1; each call fills and clears it).
    """

    linked: np.ndarray
    row_of: np.ndarray
    cell_row: np.ndarray

    @classmethod
    def of(cls, round_: _Round) -> "_Holders":
        pack, capacity = round_.pack, round_.have.shape[1]
        slots = pack.alive_slots
        linked = np.zeros(capacity, dtype=bool)
        linked[slots[pack.degrees > 0]] = True
        row_of = np.zeros(capacity, dtype=np.int64)
        row_of[slots] = np.arange(slots.size)
        cell_row = np.full(capacity, -1, dtype=np.int64)
        return cls(linked, row_of, cell_row)


def _supply_side(
    round_: _Round, rows: np.ndarray, col: int, holders_: _Holders
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve the cells of ``rows`` in column ``col`` from the column's holders.

    Walks the row of every alive holder ``h`` of the column (one contiguous
    scan of ``have[col]``) and keeps the neighbours ``n`` with a cell among
    ``rows``: each pair is an eligible offer, dropped if it scores above
    its cell's best tie.  ``h``'s position in ``n``'s ascending row orders
    a cell's pairs as ascending ``h`` (the overlay is undirected), so one
    sort of ``(row of n, h)`` keys groups the ties by cell in neighbour
    order.  Returns the resolved cells' rows and suppliers.
    """
    pack, capacity = round_.pack, round_.have.shape[1]
    holders = np.flatnonzero(round_.have[col] & holders_.linked)
    if holders.size == 0:
        return _EMPTY, _EMPTY
    # A (row, holder) key packs the row above the holder's slot bits.
    shift, cell_row = max(capacity - 1, 1).bit_length(), holders_.cell_row
    cell_slots = pack.alive_slots[rows]
    cell_row[cell_slots] = rows
    hold_rows = holders_.row_of[holders]
    hold_deg = pack.degrees[hold_rows]
    keys = []
    for lo, hi in _blocks(hold_deg):
        nbr_row = cell_row[pack.edge_dst[pack.edge_positions(hold_rows[lo:hi])]]
        keep = np.flatnonzero(nbr_row >= 0)
        keys.append((nbr_row[keep] << shift) | np.repeat(holders[lo:hi], hold_deg[lo:hi])[keep])
    cell_row[cell_slots] = -1
    key = np.concatenate(keys)
    offers = key & ((1 << shift) - 1)
    score = round_.score(offers)
    if score is not None:
        key_rows = key >> shift
        best = np.full(pack.degrees.size, np.inf)
        # See :func:`_pick_ties` for the dtype view.
        np.minimum.at(best, key_rows, score.view(best.dtype))
        best += _EPS
        key = key[score <= best[key_rows]]
    key = np.sort(key)
    # A cell per run of equal rows, its ties in neighbour order.
    key_rows = key >> shift
    first = np.flatnonzero(np.diff(key_rows, prepend=-1))
    found = key_rows[first]
    pick = _nth_tie(round_.cell_uniforms(found, col), np.diff(first, append=key.size))
    return found, key[first + pick] & ((1 << shift) - 1)


def _concat(parts: Sequence[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
    """Join ``(rows, cols, sellers)`` triples of arrays."""
    if not parts:
        return _EMPTY, _EMPTY, _EMPTY
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _supply_columns(round_: _Round, lo: int, wanted: np.ndarray) -> np.ndarray:
    """Which columns ``lo + i`` of the candidate mask expand from their holders.

    They are the columns whose alive holders' degrees sum to less than
    their candidate cells' degrees, if they save more than
    ``_SUPPLY_OVERHEAD`` entries in all.
    """
    pack = round_.pack
    slot_degree = np.zeros(round_.have.shape[1], dtype=np.int64)
    slot_degree[pack.alive_slots] = pack.degrees
    # ``einsum`` casts the masks in buffered chunks, never as a whole.
    saving = np.einsum("ij,j->i", wanted, pack.degrees) - np.einsum(
        "ij,j->i", round_.have[lo : lo + len(wanted)], slot_degree
    )
    supply = saving > 0
    if saving[supply].sum() <= _SUPPLY_OVERHEAD:
        supply[:] = False
    return supply


def _choose_cells(
    round_: _Round, lo: int, wanted: np.ndarray, budget: np.ndarray, max_requests: int
) -> Tuple[np.ndarray, ...]:
    """Every row's purchases, in (row, column) order: the loop oracle's window walk.

    Row ``r`` scans its cells (``wanted[:, r]``, from column ``lo``) until
    it holds ``max_requests``, skipping those no neighbour supplies or it
    cannot afford out of ``budget[r] + _EPS`` (``budget`` is spent in
    place).  The columns before the first supply column are resolved in
    one demand-side batch, and a greedy pass per request slot takes each
    row's first open affordable cell: budgets only decrease, so that is
    the sequential rule.  The later columns are walked one by one, each
    resolving only open rows; a row has one cell per column, so that too
    is the sequential rule.  Returns ``(rows, cols, sellers)``.
    """
    supply = _supply_columns(round_, lo, wanted)
    split = int(np.argmax(supply)) if supply.any() else supply.size
    rows, cols = np.divmod(np.flatnonzero(wanted[:split].T), max(split, 1))
    rows, cols, sellers = _demand_side(round_, rows, cols + lo)
    prices = round_.price[sellers]
    open_cell = np.ones(rows.size, dtype=bool)
    for _ in range(max_requests):
        affordable = np.flatnonzero(open_cell & (prices <= budget[rows] + _EPS))
        if affordable.size == 0:
            break
        first = np.ones(affordable.size, dtype=bool)
        first[1:] = rows[affordable[1:]] != rows[affordable[:-1]]
        taken = affordable[first]
        budget[rows[taken]] -= prices[taken]
        open_cell[taken] = False
    picked = np.flatnonzero(~open_cell)
    picks = [(rows[picked], cols[picked], sellers[picked])]
    if split == supply.size:
        return picks[0]

    requests = np.bincount(picks[0][0], minlength=budget.size)
    open_row = requests < max_requests
    holders = _Holders.of(round_)
    for i in range(split, supply.size):
        rows = np.flatnonzero(wanted[i] & open_row)
        if rows.size == 0:
            continue
        col = lo + i
        if supply[i]:
            rows, sellers = _supply_side(round_, rows, col, holders)
        else:
            rows, _, sellers = _demand_side(round_, rows, np.full(rows.size, col))
        prices = round_.price[sellers]
        taken = np.flatnonzero(prices <= budget[rows] + _EPS)
        rows, sellers = rows[taken], sellers[taken]
        budget[rows] -= prices[taken]
        requests[rows] += 1
        open_row[rows] = requests[rows] < max_requests
        picks.append((rows, np.full(rows.size, col), sellers))
    rows, cols, sellers = _concat(picks)
    # Each part lists a row's picks in column order, and the parts come
    # in column order: a stable sort by row is the (row, column) order.
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], sellers[order]


@dataclass
class StreamingSimResult:
    """Output of one :class:`StreamingMarketSimulator` run.

    Attributes
    ----------
    config:
        The configuration that produced the run.
    recorder:
        Wealth time series (Gini, bankruptcy fraction, snapshots).
    final_wealths:
        Final wallet balances of the peers alive at the end, in peer-id
        order.
    spending_rates:
        Credit spending rate of every surviving peer measured over the
        second half of the run (credits per second) — the quantity plotted
        in Fig. 1.
    earning_rates:
        Credit earning rate over the same window.
    continuity:
        Playback continuity (fraction of due chunks held at their deadline)
        per surviving peer.
    chunks_delivered:
        Total chunks purchased and delivered across the swarm.
    joins, leaves:
        Churn event counts (zero for static overlays).
    extras:
        ``tax_pool`` (credits the tax holds at the end), the run's tax
        totals ``tax_collected`` and ``tax_rebated``, and ``peer_order``,
        ``source_chunks`` and ``final_population``.
    """

    config: StreamingSimConfig
    recorder: WealthRecorder
    final_wealths: np.ndarray
    spending_rates: np.ndarray
    earning_rates: np.ndarray
    continuity: np.ndarray
    chunks_delivered: int
    joins: int = 0
    leaves: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def final_gini(self) -> float:
        """Gini index of wealth at the end of the run."""
        return self.recorder.final_gini()

    @property
    def stabilized_gini(self) -> float:
        """Mean Gini over the last quarter of samples."""
        return self.recorder.stabilized_gini()

    @property
    def spending_rate_gini(self) -> float:
        """Gini index of the per-peer credit spending rates (the Fig. 1 statistic)."""
        from repro.core.metrics import gini_index

        return gini_index(self.spending_rates)


class StreamingMarketSimulator(SlotSimulator):
    """Builds and runs a credit-incentivized streaming swarm simulation.

    Parameters
    ----------
    config:
        Simulation parameters (see :class:`~repro.p2psim.config.StreamingSimConfig`).
    topology:
        Optional pre-built overlay; a scale-free overlay with the configured
        shape/mean degree is generated when omitted.
    snapshot_times:
        Simulation times at which sorted wealth snapshots are kept.
    """

    _rng_label = "streaming-sim"
    _spent_win = SlotArray()
    _earned_win = SlotArray()
    _uploads_total = SlotArray()
    _played = SlotArray()
    _missed = SlotArray()
    _pb_next = SlotArray()
    _pb_started = SlotArray()
    _pb_backlog = SlotArray()
    _have = SlotArray()

    def __init__(
        self,
        config: StreamingSimConfig,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(config, topology, snapshot_times)
        # --- sliding availability window over the live stream ----------------------
        window = config.playback_window
        self._win_width = max(4 * window, window + 2, config.startup_chunks + 2)
        self._win_base = 0
        self._emitted = 0

        # --- slot-based peer state -------------------------------------------------
        capacity = self._slots.capacity
        self._spent_win = np.zeros(capacity)
        self._earned_win = np.zeros(capacity)
        self._uploads_total = np.zeros(capacity)
        self._played = np.zeros(capacity, dtype=np.int64)
        self._missed = np.zeros(capacity, dtype=np.int64)
        self._pb_next = np.zeros(capacity, dtype=np.int64)
        self._pb_started = np.zeros(capacity, dtype=bool)
        self._pb_backlog = np.zeros(capacity)
        # Column-major: ``_have[col, slot]``, so a column is one
        # contiguous row.
        self._have = np.zeros((self._win_width, capacity), dtype=bool)

        # Purchased chunks in flight: ``_in_flight[i]`` is applied at the
        # end of the i-th tick from now; each batch is a list of
        # ``(buyer_slots, chunk_indices)`` array pairs.  The transfer
        # latency rounds up to whole ticks (at least one: a chunk bought
        # this round is available to playback and neighbours from the next
        # round on).
        interval = config.scheduling_interval
        delay_ticks = max(1, int(np.ceil(config.transfer_latency / interval - 1e-9)))
        self._delay_ticks = delay_ticks
        self._in_flight: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(delay_ticks)
        ]

        self._minted = 0.0
        self._destroyed = 0.0
        self.chunks_delivered = 0
        # Integer ticks: a float sum of intervals drifts across tick boundaries.
        self._tick = 0
        self._next_sample = 0.0
        self._measure_start = config.horizon / 2.0

        # Admit everyone first, then derive every row in one batch (as churn
        # rounds do); the pack is built here, as construction cost.
        initial_peers = self.topology.peer_degrees()[0]
        self._admit(initial_peers)
        self._slots.refresh_rows(initial_peers)

    # ------------------------------------------------------------------ clock helpers

    @property
    def now(self) -> float:
        """Current simulation time (tick counter × scheduling interval)."""
        return self._tick * self.config.scheduling_interval

    # ------------------------------------------------------------------ peer lifecycle

    def _admit(self, peer_ids: np.ndarray) -> np.ndarray:
        """Create simulator state for ``peer_ids`` (already in the topology).

        No neighbour row is derived here: the caller refreshes the rows of
        the new peers and of their neighbours in one batch once it has
        admitted everyone — ``__init__`` for the initial population,
        :func:`apply_round_churn` at the end of each round.
        """
        slots = self._admit_peers(peer_ids)
        self._minted += self.config.initial_credits * slots.size
        self._spent_win[slots] = 0.0
        self._earned_win[slots] = 0.0
        self._uploads_total[slots] = 0.0
        self._played[slots] = 0
        self._missed[slots] = 0
        # A joiner tunes in near the live edge (initial peers start at 0).
        self._pb_next[slots] = max(0, self._emitted - self.config.startup_chunks)
        self._pb_started[slots] = False
        self._pb_backlog[slots] = 0.0
        self._have[:, slots] = False
        return slots

    def _evict(self, peer_ids: np.ndarray) -> None:
        """Remove the simulator state of ``peer_ids`` (topology surgery happens separately).

        The departing peers take their credits out of the economy, and any
        chunk still in flight toward them is dropped — a mid-purchase
        departure must neither crash the delivery nor hand the chunk to
        whichever peer later reuses the slot.
        """
        slots = self._slots.evict(peer_ids)
        self._destroyed += float(self._balance[slots].sum())
        self._balance[slots] = 0.0
        self._have[:, slots] = False
        for batch in self._in_flight:
            for position, (buyer_slots, chunk_indices) in enumerate(batch):
                keep = ~np.isin(buyer_slots, slots)
                if not keep.all():
                    batch[position] = (buyer_slots[keep], chunk_indices[keep])

    # ------------------------------------------------------------------ churn

    def _apply_churn(self, dt: float) -> None:
        apply_round_churn(self, dt, admit=self._admit, refresh_rows=self._slots.refresh_rows)

    # ------------------------------------------------------------------ stream window

    def _slide_window(self, shift: int) -> None:
        width = self._win_width
        if shift >= width:
            self._have[:] = False
        else:
            self._have[: width - shift] = self._have[shift:]
            self._have[width - shift :] = False
        self._win_base += shift

    def _emit_due_chunks(self, alive_slots: np.ndarray) -> None:
        """Emit (and seed) every chunk due by the current tick time.

        The source pre-fills ``startup_chunks`` of backlog at time zero and
        then emits at ``chunk_rate``; each fresh chunk is pushed for free to
        ``seed_fanout`` random peers of ``alive_slots`` (the origin
        server's push degree).
        """
        config = self.config
        target = config.startup_chunks + int(
            np.floor(self.now * config.chunk_rate + 1e-9)
        )
        rng = self._rng
        while self._emitted < target:
            index = self._emitted
            col = index - self._win_base
            if col >= self._win_width:
                self._slide_window(col - self._win_width + 1)
                col = index - self._win_base
            if alive_slots.size:
                fanout = min(self.config.seed_fanout, alive_slots.size)
                chosen = rng.choice(alive_slots, size=fanout, replace=False)
                self._have[col, chosen] = True
            self._emitted += 1

    # ------------------------------------------------------------------ scheduling kernel

    def _schedule(
        self,
        pack: SlotPack,
        balances: np.ndarray,
        uniforms: np.ndarray,
        base: int,
        live_edge: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched scheduling round: every alive peer's requests at once.

        Implements exactly the per-peer semantics of the loop oracle —
        same candidate order, same supplier tie-breaks (the cell at window
        position ``w`` of pack row ``r`` spends uniform ``uniforms[r, w]``),
        same greedy budget rule, same global admission order — as pure
        array operations.  One pass over the live columns lists the
        candidate cells, and :func:`_choose_cells` resolves and buys them:
        the columns before the first supply column in one batch, the rest
        one column at a time, resolving only the cells of peers that can
        still request.  Its picks come in the loop's peer-by-peer order,
        which is the order upload slots are admitted in.
        """
        config = self.config
        slots = pack.alive_slots
        if slots.size == 0 or live_edge < 0:
            return _EMPTY, _EMPTY, _EMPTY, np.empty(0)

        first_col = self._pb_next[slots] - base
        lo, wanted = _candidate_cells(
            self._have, pack, first_col, config.playback_window, live_edge - base + 1
        )
        round_ = _Round(
            self._have, self._price, self._uploads_total, pack, first_col, uniforms,
            config.supplier_choice,
        )
        rows, cols, sellers = _choose_cells(
            round_, lo, wanted, balances.copy(), config.max_requests_per_round
        )
        # Upload-slot admission in global order: within each seller, the
        # first ``upload_capacity`` requests win.  The ``(seller, position)``
        # keys are unique, so sorting them is the stable sort by seller, and
        # a request's rank is its place in it less its seller's first place.
        size = sellers.size
        key = np.sort(sellers * size + np.arange(size))
        seller_of, counts = key // size, np.bincount(sellers)
        rank = np.arange(size) - (np.cumsum(counts) - counts)[seller_of]
        admitted = np.empty(size, dtype=bool)
        admitted[key % size] = rank < config.upload_capacity
        rows, cols, sellers = rows[admitted], cols[admitted], sellers[admitted]
        return slots[rows], sellers, base + cols, self._price[sellers]

    # ------------------------------------------------------------------ settlement

    def _settle(
        self,
        buyers: np.ndarray,
        sellers: np.ndarray,
        chunk_abs: np.ndarray,
        prices: np.ndarray,
    ) -> np.ndarray:
        """Apply one tick's admitted purchases: credits now, chunks after latency.

        Shared verbatim by both kernels, as batched array updates.  The
        budget rule admits a price up to ``_EPS`` above the wallet, so a
        wallet that rounding leaves below zero is emptied instead.
        Returns each slot's income of the tick, which the tax step reads.
        """
        capacity = self._slots.capacity
        if not buyers.size:
            return np.zeros(capacity)
        spent = np.bincount(buyers, weights=prices, minlength=capacity)
        income = np.bincount(sellers, weights=prices, minlength=capacity)
        self._balance -= spent
        np.maximum(self._balance, 0.0, out=self._balance)
        self._balance += income
        self._uploads_total += np.bincount(sellers, minlength=capacity).astype(float)
        if self.now >= self._measure_start:
            self._spent_win += spent
            self._earned_win += income
        self.chunks_delivered += int(buyers.size)
        self._in_flight[self._delay_ticks - 1].append((buyers, chunk_abs))
        return income

    # ------------------------------------------------------------------ playback

    def _advance_playback(self, pack: SlotPack, dt: float) -> None:
        """Advance every started peer's playback clock by one tick.

        Due chunks not held at their deadline are skipped and counted as
        misses (live-streaming semantics).  Peers that have buffered
        ``startup_chunks`` contiguous chunks from their playback point
        start playing.
        """
        slots = pack.alive_slots
        if slots.size == 0:
            return
        base = self._win_base
        live_edge = self._emitted - 1
        need = self.config.startup_chunks
        not_started = slots[~self._pb_started[slots]]
        if not_started.size:
            if need == 0:
                self._pb_started[not_started] = True
            else:
                idx = self._pb_next[not_started][:, None] + np.arange(need)[None, :]
                in_window = (idx >= base) & (idx <= live_edge)
                cols = np.clip(idx - base, 0, self._win_width - 1)
                held = self._have[cols, not_started[:, None]] & in_window
                self._pb_started[not_started[held.all(axis=1)]] = True
        playing = slots[self._pb_started[slots]]
        if playing.size == 0:
            return
        self._pb_backlog[playing] += dt * self.config.chunk_rate
        due = np.floor(self._pb_backlog[playing]).astype(np.int64)
        max_due = int(due.max()) if due.size else 0
        if max_due <= 0:
            return
        idx = self._pb_next[playing][:, None] + np.arange(max_due)[None, :]
        active = np.arange(max_due)[None, :] < due[:, None]
        in_window = (idx >= base) & (idx <= live_edge)
        cols = np.clip(idx - base, 0, self._win_width - 1)
        held = self._have[cols, playing[:, None]] & in_window & active
        hits = held.sum(axis=1)
        self._played[playing] += hits
        self._missed[playing] += due - hits
        self._pb_next[playing] += due
        self._pb_backlog[playing] -= due

    def _apply_deliveries(self) -> None:
        """Materialise the chunk batch whose transfer latency has elapsed.

        Chunks whose window position has already been evicted (a transfer
        that out-lived the live window) are dropped, as are chunks bound
        for a peer that departed mid-transfer.
        """
        batch = self._in_flight.pop(0)
        self._in_flight.append([])
        base = self._win_base
        width = self._win_width
        for buyer_slots, chunk_indices in batch:
            cols = chunk_indices - base
            landed = (cols >= 0) & (cols < width) & self._alive[buyer_slots]
            self._have[cols[landed], buyer_slots[landed]] = True

    # ------------------------------------------------------------------ main loop

    def total_rounds(self) -> int:
        """Number of scheduling ticks the configured horizon spans."""
        return int(np.ceil(self.config.horizon / self.config.scheduling_interval))

    def advance_rounds(self, rounds: int) -> None:
        """Advance the simulation by ``rounds`` ticks (without finalising).

        ``run()`` is ``advance_rounds(total_rounds())`` + ``finalize()``;
        advancing the same ticks in several calls yields an identical
        state because each tick's draws depend only on the state before it.
        """
        config = self.config
        dt = config.scheduling_interval
        emitter = get_emitter()
        observing = emitter.enabled
        started = time.perf_counter() if observing else 0.0
        for _ in range(rounds):
            if self.now + 1e-9 >= self._next_sample:
                self._record_sample()
                self._next_sample += config.sample_interval
            if observing:
                with emitter.span("streaming.tick"):
                    self._advance_tick(dt)
            else:
                self._advance_tick(dt)
            self._tick += 1
        if observing and rounds:
            elapsed = max(time.perf_counter() - started, 1e-9)
            emitter.gauge("streaming.ticks_per_second", rounds / elapsed)

    def _advance_tick(self, dt: float) -> None:
        """Execute one scheduling tick (churn, emission, scheduling, settlement)."""
        config = self.config
        self._apply_churn(dt)
        pack = self._slots.pack()
        self._emit_due_chunks(pack.alive_slots)
        balances = self._balance[pack.alive_slots]
        uniforms = self._rng.random((pack.alive_slots.size, config.playback_window))
        emitter = get_emitter()
        observing = emitter.enabled
        if observing:
            with emitter.span("streaming.kernel.vectorized"):
                buyers, sellers, chunk_abs, prices = self._schedule(
                    pack, balances, uniforms, self._win_base, self._emitted - 1
                )
        else:
            buyers, sellers, chunk_abs, prices = self._schedule(
                pack, balances, uniforms, self._win_base, self._emitted - 1
            )
        income = self._settle(buyers, sellers, chunk_abs, prices)
        balances = self._balance[pack.alive_slots]
        apply_income_taxation(self, balances, income[pack.alive_slots])
        self._balance[pack.alive_slots] = balances
        self._advance_playback(pack, dt)
        self._apply_deliveries()

    # ------------------------------------------------------------------ bookkeeping

    def verify_conservation(self, tolerance: float = 1e-6) -> None:
        """Raise ``AssertionError`` if the credit-conservation invariant is violated."""
        alive_slots = np.flatnonzero(self._alive)
        in_circulation = float(self._balance[alive_slots].sum()) + self._tax_pool
        error = abs(self._minted - self._destroyed - in_circulation)
        if error > tolerance:
            raise AssertionError(
                f"credit conservation violated: minted={self._minted:.6g}, "
                f"destroyed={self._destroyed:.6g}, "
                f"in_circulation={in_circulation:.6g} (error {error:.3g})"
            )

    def _reporting_slots(self) -> np.ndarray:
        """Alive slots in ascending peer-id order (the reporting order)."""
        return self._slots.slot_of[np.sort(self._slots.peer_of[self._alive])]

    def _record_sample(self) -> None:
        self._record_wealth("streaming", self.now, self._reporting_slots())

    def _build_result(self) -> StreamingSimResult:
        slots = self._reporting_slots()
        order = self._slots.peer_of[slots].tolist()
        window = max(self.config.horizon - self._measure_start, 1e-9)
        played = self._played[slots].astype(float)
        missed = self._missed[slots].astype(float)
        due = played + missed
        continuity = np.where(due > 0, played / np.maximum(due, 1.0), 1.0)
        return StreamingSimResult(
            config=self.config,
            recorder=self.recorder,
            final_wealths=self._balance[slots].copy(),
            spending_rates=self._spent_win[slots] / window,
            earning_rates=self._earned_win[slots] / window,
            continuity=continuity,
            chunks_delivered=self.chunks_delivered,
            joins=self.joins,
            leaves=self.leaves,
            extras={
                "peer_order": order,
                "source_chunks": self._emitted,
                "final_population": len(order),
                "tax_pool": self._tax_pool,
                "tax_collected": self._tax_collected,
                "tax_rebated": self._tax_rebated,
            },
        )
