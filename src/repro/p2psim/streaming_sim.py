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
Earlier revisions drove every peer through its own discrete-event process
(one heap event per peer per scheduling round, one per chunk delivery),
which made the per-peer Python loop the dominant cost of every paper-scale
streaming scenario.  The simulator now advances in **synchronous ticks** of
one scheduling interval: peer state lives in slot-indexed numpy arrays
behind an alive mask, chunk availability is a sliding boolean window over
the live stream, and the whole scheduling round — candidate scoring,
supplier choice, upload-slot admission — executes as one batched kernel
over all alive peers.

Two kernels implement the identical round semantics and consume the
identical random draws (one tie-break uniform per (peer, window-position)
cell, drawn tick-wise before the kernel runs):

* ``kernel="vectorized"`` (default) stacks the round into array
  operations — the measured hot path;
* ``kernel="loop"`` walks peers and window positions in a per-peer Python
  loop — the bit-identity oracle the determinism and golden tests hold
  the vectorized kernel to.

Results are bit-identical between the kernels by construction.  Because
each tick depends only on the simulator's (fully picklable) state, runs
also partition into checkpointed round-blocks
(:mod:`repro.runner.partition`) that are bit-identical to the monolithic
run.

The vectorized kernel's supplier choice prices every window column two
ways and expands it from the cheaper side.  The *demand* side walks the
row of every peer missing the chunk (the column's candidate cells); the
*supply* side walks the row of every peer holding it and keeps the
neighbours that miss it.  The column's demand mass — the degrees of its
candidate cells summed — and its supply mass — the degrees of its alive
holders summed — are what each side would expand.  Early in the stream
almost every cell is missing and few peers hold anything, so the supply
side is orders of magnitude smaller; a column nobody holds expands
nothing at all.  Both sides feed one tie-break tail with the same
neighbour order and uniform per cell, so the choice of side never
changes a purchase.

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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
#: wallet/scheduler epsilon.  Both kernels must use the same constant.
_EPS = 1e-12


#: Upper bound on the entry count a single expansion block of the
#: vectorized scheduling kernel materialises at once.  Supplier choice is
#: independent per candidate cell, so processing cells in bounded blocks is
#: exact while capping the kernel's transient memory at a few hundred MB
#: even for 10^5–10^6-peer swarms.
_EDGE_BLOCK = 1 << 22

#: The supply side's fixed cost, in expanded entries: it makes about
#: forty array calls however little it expands, so it runs only when the
#: columns it would take save more entries than this.  Below a few
#: hundred peers it never does.
_SUPPLY_OVERHEAD = 1 << 12


def _blocks(seg: np.ndarray) -> Iterator[Tuple[int, int, int]]:
    """Split consecutive segments into runs of at most ~``_EDGE_BLOCK`` entries.

    Yields ``(lo, hi, offset)``: segments ``lo:hi`` and the entry offset
    of segment ``lo``.  A segment longer than the block gets a run of
    its own.
    """
    ends = np.cumsum(seg)
    lo = 0
    while lo < seg.size:
        offset = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, offset + _EDGE_BLOCK, side="right"))
        hi = min(max(hi, lo + 1), seg.size)
        yield lo, hi, offset
        lo = hi


def _pick_ties(
    dst: np.ndarray,
    cols: np.ndarray,
    eligible: np.ndarray,
    seg: np.ndarray,
    u: np.ndarray,
    price_win: np.ndarray,
    uploads_total: np.ndarray,
    choice: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pick one supplier per segment of offers; the tail both sides share.

    Entry ``i`` offers neighbour ``dst[i]`` for window column ``cols[i]``
    and is ``eligible`` if that neighbour holds the chunk.  The entries
    come in consecutive non-empty segments of ``seg`` entries, one per
    cell, in the cell's neighbour order; ``u`` holds each cell's uniform.
    Among the eligible entries the policy's best score ties, and the
    cell takes the ``(pick+1)``-th tie in segment order with
    ``pick = floor(u · ties)`` — the loop kernel's ``ties[pick]``.
    Returns ``(chosen, resolved)`` per segment.
    """
    starts = np.zeros(seg.size, dtype=np.int64)
    np.cumsum(seg[:-1], out=starts[1:])
    if choice == "availability":
        tie = eligible
    else:
        if choice == "least-loaded":
            score = np.where(eligible, uploads_total[dst], np.inf)
        else:  # cheapest
            score = np.where(eligible, price_win[dst, cols], np.inf)
        best = np.minimum.reduceat(score, starts)
        tie = eligible & (score <= np.repeat(best, seg) + _EPS)
    tie_int = tie.astype(np.int64)
    tie_count = np.add.reduceat(tie_int, starts)
    pick = np.floor(u * tie_count).astype(np.int64)
    pick = np.minimum(pick, tie_count - 1)  # u*cnt can round up to cnt
    # Inclusive tie rank within each segment.
    cum = np.cumsum(tie_int)
    rank = cum - np.repeat(cum[starts] - tie_int[starts], seg)
    match = np.flatnonzero(tie & (rank == np.repeat(pick + 1, seg)))
    segment = np.searchsorted(starts, match, side="right") - 1
    chosen = np.zeros(seg.size, dtype=np.int64)
    resolved = np.zeros(seg.size, dtype=bool)
    chosen[segment] = dst[match]
    resolved[segment] = True
    return chosen, resolved


def _demand_side(
    have: np.ndarray,
    price_win: np.ndarray,
    uploads_total: np.ndarray,
    pack: SlotPack,
    rows: np.ndarray,
    ws: np.ndarray,
    cols: np.ndarray,
    uniforms: np.ndarray,
    choice: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve cells ``(rows, ws)`` by expanding each over its whole row.

    Every edge of the cell's row is an entry, eligible where the
    neighbour holds column ``cols``.  Returns the resolved cells' rows,
    window positions and suppliers.
    """
    seg_all = pack.degrees[rows]
    out = []
    for lo, hi, _ in _blocks(seg_all):
        b_rows, b_ws, b_cols = rows[lo:hi], ws[lo:hi], cols[lo:hi]
        seg = seg_all[lo:hi]
        offsets = np.zeros(seg.size, dtype=np.int64)
        np.cumsum(seg[:-1], out=offsets[1:])
        edge_pos = np.repeat(pack.row_start[b_rows] - offsets, seg) + np.arange(
            int(offsets[-1] + seg[-1])
        )
        dst = pack.edge_dst[edge_pos]
        entry_cols = np.repeat(b_cols, seg)
        chosen, resolved = _pick_ties(
            dst, entry_cols, have[dst, entry_cols], seg, uniforms[b_rows, b_ws],
            price_win, uploads_total, choice,
        )
        out.append((b_rows[resolved], b_ws[resolved], chosen[resolved]))
    return _concat(out)


def _supply_side(
    have: np.ndarray,
    price_win: np.ndarray,
    uploads_total: np.ndarray,
    pack: SlotPack,
    first_col: np.ndarray,
    candidate: np.ndarray,
    uniforms: np.ndarray,
    supply_cols: np.ndarray,
    slot_degree: np.ndarray,
    choice: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the candidate cells of ``supply_cols`` from their holders.

    Walks the row of every alive holder ``h`` of each column ``c`` and
    keeps the pairs whose neighbour ``n`` has ``(n, c)`` as a candidate
    cell.  Rows are ascending and the overlay is undirected, so ``h``'s
    position in ``n``'s row orders the pairs of a cell as ascending
    ``h``: one sort of a column's ``(row of n, h)`` keys both groups its
    pairs by cell and puts each group in the cell's neighbour order.
    Every pair is an eligible offer; cells without one stay unresolved.
    """
    capacity = have.shape[0]
    count, window = candidate.shape
    row_of = np.full(capacity, -1, dtype=np.int64)
    row_of[pack.alive_slots] = np.arange(count)
    linked = slot_degree > 0
    # A (row, holder) key packs the row above the holder's slot bits.
    shift = max(capacity - 1, 1).bit_length()
    out = []
    for col in supply_cols.tolist():
        holders = np.flatnonzero(have[:, col] & linked)
        if holders.size == 0:
            continue
        # The slots missing ``col`` in their window, as a per-slot mask
        # small enough to stay in cache while the holders' rows go
        # through it.
        w = col - first_col
        in_window = np.flatnonzero((w >= 0) & (w < window))
        wanted = np.zeros(capacity, dtype=bool)
        wanted[pack.alive_slots[in_window]] = candidate[in_window, w[in_window]]
        # The holders' rows end to end, expanded in blocks that may split
        # a row.
        hold_deg = slot_degree[holders]
        hold_end = np.cumsum(hold_deg)
        hold_start = hold_end - hold_deg
        total = int(hold_end[-1])
        keys = []
        for lo in range(0, total, _EDGE_BLOCK):
            hi = min(lo + _EDGE_BLOCK, total)
            part = slice(
                int(np.searchsorted(hold_end, lo, side="right")),
                int(np.searchsorted(hold_start, hi, side="left")),
            )
            lengths = np.minimum(hold_end[part], hi) - np.maximum(hold_start[part], lo)
            edge_pos = np.repeat(
                pack.row_start[row_of[holders[part]]] - hold_start[part], lengths
            ) + np.arange(lo, hi)
            nbr = pack.edge_dst[edge_pos]
            keep = np.flatnonzero(wanted[nbr])
            keys.append((row_of[nbr[keep]] << shift) | np.repeat(holders[part], lengths)[keep])
        key = np.sort(np.concatenate(keys))
        rows = key >> shift
        seg_start = np.flatnonzero(np.diff(rows, prepend=-1))
        seg_all = np.diff(seg_start, append=key.size)
        cell_rows = rows[seg_start]
        cell_ws = col - first_col[cell_rows]
        for lo, hi, offset in _blocks(seg_all):
            seg = seg_all[lo:hi]
            dst = key[offset : offset + int(seg.sum())] & ((1 << shift) - 1)
            b_rows, b_ws = cell_rows[lo:hi], cell_ws[lo:hi]
            chosen, resolved = _pick_ties(
                dst, np.full(dst.size, col), np.ones(dst.size, dtype=bool), seg,
                uniforms[b_rows, b_ws], price_win, uploads_total, choice,
            )
            out.append((b_rows[resolved], b_ws[resolved], chosen[resolved]))
    return _concat(out)


def _concat(
    parts: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Join ``(rows, ws, sellers)`` results column by column."""
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    rows, ws, sellers = zip(*parts)
    return np.concatenate(rows), np.concatenate(ws), np.concatenate(sellers)


def _choose_suppliers_for_cells(
    have: np.ndarray,
    price_win: np.ndarray,
    uploads_total: np.ndarray,
    pack: SlotPack,
    first_col: np.ndarray,
    candidate: np.ndarray,
    uniforms: np.ndarray,
    choice: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the supplier choice for every candidate cell.

    Cell ``(r, w)`` — where ``candidate[r, w]`` — asks pack row ``r``'s
    neighbours for window column ``first_col[r] + w`` and spends uniform
    ``uniforms[r, w]``.  A pure function of read-only inputs: each cell's
    supplier depends only on its own neighbours, so how cells are split
    into ``_EDGE_BLOCK`` blocks or between the two sides cannot change
    it.  Each window column is expanded from its cheaper side:

    * demand mass — the degrees of its candidate cells summed — prices
      expanding every cell over its row (:func:`_demand_side`);
    * supply mass — the degrees of its alive holders summed — prices
      expanding every holder over its row (:func:`_supply_side`).

    The supply side runs only if the columns it would take save more
    than ``_SUPPLY_OVERHEAD`` entries in all.  Returns
    ``(rows, ws, sellers)`` of the resolved cells.
    """
    # ``flatnonzero`` + ``divmod`` is the row-major ``nonzero``, much faster.
    cand_rows, cand_ws = np.divmod(np.flatnonzero(candidate), candidate.shape[1])
    if cand_rows.size == 0:
        return _concat([])
    cand_cols = first_col[cand_rows] + cand_ws
    width = have.shape[1]
    demand_mass = np.bincount(cand_cols, weights=pack.degrees[cand_rows], minlength=width)
    slot_degree = np.zeros(have.shape[0], dtype=np.int64)
    slot_degree[pack.alive_slots] = pack.degrees
    lo, hi = int(cand_cols.min()), int(cand_cols.max()) + 1
    saving = demand_mass[lo:hi] - np.einsum("ij,i->j", have[:, lo:hi], slot_degree)
    supply_cols = lo + np.flatnonzero(saving > 0)
    if saving[supply_cols - lo].sum() <= _SUPPLY_OVERHEAD:
        supply_cols = supply_cols[:0]
    by_supply = np.zeros(width, dtype=bool)
    by_supply[supply_cols] = True
    demand = np.flatnonzero(~by_supply[cand_cols])
    return _concat(
        [
            _demand_side(
                have, price_win, uploads_total, pack, cand_rows[demand],
                cand_ws[demand], cand_cols[demand], uniforms, choice,
            ),
            _supply_side(
                have, price_win, uploads_total, pack, first_col, candidate,
                uniforms, supply_cols, slot_degree, choice,
            ),
        ]
    )


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
    _price_win = SlotArray()

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
        self._have = np.zeros((capacity, self._win_width), dtype=bool)
        self._price_win = np.zeros((capacity, self._win_width))

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
        self._tick = 0
        self._next_sample = 0.0
        self._measure_start = config.horizon / 2.0

        # Admit everyone first, then derive every row in one batch (as churn
        # rounds do); the pack is built here, as construction cost.
        initial_peers = self.topology.peers()
        for peer_id in initial_peers:
            self._admit(peer_id)
        self._slots.refresh_rows(initial_peers)

    # ------------------------------------------------------------------ clock helpers

    @property
    def now(self) -> float:
        """Current simulation time (tick counter × scheduling interval)."""
        return self._tick * self.config.scheduling_interval

    def _upload_epoch(self) -> int:
        """The upload-slot accounting epoch: the integer tick counter.

        Deriving the epoch from the float clock (``floor(now / interval)``)
        mis-buckets ticks once accumulated additions drift — e.g. sixty
        additions of 0.1 give 5.999999999999998, whose quotient floors to
        59 instead of 60 — silently granting a seller a double capacity
        window.  The integer counter cannot drift; the per-tick admission
        counters (see ``_upload_slot_available``) are scoped to it.
        """
        return self._tick

    # ------------------------------------------------------------------ peer lifecycle

    def _admit(self, peer_id: int) -> int:
        """Create simulator state for ``peer_id`` (already present in the topology).

        No neighbour row is derived here: the caller refreshes the rows of
        the new peer and of its neighbours in one batch once it has admitted
        everyone — ``__init__`` for the initial population,
        :func:`apply_round_churn` at the end of each round.
        """
        slot = self._slots.admit(peer_id)
        self._balance[slot] = self.config.initial_credits
        self._minted += self.config.initial_credits
        self._spent_win[slot] = 0.0
        self._earned_win[slot] = 0.0
        self._uploads_total[slot] = 0.0
        self._played[slot] = 0
        self._missed[slot] = 0
        # A joiner tunes in near the live edge (initial peers start at 0).
        self._pb_next[slot] = max(0, self._emitted - self.config.startup_chunks)
        self._pb_started[slot] = False
        self._pb_backlog[slot] = 0.0
        self._have[slot, :] = False
        self._fill_price_row(slot)
        return slot

    def _evict(self, peer_id: int) -> None:
        """Remove ``peer_id``'s simulator state (topology surgery happens separately).

        The departing peer takes its credits out of the economy, and any
        chunk still in flight toward it is dropped — a mid-purchase
        departure must neither crash the delivery nor hand the chunk to
        whichever peer later reuses the slot.
        """
        slot = self._slots.evict(peer_id)
        self._destroyed += float(self._balance[slot])
        self._balance[slot] = 0.0
        self._have[slot, :] = False
        for batch in self._in_flight:
            for position, (buyer_slots, chunk_indices) in enumerate(batch):
                keep = buyer_slots != slot
                if not keep.all():
                    batch[position] = (buyer_slots[keep], chunk_indices[keep])

    # ------------------------------------------------------------------ churn

    def _apply_churn(self, dt: float) -> None:
        apply_round_churn(self, dt, admit=self._admit, refresh_rows=self._slots.refresh_rows)

    # ------------------------------------------------------------------ stream window

    def _fill_price_row(self, slot: int) -> None:
        """Quote one (re)admitted seller's prices for every chunk in the window."""
        peer_id = int(self._slots.peer_of[slot])
        live_cols = self._emitted - self._win_base
        for col in range(live_cols):
            self._price_win[slot, col] = self.config.pricing.price(
                peer_id, self._win_base + col
            )

    def _fill_price_column(self, col: int, chunk_index: int) -> None:
        """Quote every alive seller's posted price for one new chunk column."""
        alive_slots = np.flatnonzero(self._alive)
        if alive_slots.size == 0:
            return
        peer_ids = self._slots.peer_of[alive_slots].tolist()
        self._price_win[alive_slots, col] = self.config.pricing.price_array(
            peer_ids, chunk_index
        )

    def _refresh_price_window(self) -> None:
        """Re-quote the whole window (stateful pricing schemes only)."""
        live_cols = self._emitted - self._win_base
        for col in range(live_cols):
            self._fill_price_column(col, self._win_base + col)

    def _slide_window(self, shift: int) -> None:
        width = self._win_width
        if shift >= width:
            self._have[:, :] = False
            self._price_win[:, :] = 0.0
        else:
            self._have[:, : width - shift] = self._have[:, shift:]
            self._have[:, width - shift :] = False
            self._price_win[:, : width - shift] = self._price_win[:, shift:]
            self._price_win[:, width - shift :] = 0.0
        self._win_base += shift

    def _emit_due_chunks(self) -> None:
        """Emit (and seed) every chunk due by the current tick time.

        The source pre-fills ``startup_chunks`` of backlog at time zero and
        then emits at ``chunk_rate``; each fresh chunk is pushed for free to
        ``seed_fanout`` random alive peers (the origin server's push
        degree).
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
            self._fill_price_column(col, index)
            alive_slots = np.flatnonzero(self._alive)
            if alive_slots.size:
                fanout = min(self.config.seed_fanout, alive_slots.size)
                chosen = rng.choice(alive_slots, size=fanout, replace=False)
                self._have[chosen, col] = True
            self._emitted += 1

    # ------------------------------------------------------------------ scheduling kernels

    def _schedule_vectorized(
        self,
        pack: SlotPack,
        balances: np.ndarray,
        uniforms: np.ndarray,
        base: int,
        live_edge: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched scheduling round: every alive peer's requests at once.

        Implements exactly the per-peer semantics of ``_schedule_loop`` —
        same candidate order, same supplier tie-breaks (cell ``(r, w)``
        spends uniform ``uniforms[r, w]``), same greedy budget rule, same
        global admission order — as pure array operations.
        """
        config = self.config
        window = config.playback_window
        count = pack.alive_slots.size
        if count == 0 or live_edge < 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0)

        slots = pack.alive_slots
        first_col = self._pb_next[slots] - base
        cols = first_col[:, None] + np.arange(window)[None, :]
        valid = (cols >= 0) & (cols <= live_edge - base)
        width = self._win_width
        own = self._have.ravel()[(slots * width)[:, None] + np.clip(cols, 0, width - 1)]
        candidate = valid & ~own & (pack.degrees > 0)[:, None]

        # Supplier choice for every candidate (peer, window-position) cell,
        # each window column expanded from its cheaper side: the candidate
        # cells' rows or the holders' rows.
        rows, ws, sellers = _choose_suppliers_for_cells(
            self._have,
            self._price_win,
            self._uploads_total,
            pack,
            first_col,
            candidate,
            uniforms,
            config.supplier_choice,
        )
        # The resolved cells as one list in (row, w) order: every peer's
        # window, in order, minus the cells no neighbour can supply.
        order = np.argsort(rows * window + ws)
        rows, ws, sellers = rows[order], ws[order], sellers[order]
        prices = self._price_win[sellers, first_col[rows] + ws]

        # Greedy selection with budget skip, one vectorized pass per request
        # slot: each pass takes every peer's first still-open affordable
        # cell.  Budgets only decrease, so the passes reproduce the
        # sequential "scan once, skip unaffordable" rule exactly, and each
        # peer's picks come in window order.
        budget = balances.copy()
        open_cell = np.ones(rows.size, dtype=bool)
        for _ in range(config.max_requests_per_round):
            affordable = np.flatnonzero(open_cell & (prices <= budget[rows] + _EPS))
            if affordable.size == 0:
                break
            first = np.ones(affordable.size, dtype=bool)
            first[1:] = rows[affordable[1:]] != rows[affordable[:-1]]
            taken = affordable[first]
            budget[rows[taken]] -= prices[taken]
            open_cell[taken] = False
        picked = np.flatnonzero(~open_cell)  # (row, w) order = global order
        if picked.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0)
        rows, ws, sellers, paid = rows[picked], ws[picked], sellers[picked], prices[picked]
        buyers = slots[rows]
        chunk_abs = base + first_col[rows] + ws

        # Upload-slot admission in global order: within each seller, the
        # first ``upload_capacity`` requests win.  The ``(seller, position)``
        # keys are unique, so sorting them is the stable sort by seller.
        size = sellers.size
        order = np.sort(sellers * size + np.arange(size)) % size
        sorted_sellers = sellers[order]
        new_group = np.ones(size, dtype=bool)
        new_group[1:] = sorted_sellers[1:] != sorted_sellers[:-1]
        group_first = np.maximum.accumulate(np.where(new_group, np.arange(size), 0))
        admitted_sorted = (np.arange(size) - group_first) < config.upload_capacity
        admitted = np.empty(size, dtype=bool)
        admitted[order] = admitted_sorted
        return buyers[admitted], sellers[admitted], chunk_abs[admitted], paid[admitted]

    def _schedule_loop(
        self,
        pack: SlotPack,
        balances: np.ndarray,
        uniforms: np.ndarray,
        base: int,
        live_edge: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-peer scheduling loop (the vectorized kernel's test oracle).

        Walks every alive peer's want window one position at a time —
        exactly what the retired event-driven scheduler did per peer per
        round — consuming the same tie-break uniforms as the vectorized
        kernel, so both produce bit-identical purchases.
        """
        config = self.config
        window = config.playback_window
        capacity = config.upload_capacity
        choice = config.supplier_choice
        max_requests = config.max_requests_per_round
        have = self._have
        price_win = self._price_win
        uploads_total = self._uploads_total
        pb_next = self._pb_next
        buyers: List[int] = []
        sellers: List[int] = []
        chunks: List[int] = []
        paid: List[float] = []
        used: Dict[int, int] = {}
        if live_edge < 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, np.empty(0)
        for row in range(pack.alive_slots.size):
            slot = int(pack.alive_slots[row])
            degree = int(pack.degrees[row])
            if degree == 0:
                continue
            neighbors = self._slots.row(slot)
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
                if have[slot, col]:
                    continue
                eligible = [int(s) for s in neighbors if have[s, col]]
                if not eligible:
                    continue
                if choice == "least-loaded":
                    loads = [float(uploads_total[s]) for s in eligible]
                    best = min(loads)
                    ties = [s for s, load in zip(eligible, loads) if load <= best + _EPS]
                elif choice == "cheapest":
                    quotes = [float(price_win[s, col]) for s in eligible]
                    best = min(quotes)
                    ties = [s for s, quote in zip(eligible, quotes) if quote <= best + _EPS]
                else:
                    ties = eligible
                pick = min(int(float(uniforms[row, w]) * len(ties)), len(ties) - 1)
                seller = ties[pick]
                price = float(price_win[seller, col])
                if price > budget + _EPS:
                    continue
                budget -= price
                requests += 1
                # Upload-slot admission (global order = this scan order).
                if not self._upload_slot_available(seller, used):
                    continue
                used[seller] = used.get(seller, 0) + 1
                buyers.append(slot)
                sellers.append(seller)
                chunks.append(index)
                paid.append(price)
        return (
            np.array(buyers, dtype=np.int64),
            np.array(sellers, dtype=np.int64),
            np.array(chunks, dtype=np.int64),
            np.array(paid),
        )

    def _upload_slot_available(self, seller_slot: int, used: Dict[int, int]) -> bool:
        """Whether ``seller_slot`` still has upload capacity this tick.

        ``used`` is the tick-local admission counter; the epoch is the
        integer tick counter (see ``_upload_epoch``), so the windowed
        accounting cannot drift with the float clock.
        """
        return used.get(seller_slot, 0) < self.config.upload_capacity

    # ------------------------------------------------------------------ settlement

    def _settle(
        self,
        buyers: np.ndarray,
        sellers: np.ndarray,
        chunk_abs: np.ndarray,
        prices: np.ndarray,
    ) -> None:
        """Apply one tick's admitted purchases: credits now, chunks after latency.

        Shared verbatim by both kernels.  Posted-price schemes settle as
        batched array updates; stateful schemes (auctions, linear pricing)
        settle purchase-by-purchase in the global admission order through
        the scalar ``settle``/``note_purchase`` hooks.
        """
        config = self.config
        capacity = self._slots.capacity
        income = np.zeros(capacity)
        deliveries = self._in_flight[self._delay_ticks - 1]
        measuring = self.now >= self._measure_start
        if buyers.size:
            if config.pricing.is_stateful():
                base = self._win_base
                peer_of = self._slots.peer_of
                delivered_slots: List[int] = []
                delivered_chunks: List[int] = []
                for buyer, seller, index, _quote in zip(
                    buyers, sellers, chunk_abs, prices
                ):
                    buyer_slot, seller_slot = int(buyer), int(seller)
                    buyer_id = int(peer_of[buyer_slot])
                    seller_id = int(peer_of[seller_slot])
                    col = int(index) - base
                    competing = [
                        int(peer_of[s])
                        for s in self._slots.row(buyer_slot)
                        if self._have[s, col]
                    ]
                    price = float(
                        config.pricing.settle(
                            seller_id, int(index), buyer_id=buyer_id,
                            competing_sellers=competing,
                        )
                    )
                    if price > self._balance[buyer_slot] + _EPS:
                        continue
                    self._balance[buyer_slot] -= price
                    self._balance[seller_slot] += price
                    income[seller_slot] += price
                    if measuring:
                        self._spent_win[buyer_slot] += price
                        self._earned_win[seller_slot] += price
                    config.pricing.note_purchase(seller_id, int(index), buyer_id)
                    self._uploads_total[seller_slot] += 1.0
                    self.chunks_delivered += 1
                    delivered_slots.append(buyer_slot)
                    delivered_chunks.append(int(index))
                if delivered_slots:
                    deliveries.append(
                        (
                            np.array(delivered_slots, dtype=np.int64),
                            np.array(delivered_chunks, dtype=np.int64),
                        )
                    )
            else:
                spent = np.bincount(buyers, weights=prices, minlength=capacity)
                income = np.bincount(sellers, weights=prices, minlength=capacity)
                self._balance -= spent
                self._balance += income
                self._uploads_total += np.bincount(sellers, minlength=capacity).astype(float)
                if measuring:
                    self._spent_win += spent
                    self._earned_win += income
                self.chunks_delivered += int(buyers.size)
                deliveries.append((buyers, chunk_abs))
        self._apply_taxation(income)

    def _apply_taxation(self, income: np.ndarray) -> None:
        apply_income_taxation(self, income, self.now)

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
                held = self._have[not_started[:, None], cols] & in_window
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
        held = self._have[playing[:, None], cols] & in_window & active
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
            self._have[buyer_slots[landed], cols[landed]] = True

    # ------------------------------------------------------------------ main loop

    def total_rounds(self) -> int:
        """Number of scheduling ticks the configured horizon spans."""
        return int(np.ceil(self.config.horizon / self.config.scheduling_interval))

    def advance_rounds(self, rounds: int) -> None:
        """Advance the simulation by ``rounds`` ticks (without finalising).

        ``run()`` is ``advance_rounds(total_rounds())`` + ``finalize()``;
        intra-run partitioning (:mod:`repro.runner.partition`) advances the
        same ticks in checkpointed blocks, which yields an identical state
        because each tick's draws depend only on the state before it.
        """
        config = self.config
        dt = config.scheduling_interval
        stateful_pricing = config.pricing.is_stateful()
        emitter = get_emitter()
        observing = emitter.enabled
        started = time.perf_counter() if observing else 0.0
        for _ in range(rounds):
            if self.now + 1e-9 >= self._next_sample:
                self._record_sample()
                self._next_sample += config.sample_interval
            if observing:
                with emitter.span("streaming.tick"):
                    self._advance_tick(dt, stateful_pricing)
            else:
                self._advance_tick(dt, stateful_pricing)
            self._tick += 1
        if observing and rounds:
            elapsed = max(time.perf_counter() - started, 1e-9)
            emitter.gauge("streaming.ticks_per_second", rounds / elapsed)

    def _advance_tick(self, dt: float, stateful_pricing: bool) -> None:
        """Execute one scheduling tick (churn, emission, scheduling, settlement)."""
        config = self.config
        self._apply_churn(dt)
        self._emit_due_chunks()
        if stateful_pricing:
            config.pricing.reset_round()
            self._refresh_price_window()
        pack = self._slots.pack()
        balances = self._balance[pack.alive_slots]
        uniforms = self._rng.random((pack.alive_slots.size, config.playback_window))
        options = config.options
        kernel = (
            self._schedule_loop if options.kernel == "loop" else self._schedule_vectorized
        )
        emitter = get_emitter()
        observing = emitter.enabled
        if observing:
            with emitter.span("streaming.kernel." + options.kernel):
                buyers, sellers, chunk_abs, prices = kernel(
                    pack, balances, uniforms, self._win_base, self._emitted - 1
                )
        else:
            buyers, sellers, chunk_abs, prices = kernel(
                pack, balances, uniforms, self._win_base, self._emitted - 1
            )
        self._settle(buyers, sellers, chunk_abs, prices)
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
            },
        )
