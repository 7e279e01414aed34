"""The peer-slot store and the churn and tax steps both simulators share.

Both :class:`~repro.p2psim.market_sim.CreditMarketSimulator` and
:class:`~repro.p2psim.streaming_sim.StreamingMarketSimulator` keep peer
state in slot-indexed numpy arrays.  :class:`PeerSlots` is the one copy of
the bookkeeping behind those arrays: the alive mask, the peer↔slot maps,
the free-slot stack, capacity growth of every per-slot array and the
alive peers' neighbour rows (their neighbours' slots, ascending), each
kept as one segment of a shared buffer.  A simulator declares its
per-slot arrays, and the arrays aligned with the buffer, as
:class:`SlotArray` attributes, so assigning one registers it with the
store, which grows or compacts it.

Peers enter and leave in whole arrays: :meth:`PeerSlots.admit` and
:meth:`PeerSlots.evict` take id arrays and hand out or free slots exactly
as one call per peer would, in order, so the initial population is one
call and a churn round two.  Admitting a peer never derives a row.  Rows
are read from the overlay's edge segments in one gather and key-sorted by
slot, so no row depends on the order edits left a segment in — an
unpickled simulator derives exactly the rows it had.  After a round's
departures and arrivals, one :meth:`PeerSlots.refresh_rows` call
re-derives the rows of every peer whose neighbour set changed and writes
only their segments; a hub touched by many joins is recomputed once.
:meth:`PeerSlots.pack` reads the rows as one CSR pack.

:class:`SlotSimulator` is the set-up and run plumbing both simulators
inherit, and :func:`apply_round_churn` and :func:`apply_income_taxation`
are the round steps both call, so a fix to either step can never
silently diverge the two fidelity levels.  The steps read the attributes
a :class:`SlotSimulator` sets up (``config`` with its ``churn`` and
``tax_policy``, ``_rng``, ``_slots``, ``_balance``, ``_tracker``,
``topology``, ``_tax_pool`` and the tax totals, the ``joins``/``leaves``
counters) and call the simulator's own ``_evict(peer_ids)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_emitter
from repro.overlay.generators import scale_free_topology
from repro.overlay.membership import MembershipTracker
from repro.overlay.topology import OverlayTopology, segments
from repro.p2psim.recorder import WealthRecorder
from repro.utils.rng import make_rng

__all__ = [
    "PeerSlots",
    "SlotArray",
    "SlotPack",
    "SlotSimulator",
    "apply_round_churn",
    "apply_income_taxation",
]

_EMPTY_ROW = np.empty(0, dtype=np.int64)


@dataclass
class SlotPack:
    """Alive peers' neighbour rows, each a segment of ``edge_dst`` — no padding.

    Row ``r`` describes the peer in slot ``alive_slots[r]``:
    ``edge_dst[row_start[r] : row_start[r] + degrees[r]]`` are its
    neighbours' slots, ascending.  Memory scales with the edge count,
    never with ``N × max_degree``.  :meth:`PeerSlots.pack` gives the CSR
    form, whose rows lie back to back and whose ``row_start`` ends with
    one more entry, ``edge_dst.size``; :meth:`PeerSlots.rows` views the
    store's buffer as it is.
    """

    alive_slots: np.ndarray
    degrees: np.ndarray
    row_start: np.ndarray
    edge_dst: np.ndarray

    def edge_positions(self, rows: np.ndarray) -> np.ndarray:
        """Positions in ``edge_dst`` of the edges of ``rows``, row after row."""
        return segments(self.row_start[rows], self.degrees[rows])


class PeerSlots:
    """Slot bookkeeping for the peers of one overlay.

    ``alive[slot]`` marks the slots in use and ``peer_of[slot]`` names the
    peer in each (meaningful only where alive); ``slot_of[peer_id]`` is
    the reverse map, -1 for peers without a slot.  Peer ids must be
    non-negative integers: ``slot_of`` is indexed by them.  Freed slots
    are reused last-in first-out, and the initial population, admitted
    in one call in ascending id order, gets slots ``0, 1, 2, …``.

    Slot ``s``'s row is ``edges[start[s] : start[s] + degree[s]]``, a
    segment of one shared buffer with ``room[s]`` entries reserved for
    it; ``start``, ``degree`` and ``room`` are per-slot arrays, and a slot
    without a row has degree and room 0.
    """

    def __init__(self, topology: OverlayTopology) -> None:
        self.topology = topology
        self.capacity = max(16, 2 * topology.num_peers)
        #: Every per-slot array, grown together; see :class:`SlotArray`.
        self.arrays: Dict[str, np.ndarray] = {
            "alive": np.zeros(self.capacity, dtype=bool),
            "peer_of": np.zeros(self.capacity, dtype=np.int64),
            "start": np.zeros(self.capacity, dtype=np.int64),
            "degree": np.zeros(self.capacity, dtype=np.int64),
            "room": np.zeros(self.capacity, dtype=np.int64),
        }
        #: The segment buffer, and every array aligned with it.
        self.edges = _EMPTY_ROW
        self.edge_arrays: Dict[str, np.ndarray] = {}
        #: First buffer entry after the last segment.
        self._end = 0
        #: Whether ``edges[:_end]`` is the alive rows back to back in slot order.
        self._packed = True
        self.slot_of = np.full(self.capacity, -1, dtype=np.int64)
        #: The free slots, a stack: the last entry is the next one taken.
        self._free = np.arange(self.capacity - 1, -1, -1)
        #: :meth:`rows` and :meth:`pack`, kept until the rows change.
        self._rows: Optional[SlotPack] = None
        self._pack: Optional[SlotPack] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The caches may view the buffer; they are rebuilt on first read.
        return dict(self.__dict__, _rows=None, _pack=None)

    @property
    def alive(self) -> np.ndarray:
        return self.arrays["alive"]

    @property
    def peer_of(self) -> np.ndarray:
        return self.arrays["peer_of"]

    def slot(self, peer_id: int) -> int:
        """The slot of ``peer_id``, or -1 if it has none."""
        if 0 <= peer_id < self.slot_of.size:
            return int(self.slot_of[peer_id])
        return -1

    def _slots_of(self, peer_ids: np.ndarray) -> np.ndarray:
        """:meth:`slot` of every id in ``peer_ids``."""
        slots = self.slot_of.take(peer_ids, mode="clip")
        slots[(peer_ids < 0) | (peer_ids >= self.slot_of.size)] = -1
        return slots

    def admit(self, peer_ids: Sequence[int]) -> np.ndarray:
        """Give each of ``peer_ids`` a free slot, in order; return the slots.

        Slots come off the free list exactly as one call per peer would
        take them: every array grows (doubling) only once the free list
        cannot cover the batch, and freshly grown slots go out ascending.
        """
        ids = np.asarray(peer_ids, dtype=np.int64)
        while self._free.size < ids.size:
            self._grow()
        if ids.size and ids.max() >= self.slot_of.size:
            pad = max(self.slot_of.size, int(ids.max()) + 1 - self.slot_of.size)
            self.slot_of = np.concatenate([self.slot_of, np.full(pad, -1, dtype=np.int64)])
        top = self._free.size - ids.size
        slots = self._free[top:][::-1].copy()
        self._free = self._free[:top]
        self.alive[slots] = True
        self.peer_of[slots] = ids
        self.slot_of[ids] = slots
        if ids.size:
            self._rows = self._pack = None
        return slots

    def evict(self, peer_ids: Sequence[int]) -> np.ndarray:
        """Free the slots of ``peer_ids`` and drop their rows; return the slots.

        The freed slots go onto the free list in order, so the last one
        is the first reused.
        """
        ids = np.asarray(peer_ids, dtype=np.int64)
        slots = self.slot_of[ids]
        self.slot_of[ids] = -1
        self.alive[slots] = False
        degree = self.arrays["degree"]
        self._packed &= not degree[slots].any()
        degree[slots] = self.arrays["room"][slots] = 0
        self._free = np.concatenate([self._free, slots])
        if ids.size:
            self._rows = self._pack = None
        return slots

    def _grow(self) -> None:
        old = self.capacity
        for name, array in self.arrays.items():
            pad = np.zeros(array.shape[:-1] + (old,), dtype=array.dtype)
            self.arrays[name] = np.concatenate([array, pad], axis=-1)
        self._free = np.concatenate([np.arange(2 * old - 1, old - 1, -1), self._free])
        self.capacity = 2 * old

    def refresh_rows(self, peer_ids: Sequence[int]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Re-derive the rows of ``peer_ids`` (once each).

        Returns their slots, in order, and the buffer positions their
        rows were written to, row after row, or None when they were
        written back to back from entry 0, as at set-up, where the
        positions are a range.  Peers without a slot are skipped; every
        overlay neighbour of the others must have one.

        All rows are read in one pass and ordered by one sort of their
        ``(row, slot)`` keys.  A row that fits its room is rewritten in
        place, the others move to the buffer's end with room for twice
        their degree, and once the end is reached every row is laid out
        anew (:meth:`_compact`).  The rows' entries of every
        :attr:`edge_arrays` array are left for the caller to fill.
        """
        ids = np.asarray(peer_ids, dtype=np.int64)
        slots = self._slots_of(ids)
        ids, slots = ids[slots >= 0], slots[slots >= 0]
        if not ids.size:
            return _EMPTY_ROW, _EMPTY_ROW
        degrees, keys = self.topology.neighbor_rows(ids)
        keys = self._slots_of(keys)
        if keys.size and keys.min() < 0:
            row = np.searchsorted(np.cumsum(degrees), np.argmin(keys), side="right")
            raise RuntimeError(f"a neighbour of peer {ids[row]} has no slot")
        # A (row, slot) key packs the row above the slot's bits.
        shift = max(self.capacity - 1, 1).bit_length()
        keys |= np.repeat(np.arange(ids.size) << shift, degrees)
        keys.sort()
        fresh = np.bitwise_and(keys, (1 << shift) - 1, out=keys)
        start, degree, room = self.arrays["start"], self.arrays["degree"], self.arrays["room"]
        self._rows = self._pack = None
        moving = degrees > room[slots]
        moved = np.maximum(2 * degrees[moving], 4)
        if self._end + int(moved.sum()) > self.edges.size:
            return slots, self._compact(slots, degrees, fresh)
        starts = start[slots]
        starts[moving] = self._end + np.cumsum(moved) - moved
        self._end += int(moved.sum())
        self._packed &= not moving.any() and np.array_equal(degree[slots], degrees)
        start[slots], degree[slots] = starts, degrees
        room[slots[moving]] = moved
        positions = segments(starts, degrees)
        self.edges[positions] = fresh
        return slots, positions

    def _compact(
        self, slots: np.ndarray, degrees: np.ndarray, fresh: np.ndarray
    ) -> Optional[np.ndarray]:
        """Lay every alive row out back to back in slot order, ``slots`` with ``fresh``.

        Returns the positions ``fresh`` was written to, as
        :meth:`refresh_rows` does.

        The other rows, and their entries of every edge array, are carried
        over.  The first layout is exact, so a static overlay keeps no
        spare room; later the buffer keeps its size while at most half of
        it is live, and otherwise at least doubles.
        """
        start, degree, room = self.arrays["start"], self.arrays["degree"], self.arrays["room"]
        alive_slots = np.flatnonzero(self.alive)
        refreshed = np.zeros(self.capacity, dtype=bool)
        refreshed[slots] = True
        kept = alive_slots[~refreshed[alive_slots]]
        source = segments(start[kept], degree[kept])
        degree[slots] = degrees
        lengths = degree[alive_slots]
        start[alive_slots] = np.cumsum(lengths) - lengths
        room[alive_slots] = lengths
        live = int(lengths.sum())
        size = self.edges.size
        if not size:
            size = live
        elif 2 * live > size:
            size = max(2 * size, 2 * live)
        target = segments(start[kept], degree[kept])
        if size == live and np.array_equal(slots, alive_slots):
            # Every row is fresh and in slot order (set-up): the layout itself.
            edges, positions = fresh, None
        else:
            edges = np.zeros(size, dtype=np.int64)
            edges[target] = self.edges[source]
            positions = segments(start[slots], degrees)
            edges[positions] = fresh
        for name, values in self.edge_arrays.items():
            carried = np.zeros(size, dtype=values.dtype)
            carried[target] = values[source]
            self.edge_arrays[name] = carried
        self.edges, self._end, self._packed = edges, live, True
        return positions

    def row(self, slot: int) -> np.ndarray:
        """The neighbour slots of ``slot``, ascending (a view into the buffer)."""
        start = int(self.arrays["start"][slot])
        return self.edges[start : start + int(self.arrays["degree"][slot])]

    def rows(self) -> SlotPack:
        """The alive rows where they lie: ``row_start`` holds their segment starts."""
        if self._rows is None:
            alive_slots = np.flatnonzero(self.alive)
            degrees, starts = self.arrays["degree"][alive_slots], self.arrays["start"][alive_slots]
            self._rows = SlotPack(alive_slots, degrees, starts, self.edges)
        return self._rows

    def pack(self) -> SlotPack:
        """The CSR rows of the alive population.

        While the buffer is laid out in slot order (after set-up, and on
        a static overlay for good) the pack views it; otherwise one
        gather copies the segments.  Either is kept until the rows change.
        """
        if self._pack is None:
            rows = self.rows()
            row_start = np.zeros(rows.degrees.size + 1, dtype=np.int64)
            np.cumsum(rows.degrees, out=row_start[1:])
            if self._packed:
                edge_dst = self.edges[: self._end]
            else:
                edge_dst = self.edges[segments(rows.row_start, rows.degrees)]
            self._pack = SlotPack(rows.alive_slots, rows.degrees, row_start, edge_dst)
        return self._pack


class SlotArray:
    """A simulator attribute that is one per-slot array of its ``_slots`` store.

    Assigning the attribute stores the array in ``sim._slots.arrays``
    under the attribute's name (or under ``key``), where the store grows
    it along its last axis, the slot axis, whenever the population
    outgrows the capacity.  With ``edges=True`` it is stored in ``edge_arrays``
    instead, aligned with the store's segment buffer ``edges``, and every
    compaction carries it along.
    """

    def __init__(self, key: Optional[str] = None, edges: bool = False) -> None:
        self.key = key
        self.registry = "edge_arrays" if edges else "arrays"

    def __set_name__(self, owner: type, name: str) -> None:
        if self.key is None:
            self.key = name

    def __get__(self, sim: Any, owner: Optional[type] = None) -> Any:
        if sim is None:
            return self
        return getattr(sim._slots, self.registry)[self.key]

    def __set__(self, sim: Any, array: np.ndarray) -> None:
        getattr(sim._slots, self.registry)[self.key] = array


class SlotSimulator:
    """Set-up and run plumbing both slot-array simulators share.

    ``__init__`` adopts ``topology`` (or generates the configured
    scale-free overlay) and builds the wealth recorder, the membership
    tracker and the slot store; a subclass then adds its per-slot arrays
    and admits the initial population.  A subclass names its random
    stream in ``_rng_label`` and implements the four methods below that
    raise :class:`NotImplementedError`.

    The round contract: ``run()`` is ``advance_rounds(total_rounds())``
    followed by ``finalize()``.  The whole simulator pickles after any
    number of ``advance_rounds`` calls, and each round's draws depend only
    on the state before it, so a run advanced in blocks with a pickle
    round-trip between them ends byte-identical to the one-block run.
    """

    _rng_label = ""
    _alive = SlotArray("alive")
    _balance = SlotArray()

    def __init__(
        self,
        config: Any,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> None:
        self.config = config
        self._rng = make_rng(config.seed, self._rng_label)
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
            target_degree=max(1, int(round(config.topology_mean_degree))),
            seed=config.seed + 1,
        )
        self._slots = PeerSlots(self.topology)
        self._balance = np.zeros(self._slots.capacity)
        self._tax_pool = 0.0
        self._tax_collected = 0.0
        self._tax_rebated = 0.0
        self.joins = 0
        self.leaves = 0

    def total_rounds(self) -> int:
        raise NotImplementedError

    def advance_rounds(self, rounds: int) -> None:
        raise NotImplementedError

    def _record_sample(self) -> None:
        raise NotImplementedError

    def _build_result(self) -> Any:
        raise NotImplementedError

    def _record_wealth(self, prefix: str, now: float, slots: np.ndarray) -> None:
        """Record the wealth of ``slots`` at ``now`` and stream the sample.

        The recorder drops empty populations, so a sample is emitted as
        ``<prefix>.gini`` & co. only when the recorder appended one.
        """
        recorder = self.recorder
        emitter = get_emitter()
        observing = emitter.enabled
        before = len(recorder.gini_series.x) if observing else 0
        recorder.record(now, self._balance[slots])
        if observing and len(recorder.gini_series.x) > before:
            emitter.point(prefix + ".gini", now, recorder.gini_series.y[-1])
            emitter.point(prefix + ".bankrupt_fraction", now, recorder.bankrupt_series.y[-1])
            emitter.point(prefix + ".mean_wealth", now, recorder.mean_wealth_series.y[-1])
            emitter.point(prefix + ".population", now, float(slots.size))

    def finalize(self) -> Any:
        """Record the final sample and assemble the run's result."""
        self._record_sample()
        return self._build_result()

    def run(self) -> Any:
        """Run the simulation for the configured horizon and return the result."""
        self.advance_rounds(self.total_rounds())
        return self.finalize()

    @classmethod
    def run_config(
        cls,
        config: Any,
        topology: Optional[OverlayTopology] = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> Any:
        """Build a simulator for ``config`` and run it to completion."""
        return cls(config, topology=topology, snapshot_times=snapshot_times).run()


def apply_round_churn(
    sim: Any,
    dt: float,
    admit: Callable[[np.ndarray], object],
    refresh_rows: Callable[[List[int]], object],
) -> None:
    """Apply one round of Poisson arrivals and exponential departures.

    Each alive peer departs within ``dt`` with probability
    ``1 − exp(−dt/lifespan)`` (the discretised exponential lifetime — the
    distribution is memoryless, so peers present at start-up churn like
    everyone else) and a Poisson number of peers arrives, wired into the
    overlay by the tracker.  The overlay changes one peer per call (each
    joiner's edges in one :meth:`~repro.overlay.topology.OverlayTopology.connect`),
    the simulator state in whole batches: the tracker removes every leaver,
    then one ``sim._evict(leavers)`` frees their slots; the tracker wires
    in every joiner, then one ``admit(joiners)`` creates their state, in
    join order, without deriving any neighbour row.  Last, ``refresh_rows``
    gets, in one call, every peer whose neighbour set changed — each
    leaver's former neighbours, each orphan's repair partner, each joiner
    and its neighbours — once each, in the order they were first touched.
    Peers that left later in the round have no slot and are skipped by
    the store.
    """
    churn = sim.config.churn
    if churn is None:
        return
    rng = sim._rng
    departure_probability = 1.0 - np.exp(-dt / churn.mean_lifespan)
    alive_slots = np.flatnonzero(sim._slots.alive)
    departing = alive_slots[rng.random(alive_slots.size) < departure_probability]
    # Insertion-ordered set of the peers whose neighbour rows went stale.
    touched: Dict[int, None] = {}
    leavers: List[int] = []
    for peer_id in sim._slots.peer_of[departing].tolist():
        if sim.topology.num_peers <= 2:
            break
        departure = sim._tracker.leave(peer_id)
        leavers.append(peer_id)
        touched.update(dict.fromkeys(departure.former_neighbors))
        # A repaired orphan is a former neighbour; its partner gained an
        # edge too and must start routing to it.
        touched.update(dict.fromkeys(partner for _, partner in departure.repairs))
    sim._evict(np.array(leavers, dtype=np.int64))
    sim.leaves += len(leavers)
    joiners: List[int] = []
    for _ in range(int(rng.poisson(churn.arrival_rate * dt))):
        peer_id = sim._tracker.join()
        joiners.append(peer_id)
        touched[peer_id] = None
        touched.update(dict.fromkeys(sim.topology.neighbors(peer_id)))
    admit(np.array(joiners, dtype=np.int64))
    sim.joins += len(joiners)
    refresh_rows(list(touched))


def apply_income_taxation(sim: Any, income: np.ndarray, alive_slots: np.ndarray) -> None:
    """Tax one round's per-slot income under the simulator's tax policy.

    ``alive_slots`` are the slots of the alive peers, ascending.  The
    policy's :meth:`~repro.core.taxation.TaxPolicy.apply` taxes their
    balances and rebates from ``sim._tax_pool``; the step writes the
    balances back and adds the round's collections and rebates to
    ``sim._tax_collected`` and ``sim._tax_rebated``.
    """
    balances = sim._balance[alive_slots]
    collected, rebated, sim._tax_pool = sim.config.tax_policy.apply(
        balances, income[alive_slots], sim._tax_pool
    )
    sim._balance[alive_slots] = balances
    sim._tax_collected += collected
    sim._tax_rebated += rebated
