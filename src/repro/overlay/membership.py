"""Tracker-style membership service for dynamic overlays.

When peers join a dynamic overlay (Sec. VI-E of the paper) they must be
wired into the existing mesh.  The :class:`MembershipTracker` plays the role
of the tracker/bootstrap server of a real deployment: it knows the current
population and hands each newcomer a set of neighbour candidates, with a
degree-proportional ("rich get more neighbours") bias so the scale-free
shape of the overlay is preserved under churn.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.overlay.topology import OverlayTopology
from repro.utils.rng import make_rng

__all__ = ["Departure", "MembershipTracker"]


class Departure(NamedTuple):
    """What :meth:`MembershipTracker.leave` changed in the overlay."""

    #: The departed peer's neighbours, sorted by id.
    former_neighbors: List[int]
    #: ``(orphan, partner)`` for each edge added to re-attach an orphan.
    repairs: List[Tuple[int, int]]


class MembershipTracker:
    """Bootstrap service that attaches joining peers to an overlay.

    Neighbours are drawn from two integer tables.  The base table holds
    the ascending ids of the peers alive at the first draw after an edit
    and the prefix sums of their ``degree + 1`` weights: one
    ``peer_degrees()`` scan and one ``cumsum`` build it.  The increment
    table lists, with its own prefix sums, the weight each later join
    added: the joiner's own 1, and one for each end of every edge it
    made.  A peer's ``degree + 1`` is its base weight plus its
    increments, so a uniform integer below the tables' total, resolved
    by ``searchsorted`` in the table it falls in, picks each peer in
    proportion to ``degree + 1``.  Any other edit (a departure, a
    repair, or an edit made to the overlay by other code) moves the
    topology's ``mutations`` counter past the one the tables were
    synced at, and the next draw rebuilds them: under churn, once per
    round, after the departures.  Nothing is built before the first
    draw.

    Parameters
    ----------
    topology:
        The (mutable) overlay the tracker manages.
    target_degree:
        Number of neighbours handed to a joining peer (capped at the current
        population minus one).
    seed:
        Randomness seed for candidate selection.
    """

    def __init__(
        self,
        topology: OverlayTopology,
        target_degree: int = 20,
        seed: Optional[int] = None,
    ) -> None:
        if target_degree < 1:
            raise ValueError(f"target_degree must be at least 1, got {target_degree}")
        self.topology = topology
        self.target_degree = int(target_degree)
        self._rng = make_rng(seed, "membership-tracker")
        ids, _ = topology.peer_degrees()
        self._next_peer_id = int(ids[-1]) + 1 if ids.size else 0
        self.joins = 0
        self.leaves = 0
        # The base table, the first `_added` entries of the increment
        # table, the total weight of both, and the topology's `mutations`
        # count they reflect.
        self._base_ids = self._base_cum = np.zeros(0, dtype=np.int64)
        self._added_ids = self._added_cum = np.zeros(0, dtype=np.int64)
        self._added = 0
        self._total = 0
        self._synced_at = -1

    # ------------------------------------------------------------------ queries

    def population(self) -> int:
        """Current number of peers in the overlay."""
        return self.topology.num_peers

    def allocate_peer_id(self) -> int:
        """Reserve and return a fresh peer id (ids are never reused)."""
        peer_id = self._next_peer_id
        self._next_peer_id += 1
        return peer_id

    def select_neighbors(self, exclude: int, count: Optional[int] = None) -> List[int]:
        """Pick up to ``count`` neighbour candidates for a joining peer.

        Candidates never include ``exclude`` and are distinct, listed in
        the order they were drawn.  Each draw picks a peer with
        probability proportional to ``degree + 1`` — preferential
        attachment, which keeps the overlay scale-free under churn — and
        a draw that hits ``exclude`` or an earlier pick is drawn again,
        so the picks are successive sampling without replacement, the law
        ``Generator.choice(replace=False, p)`` draws from.  Returns an
        empty list when no other peer is in the overlay.
        """
        count = self.target_degree if count is None else int(count)
        count = min(count, self.topology.num_peers - self.topology.has_peer(exclude))
        if count <= 0:
            return []
        if self._synced_at != self.topology.mutations:
            self._rebuild()
        picks: Dict[int, None] = {}
        while len(picks) < count:
            draws = self._rng.integers(self._total, size=count - len(picks))
            picks.update(dict.fromkeys(self._peers_at(draws).tolist()))
            picks.pop(exclude, None)
        return list(picks)

    # ------------------------------------------------------------------ weight tables

    def _rebuild(self) -> None:
        """Refill the base table from the topology and empty the increments."""
        ids, degrees = self.topology.peer_degrees()
        degrees += 1
        self._base_ids, self._base_cum = ids, np.cumsum(degrees)
        self._added = 0
        self._total = int(self._base_cum[-1])
        self._synced_at = self.topology.mutations

    def _add(self, peer_id: int, neighbors: List[int], own: int) -> None:
        """Record a join's weight: ``own`` for ``peer_id`` and one for each neighbour.

        The tables are current again afterwards.
        """
        used, size = self._added, len(neighbors) + 1
        if used + size > self._added_ids.size:
            capacity = max(2 * self._added_ids.size, used + size, 64)
            self._added_ids = np.resize(self._added_ids, capacity)
            self._added_cum = np.resize(self._added_cum, capacity)
        self._added_ids[used] = peer_id
        self._added_ids[used + 1 : used + size] = neighbors
        first = self._total + own
        self._added_cum[used : used + size] = np.arange(first, first + size)
        self._total = first + size - 1
        self._added += size
        self._synced_at = self.topology.mutations

    def _peers_at(self, draws: np.ndarray) -> np.ndarray:
        """The peer owning each weight unit in ``draws``: base table first, then increments."""
        rows = self._base_cum.searchsorted(draws, side="right")
        late = rows == self._base_ids.size
        if not late.any():
            return self._base_ids[rows]
        peers = np.empty_like(draws)
        peers[~late] = self._base_ids[rows[~late]]
        added_cum = self._added_cum[: self._added]
        peers[late] = self._added_ids[added_cum.searchsorted(draws[late], side="right")]
        return peers

    # ------------------------------------------------------------------ mutation

    def join(self, peer_id: Optional[int] = None, degree: Optional[int] = None) -> int:
        """Add a new peer to the overlay and wire it to neighbour candidates.

        Returns the id of the peer that joined.
        """
        if peer_id is None:
            peer_id = self.allocate_peer_id()
        else:
            peer_id = int(peer_id)
            self._next_peer_id = max(self._next_peer_id, peer_id + 1)
        if self.topology.has_peer(peer_id):
            raise ValueError(f"peer {peer_id} is already in the overlay")
        stale = self._synced_at != self.topology.mutations
        self.topology.add_peer(peer_id)
        if not stale:
            # The joiner, excluded from its own draw, is recorded with its edges.
            self._synced_at = self.topology.mutations
        neighbors = self.select_neighbors(exclude=peer_id, count=degree)
        # A rebuild at the draw already counted the joiner's own 1.
        current = self._synced_at == self.topology.mutations
        self.topology.connect(peer_id, neighbors)
        if current:
            self._add(peer_id, neighbors, own=len(neighbors) + (not stale))
        self.joins += 1
        return peer_id

    def leave(self, peer_id: int, repair: bool = True) -> Departure:
        """Remove a peer; optionally repair the orphans it leaves behind.

        When ``repair`` is True, former neighbours that became isolated are
        re-attached to a random remaining peer, so the overlay never
        fragments into singleton components because of a departure.

        Returns the departed peer's former neighbours and the repair edges,
        so a caller caching per-peer neighbour state knows every peer whose
        neighbour set changed.
        """
        former = self.topology.remove_peer(peer_id)
        self.leaves += 1
        repairs: List[Tuple[int, int]] = []
        if repair and self.topology.num_peers > 1:
            # Repairs only add edges, so the orphans are among the former
            # neighbours the departure left without any.
            isolated = np.asarray(former)[self.topology._degree[former] == 0]
            for orphan in isolated.tolist():
                # An earlier repair in this loop may have wired this orphan.
                if self.topology.degree(orphan) == 0:
                    for candidate in self.select_neighbors(exclude=orphan, count=1):
                        self.topology.add_edge(orphan, candidate)
                        repairs.append((orphan, candidate))
        return Departure(former, repairs)
