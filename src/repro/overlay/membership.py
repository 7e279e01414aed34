"""Tracker-style membership service for dynamic overlays.

When peers join a dynamic overlay (Sec. VI-E of the paper) they must be
wired into the existing mesh.  The :class:`MembershipTracker` plays the role
of the tracker/bootstrap server of a real deployment: it knows the current
population and hands each newcomer a set of neighbour candidates, with a
degree-proportional ("rich get more neighbours") bias so the scale-free
shape of the overlay is preserved under churn.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

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


def _weighted_positions(
    rng: np.random.Generator, weights: np.ndarray, total: int, skip: int, count: int
) -> np.ndarray:
    """Positions ``rng.choice(weights.size, count, replace=False, p=weights / total)`` draws.

    A copy of that call's algorithm, draw for draw: each round draws
    one uniform per missing pick, zeroes the weight of every pick so
    far, inverts the normalised prefix sums and keeps the first
    occurrence of each new position, in draw order.  Position ``skip``
    (ignored when negative) gets weight 0 and ``total`` must exclude it:
    a zero leaves every prefix sum bit-identical and can never be drawn,
    so the picks equal those of ``choice`` over the other positions.
    """
    p = weights / total
    if skip >= 0:
        p[skip] = 0.0
    found: List[int] = []
    while len(found) < count:
        uniforms = rng.random(count - len(found))
        if found:
            p[found] = 0.0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(cdf.searchsorted(uniforms, side="right").tolist()))
    return np.array(found, dtype=np.int64)


class MembershipTracker:
    """Bootstrap service that attaches joining peers to an overlay.

    The tracker keeps the current peers' ascending ids, their
    ``degree + 1`` weights and the integer total of those weights, in
    buffers built from the topology's arrays on the first draw.  A join
    whose id is the largest patches them in O(degree): the joiner is
    appended, and each neighbour's weight grows by one.  Every other edit
    (a departure, a repair, an explicit id below the maximum, or an edit
    made to the overlay by other code) moves the topology's
    ``mutations`` counter past the one the buffers were synced at, and
    the next draw rebuilds them with one scan.  Selection therefore
    always sees the current overlay, never walks the population in
    Python, and costs one prefix sum per join.

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
        # The first ``_size`` entries hold the kept ids and weights; the
        # topology's ``mutations`` count they reflect is ``_synced_at``.
        self._ids = np.zeros(0, dtype=np.int64)
        self._weights = np.zeros(0)
        self._size = 0
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

        Candidates never include ``exclude`` and are distinct.  They are
        drawn without replacement with probability proportional to
        ``degree + 1`` — preferential attachment, which keeps the overlay
        scale-free under churn — exactly as ``Generator.choice`` draws
        them from the other peers.  Returns an empty list when the
        overlay is empty.
        """
        count = self.target_degree if count is None else int(count)
        if not self._in_sync():
            self._rebuild()
        ids, weights = self._ids[: self._size], self._weights[: self._size]
        skip = int(np.searchsorted(ids, exclude))
        total = self._total
        if skip < ids.size and ids[skip] == exclude:
            total -= int(weights[skip])
        else:
            skip = -1
        count = min(count, ids.size - (skip >= 0))
        if count <= 0:
            return []
        positions = _weighted_positions(self._rng, weights, total, skip, count)
        return ids[positions].tolist()

    # ------------------------------------------------------------------ kept weights

    def _in_sync(self) -> bool:
        return self._synced_at == self.topology.mutations

    def _rebuild(self) -> None:
        """Refill the kept ids and weights from the topology's arrays."""
        ids, degrees = self.topology.peer_degrees()
        if ids.size > self._ids.size:
            self._ids = np.empty(2 * ids.size, dtype=np.int64)
            self._weights = np.empty(2 * ids.size)
        self._size = ids.size
        self._ids[: ids.size] = ids
        np.add(degrees, 1.0, out=self._weights[: ids.size])
        self._total = int(degrees.sum()) + ids.size
        self._synced_at = self.topology.mutations

    def _append(self, peer_id: int) -> None:
        """Keep a new isolated peer whose id is larger than every kept id."""
        if self._size == self._ids.size:
            capacity = max(2 * self._size, 16)
            self._ids = np.resize(self._ids, capacity)
            self._weights = np.resize(self._weights, capacity)
        self._ids[self._size] = peer_id
        self._weights[self._size] = 1.0
        self._size += 1
        self._total += 1
        self._synced_at = self.topology.mutations

    def _wire(self, peer_id: int, neighbors: List[int]) -> None:
        """Patch in the edges one ``connect`` just added from ``peer_id``."""
        ids = self._ids[: self._size]
        self._weights[np.searchsorted(ids, neighbors)] += 1.0
        self._weights[np.searchsorted(ids, peer_id)] += len(neighbors)
        self._total += 2 * len(neighbors)
        self._synced_at = self.topology.mutations

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
        appendable = self._in_sync() and (
            self._size == 0 or peer_id > self._ids[self._size - 1]
        )
        self.topology.add_peer(peer_id)
        if appendable:
            self._append(peer_id)
        neighbors = self.select_neighbors(exclude=peer_id, count=degree)
        patchable = self._in_sync()
        self.topology.connect(peer_id, neighbors)
        if patchable:
            self._wire(peer_id, neighbors)
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
