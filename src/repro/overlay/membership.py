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


class MembershipTracker:
    """Bootstrap service that attaches joining peers to an overlay.

    The tracker keeps no copy of the overlay: each selection reads the
    current peers' ascending ids and degrees from the topology's arrays,
    so selecting neighbours never walks the population in Python, and
    edits made to the overlay by other code are seen at once.

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
        scale-free under churn.  Returns an empty list when the overlay is
        empty.
        """
        count = self.target_degree if count is None else int(count)
        candidates, degrees = self.topology.peer_degrees()
        if self.topology.has_peer(exclude):
            keep = candidates != exclude
            candidates, degrees = candidates[keep], degrees[keep]
        if candidates.size == 0 or count <= 0:
            return []
        count = min(count, candidates.size)
        weights = degrees + 1.0
        weights /= weights.sum()
        return self._rng.choice(candidates, size=count, replace=False, p=weights).tolist()

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
        self.topology.add_peer(peer_id)
        self.topology.connect(peer_id, self.select_neighbors(exclude=peer_id, count=degree))
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
