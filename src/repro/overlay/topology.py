"""Mutable overlay topology with neighbour tables and join/leave support.

The overlay is kept in id-indexed numpy arrays: ``alive`` marks the
current peers, and each peer's neighbours are one segment of a shared
int64 edge buffer.  Segments hold their entries in no particular order,
so every query that returns peers returns them in a canonical order:
neighbours ascend, and connected components are found by one array
labelling and listed largest first, ties by smallest id.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["OverlayTopology", "component_labels", "segments"]

#: Breadth-first levels :func:`component_labels` searches before label
#: propagation takes over; scale-free overlays need about five.
_SEARCH_LEVELS = 32


def segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(start, start + length)`` of every segment, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)


def component_labels(degrees: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Label the connected components of an undirected graph kept as CSR rows.

    Position ``k``'s neighbours are the next ``degrees[k]`` entries of
    ``neighbors``, in any order.  Entry ``k`` of the result is the
    smallest position of ``k``'s component.
    """
    label = np.arange(degrees.size)
    if not neighbors.size:
        return label
    starts = np.cumsum(degrees) - degrees
    # A breadth-first search from the best-connected position covers its
    # component (on a scale-free overlay, nearly every peer, in a few
    # levels) with one gather and one mask per level.
    reached = np.zeros(degrees.size, dtype=bool)
    frontier = np.argmax(degrees, keepdims=True)
    reached[frontier] = True
    for _ in range(_SEARCH_LEVELS):
        found = np.zeros(degrees.size, dtype=bool)
        found[neighbors[segments(starts[frontier], degrees[frontier])]] = True
        found &= ~reached
        reached |= found
        frontier = np.flatnonzero(found)
        if not frontier.size:
            break
    label[reached] = np.argmax(reached)
    # Label propagation with pointer jumping labels the rest, and the far
    # end of a component too long for the search: every label points at a
    # smaller or equal position, and each round hooks the larger root of
    # every edge whose ends disagree onto the smaller one.  It ends with
    # each position labelled by the smallest position of its component.
    rest = np.flatnonzero(~reached)
    src = np.repeat(rest, degrees[rest])
    dst = neighbors[segments(starts[rest], degrees[rest])]
    while src.size:
        root_src, root_dst = label[src], label[dst]
        differ = root_src != root_dst
        src, dst = src[differ], dst[differ]
        root_src, root_dst = root_src[differ], root_dst[differ]
        np.minimum.at(label, np.maximum(root_src, root_dst), np.minimum(root_src, root_dst))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


class OverlayTopology:
    """An undirected P2P overlay graph with explicit neighbour tables.

    Peers are identified by non-negative integer ids, which index the
    arrays ``_alive``, ``_start``, ``_degree`` and ``_room``.  Peer ``p``'s
    neighbours are ``_edges[_start[p] : _start[p] + _degree[p]]``, a
    segment with ``_room[p]`` entries reserved for it:

    * added edges are appended in place while the segment has room; a
      full segment first moves to the buffer's end with at least double
      the room (:meth:`connect` moves all of one call's full segments at
      once);
    * a removed edge is overwritten by the segment's last entry;
    * when the buffer's end is reached, one gather packs the live
      segments to its front.  The buffer doubles only when more than
      half of it would still be live, so under churn it stays within a
      fixed multiple of ``2 × num_edges`` entries.

    Examples
    --------
    >>> topo = OverlayTopology.from_edges(3, [(0, 1), (1, 2)])
    >>> topo.neighbors(1)
    (0, 2)
    >>> topo.degree(1)
    2
    """

    def __init__(self, peer_ids: Optional[Iterable[int]] = None) -> None:
        self._alive = np.zeros(0, dtype=bool)
        self._start = np.zeros(0, dtype=np.int64)
        self._degree = np.zeros(0, dtype=np.int64)
        self._room = np.zeros(0, dtype=np.int64)
        self._edges = np.zeros(0, dtype=np.int64)
        #: First buffer entry after the last segment.
        self._end = 0
        self._num_peers = 0
        self._edge_count = 0
        #: Bumped by every call that may change the peers or their degrees,
        #: so a reader caching degrees can tell whether it is still current.
        self.mutations = 0
        if peer_ids is not None:
            for peer_id in peer_ids:
                self.add_peer(int(peer_id))

    # ------------------------------------------------------------------ construction

    @classmethod
    def from_edges(cls, num_peers: int, edges: Iterable[Tuple[int, int]]) -> "OverlayTopology":
        """Build a topology on peers ``0..num_peers-1`` from an edge list."""
        topo = cls(range(num_peers))
        for u, v in edges:
            topo.add_edge(int(u), int(v))
        return topo

    @classmethod
    def from_edge_arrays(
        cls, num_peers: int, src: np.ndarray, dst: np.ndarray
    ) -> "OverlayTopology":
        """Bulk-build a topology on peers ``0..num_peers-1`` from endpoint arrays.

        ``src[i]``–``dst[i]`` pairs are undirected edges; self-loops and
        duplicates (in either orientation) are dropped.  Both orientations
        of every edge are encoded as ``u·N + v`` keys, and one sort of the
        keys groups them by ``u`` with neighbours ascending, so dropping
        equal neighbours leaves the edge buffer itself.  The result is
        identical to feeding the same (deduplicated) edges through
        :meth:`from_edges`.
        """
        num_peers = int(num_peers)
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if src.size and (
            int(src.min()) < 0
            or int(dst.min()) < 0
            or int(src.max()) >= num_peers
            or int(dst.max()) >= num_peers
        ):
            raise ValueError("edge endpoints must lie in [0, num_peers)")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        keys = np.sort(np.concatenate([src * num_peers + dst, dst * num_peers + src]))
        if keys.size:
            keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        topo = cls()
        topo._alive = np.ones(num_peers, dtype=bool)
        topo._degree = np.bincount(keys // num_peers, minlength=num_peers).astype(np.int64)
        topo._start = np.cumsum(topo._degree) - topo._degree
        topo._room = topo._degree.copy()
        topo._edges = np.remainder(keys, num_peers, out=keys)
        topo._end = int(keys.size)
        topo._num_peers = num_peers
        topo._edge_count = int(keys.size) // 2
        return topo

    # ------------------------------------------------------------------ peers

    def add_peer(self, peer_id: int) -> None:
        """Add an isolated peer (no-op if already present).

        Raises ValueError for a negative id: ids index the peer arrays.
        """
        peer_id = int(peer_id)
        if peer_id < 0:
            raise ValueError(f"peer ids must be non-negative, got {peer_id}")
        self.mutations += 1
        if peer_id >= self._alive.size:
            pad = max(peer_id + 1 - self._alive.size, self._alive.size)
            for name in ("_alive", "_start", "_degree", "_room"):
                array = getattr(self, name)
                setattr(self, name, np.concatenate([array, np.zeros(pad, array.dtype)]))
        if not self._alive[peer_id]:
            self._alive[peer_id] = True
            self._num_peers += 1

    def remove_peer(self, peer_id: int) -> List[int]:
        """Remove a peer and all its edges; return its former neighbours."""
        peer_id = self._checked(peer_id)
        self.mutations += 1
        former = np.sort(self._segment(peer_id))
        self._drop(former, np.full(former.size, peer_id))
        self._alive[peer_id] = False
        self._degree[peer_id] = self._room[peer_id] = 0
        self._num_peers -= 1
        self._edge_count -= former.size
        return former.tolist()

    def has_peer(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is currently in the overlay."""
        peer_id = int(peer_id)
        return 0 <= peer_id < self._alive.size and bool(self._alive[peer_id])

    def peers(self) -> List[int]:
        """Sorted list of current peer ids."""
        return np.flatnonzero(self._alive).tolist()

    @property
    def num_peers(self) -> int:
        """Number of peers currently in the overlay."""
        return self._num_peers

    @property
    def num_edges(self) -> int:
        """Number of undirected edges currently in the overlay."""
        return self._edge_count

    def _checked(self, peer_id: int) -> int:
        """``peer_id`` as an int; raises KeyError if it is not in the overlay."""
        if not self.has_peer(peer_id):
            raise KeyError(f"peer {peer_id} is not in the overlay")
        return int(peer_id)

    # ------------------------------------------------------------------ edges

    def add_edge(self, u: int, v: int) -> bool:
        """Connect peers ``u`` and ``v``; returns False if the edge already existed."""
        return self.connect(u, [v]) == 1

    def connect(self, peer_id: int, others: Sequence[int]) -> int:
        """Connect ``peer_id`` to each of the distinct peers ``others``.

        Returns the number of edges added: those already present are
        skipped.  Every owner, ``peer_id`` and each new neighbour, gets
        its entries in one array pass: the full segments move to the
        buffer's end together, each with room for at least twice its
        old degree, after one compaction if the buffer cannot hold them.
        """
        peer_id = int(peer_id)
        self.mutations += 1
        others = np.asarray(others, dtype=np.int64).ravel()
        owners = np.empty(others.size + 1, dtype=np.int64)
        owners[0], owners[1:] = peer_id, others
        ascending = np.sort(owners)
        if (ascending[1:] == ascending[:-1]).any():
            if peer_id in others:
                raise ValueError("self-loops are not allowed in the overlay")
            raise ValueError("the peers to connect must be distinct")
        if ascending[0] < 0 or ascending[-1] >= self._alive.size or not self._alive[owners].all():
            raise KeyError(f"both endpoints must be in the overlay (got {peer_id}, {others})")
        if self._degree[peer_id]:
            linked = (others[:, None] == self._segment(peer_id)).any(axis=1)
            if linked.any():
                others = others[~linked]
                owners = np.concatenate([owners[:1], others])
        if not others.size:
            return 0
        added = np.ones(owners.size, dtype=np.int64)
        added[0] = others.size
        degrees = self._degree[owners]
        need = degrees + added
        full = need > self._room[owners]
        if full.any():
            room = np.maximum(np.maximum(2 * degrees, need), 4)
            if self._end + int(room[full].sum()) > self._edges.size:
                # A compacted segment has no room to spare: every owner moves.
                self._compact(int(room.sum()))
                full[:] = True
            moving, moved, lengths = owners[full], room[full], degrees[full]
            starts = self._end + np.cumsum(moved) - moved
            old_starts = self._start[moving]
            source = segments(old_starts, lengths)
            self._edges[source + np.repeat(starts - old_starts, lengths)] = self._edges[source]
            self._start[moving], self._room[moving] = starts, moved
            self._end += int(moved.sum())
        tails = self._start[owners] + degrees
        self._edges[tails[0] : tails[0] + others.size] = others
        self._edges[tails[1:]] = peer_id
        self._degree[owners] = need
        self._edge_count += int(others.size)
        return int(others.size)

    def remove_edge(self, u: int, v: int) -> None:
        """Disconnect peers ``u`` and ``v`` (raises KeyError if not connected)."""
        u, v = int(u), int(v)
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) is not in the overlay")
        self._drop(np.array([u, v]), np.array([v, u]))
        self._edge_count -= 1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether peers ``u`` and ``v`` are neighbours."""
        return self.has_peer(u) and int(v) in self._segment(int(u))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(min, max)`` tuples, sorted."""
        for u in self.peers():
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def _segment(self, peer_id: int) -> np.ndarray:
        start = int(self._start[peer_id])
        return self._edges[start : start + int(self._degree[peer_id])]

    def _drop(self, owners: np.ndarray, entries: np.ndarray) -> None:
        """Remove ``entries[i]`` from the segment of ``owners[i]`` (owners distinct).

        Each entry is overwritten by its segment's last entry.
        """
        self.mutations += 1
        starts, degrees = self._start[owners], self._degree[owners]
        slots = segments(starts, degrees)
        found = slots[self._edges[slots] == np.repeat(entries, degrees)]
        self._edges[found] = self._edges[starts + degrees - 1]
        self._degree[owners] -= 1

    def _compact(self, extra: int) -> None:
        """Pack the live segments, without room to spare, leaving ``extra`` entries free.

        The buffer keeps its size while at most half of it would be
        live, and otherwise at least doubles, so it stays within four
        times the live entries (plus ``extra``) of its last growth.
        """
        peers = np.flatnonzero(self._alive)
        degrees = self._degree[peers]
        live = segments(self._start[peers], degrees)
        capacity = self._edges.size
        if 2 * (live.size + extra) > capacity:
            capacity = max(2 * capacity, 2 * (live.size + extra))
        edges = np.zeros(capacity, dtype=np.int64)
        edges[: live.size] = self._edges[live]
        self._edges = edges
        self._start[peers] = np.cumsum(degrees) - degrees
        self._room[peers] = degrees
        self._end = int(live.size)

    # ------------------------------------------------------------------ neighbour queries

    def neighbors(self, peer_id: int) -> Tuple[int, ...]:
        """Neighbour ids of ``peer_id``, ascending.

        The order is part of the contract: routing rows, churn refreshes
        and price draws follow it, so it must not depend on the order
        edits left a segment in.
        """
        return tuple(sorted(self._segment(self._checked(peer_id)).tolist()))

    def degree(self, peer_id: int) -> int:
        """Number of neighbours of ``peer_id``."""
        return int(self._degree[self._checked(peer_id)])

    def peer_degrees(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ascending ids of the current peers and their degrees, as int64 arrays."""
        peers = np.flatnonzero(self._alive)
        return peers, self._degree[peers]

    def mean_degree(self) -> float:
        """Average degree over current peers (0.0 for an empty overlay)."""
        if not self._num_peers:
            return 0.0
        return 2.0 * self._edge_count / self._num_peers

    def neighbor_rows(self, peer_ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Degrees and concatenated neighbour ids of ``peer_ids``, in one gather.

        Each row is in segment order, which is arbitrary: callers
        key-sort the rows before their order can matter.
        """
        ids = np.asarray(peer_ids, dtype=np.int64)
        outside = (ids < 0) | (ids >= self._alive.size)
        if outside.any() or not self._alive[ids].all():
            raise KeyError("every peer must be in the overlay")
        degrees = self._degree[ids]
        return degrees, self._edges[segments(self._start[ids], degrees)]

    # ------------------------------------------------------------------ structure metrics

    def is_connected(self) -> bool:
        """Whether the overlay is a single connected component (False when empty)."""
        return len(self.connected_components()) == 1

    def connected_components(self) -> List[List[int]]:
        """Connected components as ascending peer-id lists, in a canonical order.

        Components are ordered by size, largest first, and equal sizes by
        their smallest peer id, so the result depends only on the graph,
        never on the order peers and edges were inserted in.
        """
        if not self._num_peers:
            return []
        peers = np.flatnonzero(self._alive)
        degrees, neighbor_ids = self.neighbor_rows(peers)
        position = np.zeros(self._alive.size, dtype=np.int64)
        position[peers] = np.arange(peers.size)
        label = component_labels(degrees, position[neighbor_ids])
        sizes = np.bincount(label, minlength=peers.size)
        roots = np.flatnonzero(sizes)
        # A stable sort by label lists each component's ids ascending, and
        # components by smallest id; a stable sort by size keeps that order
        # among equal sizes.
        members = np.split(
            peers[np.argsort(label, kind="stable")], np.cumsum(sizes[roots])[:-1]
        )
        return [members[i].tolist() for i in np.argsort(-sizes[roots], kind="stable")]

    # ------------------------------------------------------------------ dunder

    def __contains__(self, peer_id: int) -> bool:
        return self.has_peer(peer_id)

    def __len__(self) -> int:
        return self.num_peers

    def __repr__(self) -> str:
        return f"OverlayTopology(num_peers={self.num_peers}, num_edges={self.num_edges})"
