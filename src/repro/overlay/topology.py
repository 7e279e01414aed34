"""Mutable overlay topology with neighbour tables and join/leave support.

The overlay keeps one Python set of neighbours per peer id.  Every query
that returns peers returns them in a canonical order, never in
set-iteration order: neighbours ascend, and connected components are
found by one array labelling and listed largest first, ties by smallest
id.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = ["OverlayTopology"]


class OverlayTopology:
    """An undirected P2P overlay graph with explicit neighbour tables.

    Peers are identified by integer ids.  The class wraps an adjacency-set
    representation so the hot paths used by the simulators — neighbour
    lookup, degree queries, join/leave — are dictionary operations.

    Examples
    --------
    >>> topo = OverlayTopology.from_edges(3, [(0, 1), (1, 2)])
    >>> topo.neighbors(1)
    (0, 2)
    >>> topo.degree(1)
    2
    """

    def __init__(self, peer_ids: Optional[Iterable[int]] = None) -> None:
        self._adjacency: Dict[int, Set[int]] = {}
        self._edge_count = 0
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
        duplicates (in either orientation) are dropped.  Unlike
        :meth:`from_edges`, the adjacency sets are materialised through
        array operations — one sort of the symmetrised edge list plus one
        C-level ``set()`` construction per peer — so million-peer overlays
        build in seconds instead of the minutes a per-edge Python loop
        takes.  The result is identical to feeding the same (deduplicated)
        edges through :meth:`from_edges`.
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
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        unique_keys = np.unique(lo * num_peers + hi)
        lo, hi = unique_keys // num_peers, unique_keys % num_peers
        topo = cls()
        topo._adjacency = {peer: set() for peer in range(num_peers)}
        endpoint = np.concatenate([lo, hi])
        other = np.concatenate([hi, lo])
        order = np.argsort(endpoint, kind="stable")
        endpoint, other = endpoint[order], other[order]
        boundaries = np.searchsorted(endpoint, np.arange(num_peers + 1))
        for peer in range(num_peers):
            start, end = int(boundaries[peer]), int(boundaries[peer + 1])
            if end > start:
                topo._adjacency[peer] = set(other[start:end].tolist())
        topo._edge_count = int(unique_keys.size)
        return topo

    def copy(self) -> "OverlayTopology":
        """Return a deep copy of the topology."""
        clone = OverlayTopology(self._adjacency)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    # ------------------------------------------------------------------ peers

    def add_peer(self, peer_id: int) -> None:
        """Add an isolated peer (no-op if already present)."""
        self._adjacency.setdefault(int(peer_id), set())

    def remove_peer(self, peer_id: int) -> List[int]:
        """Remove a peer and all its edges; return its former neighbours."""
        peer_id = int(peer_id)
        if peer_id not in self._adjacency:
            raise KeyError(f"peer {peer_id} is not in the overlay")
        former = sorted(self._adjacency[peer_id])
        for neighbor in former:
            self._adjacency[neighbor].discard(peer_id)
            self._edge_count -= 1
        del self._adjacency[peer_id]
        return former

    def has_peer(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is currently in the overlay."""
        return int(peer_id) in self._adjacency

    def peers(self) -> List[int]:
        """Sorted list of current peer ids."""
        return sorted(self._adjacency)

    @property
    def num_peers(self) -> int:
        """Number of peers currently in the overlay."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges currently in the overlay."""
        return self._edge_count

    # ------------------------------------------------------------------ edges

    def add_edge(self, u: int, v: int) -> bool:
        """Connect peers ``u`` and ``v``; returns False if the edge already existed."""
        u, v = int(u), int(v)
        if u == v:
            raise ValueError("self-loops are not allowed in the overlay")
        if u not in self._adjacency or v not in self._adjacency:
            raise KeyError(f"both endpoints must be in the overlay (got {u}, {v})")
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._edge_count += 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Disconnect peers ``u`` and ``v`` (raises KeyError if not connected)."""
        u, v = int(u), int(v)
        if u not in self._adjacency or v not in self._adjacency[u]:
            raise KeyError(f"edge ({u}, {v}) is not in the overlay")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._edge_count -= 1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether peers ``u`` and ``v`` are neighbours."""
        return int(v) in self._adjacency.get(int(u), set())

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges as ``(min, max)`` tuples, sorted."""
        for u in sorted(self._adjacency):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------ neighbour queries

    def neighbors(self, peer_id: int) -> Tuple[int, ...]:
        """Neighbour ids of ``peer_id``, ascending.

        The order is part of the contract: routing rows, churn refreshes
        and price draws follow it, so it must not depend on how the
        adjacency sets happen to iterate.
        """
        peer_id = int(peer_id)
        if peer_id not in self._adjacency:
            raise KeyError(f"peer {peer_id} is not in the overlay")
        return tuple(sorted(self._adjacency[peer_id]))

    def degree(self, peer_id: int) -> int:
        """Number of neighbours of ``peer_id``."""
        peer_id = int(peer_id)
        if peer_id not in self._adjacency:
            raise KeyError(f"peer {peer_id} is not in the overlay")
        return len(self._adjacency[peer_id])

    def degrees(self) -> Dict[int, int]:
        """Mapping of peer id to degree for every peer."""
        return {peer: len(neigh) for peer, neigh in self._adjacency.items()}

    def mean_degree(self) -> float:
        """Average degree over current peers (0.0 for an empty overlay)."""
        if not self._adjacency:
            return 0.0
        return 2.0 * self._edge_count / len(self._adjacency)

    def isolated_peers(self) -> List[int]:
        """Peers with no neighbours."""
        return sorted(p for p, neigh in self._adjacency.items() if not neigh)

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
        if not self._adjacency:
            return []
        peers = np.array(self.peers(), dtype=np.int64)
        degrees, neighbor_ids = self.neighbor_rows(peers.tolist())
        position = np.zeros(int(peers[-1]) + 1, dtype=np.int64)
        position[peers] = np.arange(peers.size)
        src = np.repeat(np.arange(peers.size), degrees)
        dst = position[neighbor_ids]
        keep = src < dst
        src, dst = src[keep], dst[keep]
        # Label propagation with pointer jumping: every label points at a
        # smaller or equal position, and each round hooks the larger root of
        # every edge whose ends disagree onto the smaller one.  It ends with
        # each position labelled by the smallest position of its component.
        label = np.arange(peers.size)
        while src.size:
            root_src, root_dst = label[src], label[dst]
            differ = root_src != root_dst
            src, dst = src[differ], dst[differ]
            root_src, root_dst = root_src[differ], root_dst[differ]
            np.minimum.at(
                label, np.maximum(root_src, root_dst), np.minimum(root_src, root_dst)
            )
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped
        sizes = np.bincount(label, minlength=peers.size)
        roots = np.flatnonzero(sizes)
        # A stable sort by label lists each component's ids ascending, and
        # components by smallest id; a stable sort by size keeps that order
        # among equal sizes.
        members = np.split(
            peers[np.argsort(label, kind="stable")], np.cumsum(sizes[roots])[:-1]
        )
        return [members[i].tolist() for i in np.argsort(-sizes[roots], kind="stable")]

    def degree_histogram(self) -> Dict[int, int]:
        """Return ``{degree: number of peers with that degree}``."""
        histogram: Dict[int, int] = {}
        for neighbors in self._adjacency.values():
            histogram[len(neighbors)] = histogram.get(len(neighbors), 0) + 1
        return histogram

    def adjacency_matrix(self, order: Optional[List[int]] = None) -> np.ndarray:
        """Dense 0/1 adjacency matrix in the given peer order (default: sorted ids)."""
        order = list(order) if order is not None else self.peers()
        index = {peer: i for i, peer in enumerate(order)}
        matrix = np.zeros((len(order), len(order)))
        for u, v in self.edges():
            if u in index and v in index:
                matrix[index[u], index[v]] = 1.0
                matrix[index[v], index[u]] = 1.0
        return matrix

    def neighbor_rows(self, peer_ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Degrees and concatenated neighbour ids of ``peer_ids``, read in one pass.

        Each row is in adjacency-set order, which is arbitrary: callers
        key-sort the rows before their order can matter.
        """
        sets = [self._adjacency[peer] for peer in peer_ids]
        degrees = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        ids = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(degrees.sum()))
        return degrees, ids

    def csr_adjacency(
        self, order: Optional[List[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat CSR adjacency: ``(row_start, col_indices)`` in the given peer order.

        Row ``r`` of the implied matrix lists the neighbours of
        ``order[r]`` as positions into ``order``, ascending:
        ``col_indices[row_start[r]:row_start[r+1]]``.  This is the
        segmented layout the million-peer simulator kernels consume —
        memory scales with the edge count (``2 × num_edges`` int64
        entries), never ``N × max_degree`` padding or the ``N²`` cells of
        :meth:`adjacency_matrix`.  Neighbours outside ``order`` are
        ignored, matching :meth:`adjacency_matrix`; every peer of ``order``
        must be in the overlay.
        """
        order = np.asarray(order if order is not None else self.peers(), dtype=np.int64)
        count = order.size
        degrees, neighbor_ids = self.neighbor_rows(order.tolist())
        # Map ids to positions in `order` through its sorted copy.
        by_id = np.argsort(order, kind="stable")
        found = np.minimum(np.searchsorted(order[by_id], neighbor_ids), max(count - 1, 0))
        keep = order[by_id[found]] == neighbor_ids
        rows = np.repeat(np.arange(count, dtype=np.int64), degrees)[keep]
        # One key sort of (row, column) orders every row at once.
        keys = np.sort(rows * count + by_id[found[keep]])
        row_start = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=count), out=row_start[1:])
        return row_start, keys % max(count, 1)

    # ------------------------------------------------------------------ dunder

    def __contains__(self, peer_id: int) -> bool:
        return self.has_peer(peer_id)

    def __len__(self) -> int:
        return self.num_peers

    def __repr__(self) -> str:
        return f"OverlayTopology(num_peers={self.num_peers}, num_edges={self.num_edges})"
