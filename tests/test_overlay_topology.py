"""Tests for the mutable overlay topology."""

import numpy as np
import pytest

from repro.overlay import OverlayTopology, generators


def triangle():
    return OverlayTopology.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_from_edges(self):
        topo = OverlayTopology.from_edges(4, [(0, 1), (2, 3)])
        assert topo.num_peers == 4
        assert topo.num_edges == 2

    def test_copy_is_independent(self):
        topo = triangle()
        clone = topo.copy()
        clone.remove_edge(0, 1)
        assert topo.has_edge(0, 1)
        assert not clone.has_edge(0, 1)


class TestPeers:
    def test_add_peer_idempotent(self):
        topo = OverlayTopology()
        topo.add_peer(1)
        topo.add_peer(1)
        assert topo.num_peers == 1

    def test_remove_peer_returns_neighbors_and_cleans_edges(self):
        topo = triangle()
        former = topo.remove_peer(1)
        assert former == [0, 2]
        assert topo.num_peers == 2
        assert topo.num_edges == 1
        assert not topo.has_peer(1)

    def test_remove_missing_peer_raises(self):
        with pytest.raises(KeyError):
            OverlayTopology().remove_peer(5)

    def test_contains_and_len(self):
        topo = triangle()
        assert 0 in topo
        assert 9 not in topo
        assert len(topo) == 3


class TestEdges:
    def test_add_edge_rejects_self_loop(self):
        topo = OverlayTopology([0])
        with pytest.raises(ValueError):
            topo.add_edge(0, 0)

    def test_add_edge_requires_both_endpoints(self):
        topo = OverlayTopology([0])
        with pytest.raises(KeyError):
            topo.add_edge(0, 1)

    def test_duplicate_edge_returns_false(self):
        topo = OverlayTopology([0, 1])
        assert topo.add_edge(0, 1) is True
        assert topo.add_edge(1, 0) is False
        assert topo.num_edges == 1

    def test_remove_edge(self):
        topo = triangle()
        topo.remove_edge(0, 1)
        assert not topo.has_edge(0, 1)
        assert topo.num_edges == 2

    def test_remove_missing_edge_raises(self):
        topo = OverlayTopology([0, 1])
        with pytest.raises(KeyError):
            topo.remove_edge(0, 1)

    def test_edges_sorted_canonical(self):
        topo = OverlayTopology.from_edges(4, [(3, 2), (1, 0)])
        assert list(topo.edges()) == [(0, 1), (2, 3)]


class TestQueries:
    def test_neighbors_and_degree(self):
        topo = triangle()
        assert topo.neighbors(0) == (1, 2)
        assert topo.degree(0) == 2
        assert topo.degrees() == {0: 2, 1: 2, 2: 2}

    def test_neighbors_ascend_whatever_the_set_order(self):
        # On CPython a set of {1, 8} iterates 8 first (8 lands in bucket
        # 0), so this pins that neighbours come back sorted, not in set order.
        topo = OverlayTopology.from_edges(9, [(0, 8), (0, 1)])
        assert topo.neighbors(0) == (1, 8)

    def test_neighbors_missing_peer_raises(self):
        with pytest.raises(KeyError):
            triangle().neighbors(99)

    def test_mean_degree(self):
        assert triangle().mean_degree() == pytest.approx(2.0)
        assert OverlayTopology().mean_degree() == 0.0

    def test_isolated_peers(self):
        topo = OverlayTopology([0, 1, 2])
        topo.add_edge(0, 1)
        assert topo.isolated_peers() == [2]

    def test_degree_histogram(self):
        topo = OverlayTopology.from_edges(3, [(0, 1)])
        assert topo.degree_histogram() == {1: 2, 0: 1}


class TestStructure:
    def test_is_connected(self):
        assert triangle().is_connected()
        disconnected = OverlayTopology.from_edges(4, [(0, 1)])
        assert not disconnected.is_connected()
        assert not OverlayTopology().is_connected()

    def test_connected_components_sorted_by_size(self):
        topo = OverlayTopology.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert topo.connected_components() == [[0, 1, 2], [3, 4]]

    #: Equal sizes tie-break on the smallest id.  Under insertion order 2
    #: below, CPython's set of peers iterates 33 before 2, so a search
    #: seeded in set order listed [33, 40] before [2, 11].
    COMPONENT_PEERS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 33, 40, 6]
    COMPONENT_EDGES = [(2, 11), (33, 40), (8, 9), (9, 3), (3, 1), (12, 4), (4, 5), (5, 7)]
    COMPONENTS = [[1, 3, 8, 9], [4, 5, 7, 12], [2, 11], [33, 40], [0], [6]]

    @pytest.mark.parametrize("seed", range(4))
    def test_connected_components_ignore_insertion_order(self, seed):
        rng = np.random.default_rng(seed)
        peers = list(self.COMPONENT_PEERS)
        edges = list(self.COMPONENT_EDGES)
        if seed:
            peers = [peers[i] for i in rng.permutation(len(peers))]
            edges = [edges[i][:: rng.choice([1, -1])] for i in rng.permutation(len(edges))]
        topo = OverlayTopology(peers)
        for u, v in edges:
            topo.add_edge(u, v)
        assert topo.connected_components() == self.COMPONENTS
        assert not topo.is_connected()

    @pytest.mark.parametrize("seed", range(6))
    def test_connected_components_match_breadth_first_search(self, seed):
        # Gapped ids, a long path through a shuffled subset (many labelling
        # rounds) and sparse random edges (many components).
        rng = np.random.default_rng(seed)
        ids = rng.permutation(3000)[:300].tolist()
        path = [ids[i] for i in rng.permutation(300)[: 100 + 40 * seed]]
        topo = OverlayTopology(ids)
        for u, v in zip(path, path[1:]):
            topo.add_edge(u, v)
        for _ in range(60 + 20 * seed):
            u, v = rng.choice(ids, size=2, replace=False)
            topo.add_edge(int(u), int(v))
        assert topo.connected_components() == _breadth_first_components(topo)

    def test_connected_components_of_a_churned_id_space(self):
        # Gapped ids from leaves and joins label like any other.
        topo = OverlayTopology.from_edges(6, [(0, 1), (2, 3), (4, 5), (1, 5)])
        topo.remove_peer(0)
        topo.add_peer(40)
        topo.add_edge(40, 2)
        assert topo.connected_components() == [[1, 4, 5], [2, 3, 40]]
        topo.add_edge(40, 5)
        assert topo.is_connected()
        assert OverlayTopology([7]).is_connected()

    def test_adjacency_matrix_symmetric(self):
        topo = triangle()
        matrix = topo.adjacency_matrix()
        np.testing.assert_array_equal(matrix, matrix.T)
        assert matrix.sum() == 6  # 3 undirected edges

    def test_adjacency_matrix_custom_order(self):
        topo = OverlayTopology.from_edges(3, [(0, 2)])
        matrix = topo.adjacency_matrix(order=[2, 0, 1])
        assert matrix[0, 1] == 1.0
        assert matrix[1, 0] == 1.0
        assert matrix[2].sum() == 0.0


class TestBulkConstruction:
    def test_from_edge_arrays_matches_from_edges(self):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 50, size=300)
        dst = rng.integers(0, 50, size=300)
        bulk = OverlayTopology.from_edge_arrays(50, src, dst)
        undirected = {
            (min(int(u), int(v)), max(int(u), int(v)))
            for u, v in zip(src, dst)
            if u != v
        }
        reference = OverlayTopology.from_edges(50, sorted(undirected))
        assert bulk.num_peers == reference.num_peers
        assert bulk.num_edges == reference.num_edges
        for peer in range(50):
            assert bulk.neighbors(peer) == reference.neighbors(peer)

    def test_from_edge_arrays_drops_self_loops_and_duplicates(self):
        topo = OverlayTopology.from_edge_arrays(
            4, np.array([0, 0, 1, 2, 3]), np.array([1, 1, 0, 2, 0])
        )
        assert topo.num_edges == 2  # {0,1} once, {2,2} dropped, {3,0} kept
        assert topo.neighbors(0) == (1, 3)
        assert topo.neighbors(2) == ()

    def test_from_edge_arrays_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="endpoints"):
            OverlayTopology.from_edge_arrays(3, np.array([0]), np.array([3]))
        with pytest.raises(ValueError, match="length"):
            OverlayTopology.from_edge_arrays(3, np.array([0, 1]), np.array([2]))

    def test_from_edge_arrays_empty(self):
        topo = OverlayTopology.from_edge_arrays(5, np.array([]), np.array([]))
        assert topo.num_peers == 5
        assert topo.num_edges == 0


class TestCsrAdjacency:
    def test_matches_dense_adjacency(self):
        topo = OverlayTopology.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        row_start, col_indices = topo.csr_adjacency()
        dense = topo.adjacency_matrix()
        assert row_start.dtype == np.int64 and col_indices.dtype == np.int64
        assert row_start[0] == 0 and row_start[-1] == col_indices.size == 2 * topo.num_edges
        for row in range(6):
            cols = col_indices[row_start[row] : row_start[row + 1]]
            assert list(cols) == sorted(cols)  # ascending within each row
            np.testing.assert_array_equal(np.flatnonzero(dense[row]), cols)

    def test_respects_custom_order_and_ignores_outsiders(self):
        topo = OverlayTopology.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        order = [3, 1, 2]  # peer 2's neighbours 1 and 3 -> positions 1 and 0
        row_start, col_indices = topo.csr_adjacency(order)
        dense = topo.adjacency_matrix(order)
        for row in range(len(order)):
            cols = col_indices[row_start[row] : row_start[row + 1]]
            np.testing.assert_array_equal(np.flatnonzero(dense[row]), cols)

    def test_isolated_peers_have_empty_rows(self):
        topo = OverlayTopology.from_edges(3, [(0, 1)])
        row_start, col_indices = topo.csr_adjacency()
        assert row_start[2] == row_start[3]  # peer 2 has no neighbours
        assert col_indices.size == 2


def _breadth_first_components(topo):
    """Plain breadth-first search: the reference for the array labelling."""
    seen, components = set(), []
    for start in topo.peers():
        if start in seen:
            continue
        seen.add(start)
        component, frontier = [start], [start]
        while frontier:
            for neighbor in topo.neighbors(frontier.pop()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.append(neighbor)
                    frontier.append(neighbor)
        components.append(sorted(component))
    return sorted(components, key=lambda component: (-len(component), component[0]))


def _circulant_topology(num_peers, half_degree):
    # Peer i links to i±1 .. i±half_degree: every peer sees the same neighbourhood.
    edges = [
        (peer, (peer + step) % num_peers)
        for peer in range(num_peers)
        for step in range(1, half_degree + 1)
    ]
    return OverlayTopology.from_edges(num_peers, edges)


#: Every overlay family the simulators are built on, at small sizes.  The
#: sparse scale-free overlays leave many components for the patch to join.
GENERATED_TOPOLOGIES = {
    "scale-free-200-s1": lambda: generators.scale_free_topology(200, mean_degree=8.0, seed=1),
    "scale-free-200-s2": lambda: generators.scale_free_topology(200, mean_degree=8.0, seed=2),
    "scale-free-500-s3": lambda: generators.scale_free_topology(500, mean_degree=12.0, seed=3),
    "scale-free-150-s4": lambda: generators.scale_free_topology(150, mean_degree=6.0, seed=4),
    "scale-free-300-s5": lambda: generators.scale_free_topology(300, mean_degree=6.0, seed=5),
    "scale-free-sparse-120-s6": lambda: generators.scale_free_topology(
        120, mean_degree=2.0, min_degree=1, seed=6
    ),
    "scale-free-sparse-60-s8": lambda: generators.scale_free_topology(
        60, mean_degree=1.5, min_degree=1, seed=8
    ),
    "circulant-100-6": lambda: _circulant_topology(100, 3),
    "circulant-120-10": lambda: _circulant_topology(120, 5),
    "ring-50": lambda: generators.ring_topology(50),
    "complete-12": lambda: generators.complete_topology(12),
}


def _csr_rows(row_start, col_indices):
    return [
        col_indices[row_start[row] : row_start[row + 1]].tolist()
        for row in range(row_start.size - 1)
    ]


@pytest.mark.parametrize("kind", sorted(GENERATED_TOPOLOGIES))
class TestCsrAdjacencyAcrossGenerators:
    """CSR invariants on every generator family, not just hand-built graphs."""

    def test_rows_are_sorted_neighbour_positions(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        order = topo.peers()
        position = {peer: index for index, peer in enumerate(order)}
        rows = _csr_rows(*topo.csr_adjacency())
        assert len(rows) == topo.num_peers
        for peer, row in zip(order, rows):
            assert row == sorted(position[neighbor] for neighbor in topo.neighbors(peer))

    def test_symmetric_without_self_loops(self, kind):
        rows = _csr_rows(*GENERATED_TOPOLOGIES[kind]().csr_adjacency())
        entries = {(row, col) for row, cols in enumerate(rows) for col in cols}
        assert all(row != col for row, col in entries)
        assert all((col, row) in entries for row, col in entries)

    def test_row_lengths_are_degrees(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        row_start, col_indices = topo.csr_adjacency()
        assert row_start.dtype == np.int64 and col_indices.dtype == np.int64
        assert row_start.size == topo.num_peers + 1
        assert np.all(np.diff(row_start) >= 0)
        assert np.diff(row_start).tolist() == [topo.degree(peer) for peer in topo.peers()]
        assert int(row_start[-1]) == col_indices.size == 2 * topo.num_edges

    def test_permuted_order_relabels_rows(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        peers = topo.peers()
        order = [peers[i] for i in np.random.default_rng(0).permutation(len(peers))]
        default_rows = _csr_rows(*topo.csr_adjacency())
        permuted_rows = _csr_rows(*topo.csr_adjacency(order))
        position = {peer: index for index, peer in enumerate(order)}
        for index, peer in enumerate(order):
            expected = sorted(position[peers[col]] for col in default_rows[peers.index(peer)])
            assert permuted_rows[index] == expected

    def test_partial_order_matches_dense_submatrix(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        order = topo.peers()[::2]
        rows = _csr_rows(*topo.csr_adjacency(order))
        dense = topo.adjacency_matrix(order)
        assert [np.flatnonzero(dense[row]).tolist() for row in range(len(order))] == rows

    def test_components_match_breadth_first_search(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        for peer in topo.peers()[1::3]:
            topo.remove_peer(peer)
        assert topo.connected_components() == _breadth_first_components(topo)

    def test_reflects_membership_edits(self, kind):
        # Churn removes peers and wires new ids beyond the initial range;
        # the CSR view must track the live overlay, not the generated one.
        topo = GENERATED_TOPOLOGIES[kind]()
        departed = topo.peers()[1::5]
        for peer in departed:
            topo.remove_peer(peer)
        newcomer = max(topo.peers()) + 1000
        topo.add_peer(newcomer)
        for neighbor in topo.peers()[:3]:
            if neighbor != newcomer:
                topo.add_edge(newcomer, neighbor)
        order = topo.peers()
        position = {peer: index for index, peer in enumerate(order)}
        rows = _csr_rows(*topo.csr_adjacency())
        assert len(rows) == topo.num_peers
        assert rows[position[newcomer]] == [0, 1, 2]
        for peer, row in zip(order, rows):
            assert row == sorted(position[neighbor] for neighbor in topo.neighbors(peer))
