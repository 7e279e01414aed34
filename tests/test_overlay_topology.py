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

    def test_empty_overlay(self):
        topo = OverlayTopology.from_edges(0, [])
        assert topo.num_peers == topo.num_edges == 0
        assert topo.peers() == [] and list(topo.edges()) == []
        assert topo.connected_components() == []


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

    def test_negative_ids_are_rejected(self):
        # An id-indexed array would wrap -1 onto the last peer.
        topo = triangle()
        with pytest.raises(ValueError, match="non-negative"):
            topo.add_peer(-1)
        assert topo.num_peers == 3
        assert not topo.has_peer(-1)
        assert -1 not in topo
        with pytest.raises(KeyError):
            topo.neighbors(-1)
        with pytest.raises(KeyError):
            topo.add_edge(0, -1)


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


class TestConnect:
    """``connect`` wires a peer's neighbours in one call, as one ``add_edge`` per edge would."""

    def test_adds_new_edges_and_skips_present_ones(self):
        topo = OverlayTopology.from_edges(5, [(0, 1)])
        assert topo.connect(0, [2, 1, 3]) == 2
        assert topo.neighbors(0) == (1, 2, 3)
        assert topo.neighbors(2) == topo.neighbors(3) == (0,)
        assert topo.num_edges == 3
        assert topo.connect(0, []) == topo.connect(0, np.array([1, 3])) == 0
        assert topo.connect(4, np.array([0, 2])) == 2
        assert topo.neighbors(0) == (1, 2, 3, 4) and topo.num_edges == 5

    @pytest.mark.parametrize(
        "peer, others, error",
        [
            (0, [2, 0], ValueError),
            (0, [2, 2], ValueError),
            (0, [2, 9], KeyError),
            (0, [-1], KeyError),
            (9, [1], KeyError),
        ],
    )
    def test_rejects_bad_requests_before_any_edit(self, peer, others, error):
        topo = OverlayTopology.from_edges(4, [(0, 1)])
        with pytest.raises(error):
            topo.connect(peer, others)
        assert topo.num_edges == 1 and topo.neighbors(2) == ()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_one_add_edge_at_a_time_through_churn(self, seed):
        # Both overlays start with an empty edge buffer, so compaction
        # fires inside `connect` from the first call on and again as
        # joins fill the buffer; leaves leave holes for it to pack.
        rng = np.random.default_rng(seed)
        bulk, single = OverlayTopology(range(30)), OverlayTopology(range(30))
        edges, next_id, compactions = set(), 30, 0
        for _ in range(80):
            for peer in rng.choice(bulk.peers(), size=rng.integers(0, 3), replace=False).tolist():
                assert bulk.remove_peer(peer) == single.remove_peer(peer)
                edges = {edge for edge in edges if peer not in edge}
            for _ in range(int(rng.integers(1, 4))):
                peers = bulk.peers()
                if rng.random() < 0.7:
                    peer, next_id = next_id, next_id + 1
                    bulk.add_peer(peer)
                    single.add_peer(peer)
                else:
                    # An existing peer: some of the drawn edges are present.
                    peer = peers[int(rng.integers(len(peers)))]
                candidates = [other for other in peers if other != peer]
                count = min(len(candidates), int(rng.integers(0, 12)))
                others = rng.choice(candidates, size=count, replace=False)
                buffer = bulk._edges
                added = bulk.connect(peer, others)
                compactions += bulk._edges is not buffer
                assert added == sum(single.add_edge(peer, other) for other in others.tolist())
                edges |= {(min(peer, other), max(peer, other)) for other in others.tolist()}
            peers = bulk.peers()
            assert peers == single.peers()
            assert bulk.num_edges == single.num_edges == len(edges)
            bulk_rows, single_rows = (
                {peer: sorted(row) for peer, row in _rows(topo).items()} for topo in (bulk, single)
            )
            assert bulk_rows == single_rows
            assert bulk.peer_degrees()[1].tolist() == single.peer_degrees()[1].tolist()
            assert list(bulk.edges()) == sorted(edges)
        assert compactions >= 3


class TestQueries:
    def test_neighbors_and_degree(self):
        topo = triangle()
        assert topo.neighbors(0) == (1, 2)
        assert topo.degree(0) == 2
        ids, degrees = topo.peer_degrees()
        assert ids.tolist() == [0, 1, 2] and degrees.tolist() == [2, 2, 2]
        assert ids.dtype == degrees.dtype == np.int64

    def test_neighbors_ascend_whatever_the_segment_order(self):
        # Peer 0's segment holds 8 before 1, and removing 8 moves 5 into
        # its place: neighbours still come back sorted.
        topo = OverlayTopology.from_edges(9, [(0, 8), (0, 1), (0, 5)])
        assert topo.neighbors(0) == (1, 5, 8)
        topo.remove_edge(0, 8)
        topo.add_edge(0, 3)
        assert topo.neighbors(0) == (1, 3, 5)
        assert sorted(topo.neighbor_rows([0])[1].tolist()) == [1, 3, 5]

    def test_neighbors_missing_peer_raises(self):
        with pytest.raises(KeyError):
            triangle().neighbors(99)

    def test_mean_degree(self):
        assert triangle().mean_degree() == pytest.approx(2.0)
        assert OverlayTopology().mean_degree() == 0.0


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

    def test_connected_components_of_a_path_longer_than_the_search(self):
        # The breadth-first search stops after 32 levels; label propagation
        # must finish both ends of a 500-peer path and the other components.
        order = np.random.default_rng(5).permutation(600).tolist()
        edges = list(zip(order[:499], order[1:500])) + [(order[550], order[551])]
        topo = OverlayTopology.from_edges(600, edges)
        components = topo.connected_components()
        assert [len(component) for component in components[:2]] == [500, 2]
        assert components == _breadth_first_components(topo)

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


class TestNeighborRows:
    def test_rows_follow_the_requested_peers(self):
        topo = OverlayTopology.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        degrees, ids = topo.neighbor_rows([4, 0, 5])
        assert degrees.dtype == ids.dtype == np.int64
        assert degrees.tolist() == [2, 2, 1]
        rows = np.split(ids, np.cumsum(degrees)[:-1])
        assert [sorted(row.tolist()) for row in rows] == [[3, 5], [1, 2], [4]]

    def test_isolated_peers_have_empty_rows(self):
        topo = OverlayTopology.from_edges(3, [(0, 1)])
        degrees, ids = topo.neighbor_rows([2, 0])
        assert degrees.tolist() == [0, 1] and ids.tolist() == [1]
        degrees, ids = topo.neighbor_rows([])
        assert degrees.size == ids.size == 0

    def test_missing_peers_raise(self):
        topo = triangle()
        topo.remove_peer(1)
        for missing in ([0, 1], [5], [-1]):
            with pytest.raises(KeyError):
                topo.neighbor_rows(missing)


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


def _rows(topo):
    """Every current peer's row from one :meth:`neighbor_rows` gather, by id."""
    peers = topo.peers()
    degrees, ids = topo.neighbor_rows(peers)
    assert degrees.dtype == ids.dtype == np.int64
    return dict(zip(peers, (row.tolist() for row in np.split(ids, np.cumsum(degrees)[:-1]))))


@pytest.mark.parametrize("kind", sorted(GENERATED_TOPOLOGIES))
class TestNeighborRowsAcrossGenerators:
    """Adjacency invariants on every generator family, not just hand-built graphs."""

    def test_rows_are_the_neighbours(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        rows = _rows(topo)
        assert len(rows) == topo.num_peers
        for peer, row in rows.items():
            assert sorted(row) == list(topo.neighbors(peer))
            assert len(set(row)) == len(row)

    def test_symmetric_without_self_loops(self, kind):
        rows = _rows(GENERATED_TOPOLOGIES[kind]())
        entries = {(peer, other) for peer, row in rows.items() for other in row}
        assert all(peer != other for peer, other in entries)
        assert all((other, peer) in entries for peer, other in entries)

    def test_row_lengths_are_degrees(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        rows = _rows(topo)
        assert [len(row) for row in rows.values()] == [topo.degree(p) for p in rows]
        assert topo.peer_degrees()[1].tolist() == [len(row) for row in rows.values()]
        assert sum(map(len, rows.values())) == 2 * topo.num_edges
        assert list(topo.edges()) == sorted(
            (peer, other) for peer, row in rows.items() for other in row if peer < other
        )

    def test_permuted_request_reorders_whole_rows(self, kind):
        # A gather in any peer order returns each peer's own row, entry for
        # entry: the request order moves rows, never their contents.
        topo = GENERATED_TOPOLOGIES[kind]()
        peers = topo.peers()
        order = [peers[i] for i in np.random.default_rng(0).permutation(len(peers))]
        default_rows = _rows(topo)
        degrees, ids = topo.neighbor_rows(order)
        assert degrees.tolist() == [len(default_rows[peer]) for peer in order]
        assert ids.tolist() == [other for peer in order for other in default_rows[peer]]

    def test_partial_request_matches_the_dense_submatrix(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        order = topo.peers()[::2]
        position = {peer: index for index, peer in enumerate(order)}
        degrees, ids = topo.neighbor_rows(order)
        assert degrees.tolist() == [topo.degree(peer) for peer in order]
        gathered = np.zeros((len(order), len(order)), dtype=int)
        for row, neighbours in enumerate(np.split(ids, np.cumsum(degrees)[:-1])):
            for other in neighbours.tolist():
                if other in position:
                    gathered[row, position[other]] += 1
        dense = np.zeros_like(gathered)
        for u, v in topo.edges():
            if u in position and v in position:
                dense[position[u], position[v]] = dense[position[v], position[u]] = 1
        np.testing.assert_array_equal(gathered, dense)

    def test_components_match_breadth_first_search(self, kind):
        topo = GENERATED_TOPOLOGIES[kind]()
        for peer in topo.peers()[1::3]:
            topo.remove_peer(peer)
        assert topo.connected_components() == _breadth_first_components(topo)

    def test_rows_survive_compaction(self, kind):
        # Departures leave holes in the buffer; newcomers wired to the
        # survivors fill segments until one gather packs it.  Every row
        # must then equal a rebuild that adds the live edges one by one.
        topo = GENERATED_TOPOLOGIES[kind]()
        edges = set(topo.edges())
        for peer in topo.peers()[1::4]:
            topo.remove_peer(peer)
            edges = {edge for edge in edges if peer not in edge}
        survivors = topo.peers()
        buffer, newcomer = topo._edges, max(survivors) + 1
        while topo._edges is buffer:
            topo.add_peer(newcomer)
            for neighbor in survivors[newcomer % 5 :: 7]:
                topo.add_edge(newcomer, neighbor)
                edges.add((neighbor, newcomer))
            newcomer += 1
        assert topo._end <= topo._edges.size
        rebuilt = OverlayTopology(topo.peers())
        for edge in sorted(edges):
            rebuilt.add_edge(*edge)
        assert topo.num_edges == rebuilt.num_edges == len(edges)
        for peer, row in _rows(topo).items():
            assert sorted(row) == list(rebuilt.neighbors(peer))
        assert list(topo.edges()) == sorted(edges)
        assert topo.connected_components() == _breadth_first_components(rebuilt)

    def test_reflects_membership_edits(self, kind):
        # Churn removes peers and wires new ids beyond the initial range;
        # the rows must track the live overlay, not the generated one.
        topo = GENERATED_TOPOLOGIES[kind]()
        departed = topo.peers()[1::5]
        for peer in departed:
            topo.remove_peer(peer)
        newcomer = max(topo.peers()) + 1000
        topo.add_peer(newcomer)
        first = topo.peers()[:3]
        for neighbor in first:
            topo.add_edge(newcomer, neighbor)
        rows = _rows(topo)
        assert len(rows) == topo.num_peers
        assert not set(departed) & set(rows)
        assert sorted(rows[newcomer]) == first
        for peer, row in rows.items():
            assert sorted(row) == list(topo.neighbors(peer))
            assert not set(departed) & set(row)
        assert topo.connected_components() == _breadth_first_components(topo)


class TestEdgeBuffer:
    def test_rows_survive_compaction(self):
        # Random joins, leaves and edge edits leave holes in the buffer;
        # after each gather every row must still equal a rebuild that adds
        # the live edges one by one.
        rng = np.random.default_rng(7)
        topo = generators.scale_free_topology(120, mean_degree=6.0, seed=7)
        edges = set(topo.edges())
        next_id, gathers = 120, 0
        while gathers < 4:
            buffer = topo._edges
            peers = topo.peers()
            u, v = (int(peer) for peer in rng.choice(peers, size=2, replace=False))
            action = rng.random()
            if action < 0.1:
                topo.remove_peer(u)
                edges = {edge for edge in edges if u not in edge}
            elif action < 0.2:
                topo.add_peer(next_id)
                for neighbor in rng.choice(peers, size=3, replace=False).tolist():
                    topo.add_edge(next_id, neighbor)
                    edges.add((neighbor, next_id))
                next_id += 1
            elif (min(u, v), max(u, v)) in edges:
                topo.remove_edge(u, v)
                edges.discard((min(u, v), max(u, v)))
            else:
                topo.add_edge(v, u)
                edges.add((min(u, v), max(u, v)))
            if topo._edges is not buffer:
                gathers += 1
                rebuilt = OverlayTopology(topo.peers())
                for edge in sorted(edges):
                    rebuilt.add_edge(*edge)
                assert topo.num_edges == rebuilt.num_edges == len(edges)
                for peer in topo.peers():
                    assert topo.neighbors(peer) == rebuilt.neighbors(peer)
                assert list(topo.edges()) == sorted(edges)
