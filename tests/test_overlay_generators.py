"""Tests for overlay topology generators."""

from collections import Counter

import numpy as np
import pytest

from repro.overlay import complete_topology, ring_topology, scale_free_topology
from repro.overlay.generators import powerlaw_degree_sequence
from repro.overlay.topology import OverlayTopology
from repro.utils.rng import make_rng


class TestPowerlawDegreeSequence:
    def test_mean_degree_close_to_target(self):
        degrees = powerlaw_degree_sequence(500, shape=2.5, mean_degree=20.0, seed=1)
        assert abs(degrees.mean() - 20.0) < 4.0

    def test_even_total_degree(self):
        degrees = powerlaw_degree_sequence(101, seed=2)
        assert degrees.sum() % 2 == 0

    def test_min_degree_respected(self):
        degrees = powerlaw_degree_sequence(300, mean_degree=10.0, min_degree=3, seed=3)
        assert degrees.min() >= 3

    def test_heavy_tail_present(self):
        degrees = powerlaw_degree_sequence(1000, shape=2.5, mean_degree=20.0, seed=4)
        assert degrees.max() > 3 * degrees.mean()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(1)
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(100, mean_degree=200.0)
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(100, min_degree=0)


class TestScaleFree:
    def test_paper_parameters(self):
        topo = scale_free_topology(300, seed=5)
        assert topo.num_peers == 300
        assert topo.is_connected()
        assert 10.0 < topo.mean_degree() < 30.0

    def test_reproducible_with_seed(self):
        a = scale_free_topology(100, seed=6)
        b = scale_free_topology(100, seed=6)
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = scale_free_topology(100, seed=6)
        b = scale_free_topology(100, seed=7)
        assert list(a.edges()) != list(b.edges())

    def test_degree_distribution_is_skewed(self):
        topo = scale_free_topology(400, seed=8)
        degrees = topo.peer_degrees()[1]
        assert degrees.max() > 2.5 * degrees.mean()


def _paired_stubs(num_peers, seed, **degree_options):
    """Replay :func:`scale_free_topology`'s draws: degrees, then one stub shuffle.

    Returns the drawn degrees, the stub pairs, and the overlay those pairs
    leave once self-loops and multi-edges are dropped, before patching.
    """
    rng = make_rng(seed, "configuration-model")
    degrees = powerlaw_degree_sequence(num_peers, rng=rng, **degree_options)
    stubs = rng.permutation(np.repeat(np.arange(num_peers, dtype=np.int64), degrees))
    pairs = stubs.reshape(-1, 2).tolist()
    kept = OverlayTopology.from_edges(num_peers, [pair for pair in pairs if pair[0] != pair[1]])
    return degrees, pairs, kept


#: (num_peers, seed, degree options): the paper's parameters, and sparse
#: sequences whose pairing leaves many components to patch.
STUB_CASES = [
    (200, 1, {}),
    (1000, 2, {}),
    (300, 3, {"mean_degree": 2.5, "min_degree": 1}),
    (120, 4, {"mean_degree": 1.5, "min_degree": 1}),
]


@pytest.mark.parametrize("num_peers, seed, options", STUB_CASES)
class TestStubPairing:
    def test_degrees_are_drawn_minus_dropped_stubs_plus_patches(self, num_peers, seed, options):
        degrees, pairs, kept = _paired_stubs(num_peers, seed, **options)
        counts = Counter(tuple(sorted(pair)) for pair in pairs)
        dropped = np.zeros(num_peers, dtype=np.int64)
        for (u, v), times in counts.items():
            if u == v:
                dropped[u] += 2 * times  # a self-loop takes two of u's stubs
            else:
                dropped[u] += times - 1  # a multi-edge keeps one of its copies
                dropped[v] += times - 1
        assert [kept.degree(peer) for peer in range(num_peers)] == (degrees - dropped).tolist()

        topo = scale_free_topology(num_peers, seed=seed, **options)
        assert set(kept.edges()) <= set(topo.edges())
        patches = set(topo.edges()) - set(kept.edges())
        patched = Counter(peer for edge in patches for peer in edge)
        for peer in range(num_peers):
            assert topo.degree(peer) == degrees[peer] - dropped[peer] + patched[peer]

    def test_patch_edges_span_the_components(self, num_peers, seed, options):
        _, _, kept = _paired_stubs(num_peers, seed, **options)
        components = kept.connected_components()
        label = {peer: index for index, component in enumerate(components) for peer in component}
        topo = scale_free_topology(num_peers, seed=seed, **options)
        patches = set(topo.edges()) - set(kept.edges())
        # components - 1 edges, none inside a component, leaving one
        # connected overlay: a spanning tree over the components.
        assert len(patches) == len(components) - 1
        assert all(label[u] != label[v] for u, v in patches)
        assert topo.is_connected()


class TestOtherGenerators:
    def test_ring(self):
        topo = ring_topology(10)
        assert topo.num_edges == 10
        assert topo.peer_degrees()[1].tolist() == [2] * 10
        with pytest.raises(ValueError):
            ring_topology(2)

    def test_complete(self):
        topo = complete_topology(6)
        assert topo.num_edges == 15
        assert topo.peer_degrees()[1].tolist() == [5] * 6
