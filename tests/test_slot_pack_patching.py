"""The store's row segments and routing CDFs against a from-scratch, per-row rebuild.

A churn round re-derives only the rows it touched and writes them to
their segments of the store's buffer, and the market fills only their
segments of the buffer-aligned routing CDF.  After every round each
alive slot's segment must equal what rebuilding its row on its own would
give: ``np.sort`` of its neighbours' slots and a per-row ``cumsum`` of
its price shares.  The CSR pack read from the segments must equal the
rebuilt rows laid end to end.
"""

import numpy as np
import pytest

from repro.overlay import ChurnConfig
from repro.overlay.topology import OverlayTopology
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
)
from repro.p2psim.market_sim import routing_cdfs
from drawn_prices import poisson_prices


def reference_row_cdf(prices):
    """One row's routing CDF, computed on its own."""
    weights = np.clip(np.asarray(prices, dtype=float), 1e-12, None)
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def rebuilt_rows(sim):
    """Every alive slot's row (and, for a market, its routing CDF) built on its own."""
    slots = sim._slots
    alive_slots = np.flatnonzero(slots.alive)
    neighbors = [sim.topology.neighbors(int(slots.peer_of[slot])) for slot in alive_slots]
    rows = [np.sort(slots.slot_of[np.array(ids, dtype=np.int64)]) for ids in neighbors]
    cdfs = [None] * len(rows)
    if isinstance(sim, CreditMarketSimulator):
        pricing = sim.config.pricing
        cdfs = [
            reference_row_cdf(pricing.price_array(slots.peer_of[row].tolist()))
            if row.size
            else np.empty(0)
            for row in rows
        ]
    return alive_slots, rows, cdfs


def assert_matches_rebuild(sim):
    """Each segment, its CDF and the CSR pack equal the per-row rebuild."""
    slots = sim._slots
    alive_slots, rows, cdfs = rebuilt_rows(sim)
    start, degree, room = (slots.arrays[name][alive_slots] for name in ("start", "degree", "room"))
    # Segments, with their room, lie inside the buffer's used part and
    # never overlap.
    assert np.all(degree <= room) and np.all(start + room <= slots._end)
    assert slots._end <= slots.edges.size
    ranked = np.argsort(start)
    order = ranked[room[ranked] > 0]
    assert np.all((start + room)[order][:-1] <= start[order][1:])
    for slot, first, row, cdf in zip(alive_slots.tolist(), start.tolist(), rows, cdfs):
        segment = slice(first, first + row.size)
        assert slots.edges[segment].tobytes() == row.tobytes()
        assert slots.row(slot).tobytes() == row.tobytes()
        if cdf is not None:
            assert sim._edge_cdf[segment].tobytes() == cdf.tobytes()
    degrees = np.array([row.size for row in rows], dtype=np.int64)
    expected = {
        "alive_slots": alive_slots,
        "degrees": degrees,
        "row_start": np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64),
        "edge_dst": np.concatenate(rows).astype(np.int64),
    }
    pack = slots.pack()
    for name, array in expected.items():
        assert getattr(pack, name).dtype == array.dtype, name
        assert getattr(pack, name).tobytes() == array.tobytes(), name


def market(seed, **overrides):
    settings = dict(
        num_peers=60, initial_credits=10.0, horizon=40.0, step=1.0,
        topology_mean_degree=3.0, sample_interval=20.0, seed=seed,
        churn=ChurnConfig(arrival_rate=1.5, mean_lifespan=30.0),
        pricing=poisson_prices(2.0, seed),
    )
    settings.update(overrides)
    topology = settings.pop("topology", None)
    return CreditMarketSimulator(MarketSimConfig(**settings), topology=topology)


def streaming(seed, **overrides):
    settings = dict(
        num_peers=50, initial_credits=10.0, horizon=30.0,
        topology_mean_degree=3.0, sample_interval=10.0, seed=seed,
        churn=ChurnConfig(arrival_rate=1.5, mean_lifespan=20.0),
        pricing=poisson_prices(2.0, seed),
    )
    settings.update(overrides)
    topology = settings.pop("topology", None)
    return StreamingMarketSimulator(StreamingSimConfig(**settings), topology=topology)


SIMULATORS = {"market": market, "streaming": streaming}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_every_round_matches_a_rebuild(name, seed):
    sim = SIMULATORS[name](seed)
    assert_matches_rebuild(sim)
    for _ in range(sim.total_rounds()):
        sim.advance_rounds(1)
        assert_matches_rebuild(sim)
    assert sim.joins > 0 and sim.leaves > 0


class _ScriptedRng:
    """Stands in for a simulator's stream for one churn round.

    ``random`` makes exactly the peers in ``leaving`` depart, and
    ``poisson`` brings ``arrivals`` peers.
    """

    def __init__(self, sim, leaving, arrivals):
        self.sim, self.leaving, self.arrivals = sim, set(leaving), arrivals

    def random(self, size):
        slots = self.sim._slots
        alive_slots = np.flatnonzero(slots.alive)
        assert alive_slots.size == size
        leaving = np.isin(slots.peer_of[alive_slots], sorted(self.leaving))
        return np.where(leaving, 0.0, 1.0)

    def poisson(self, lam):
        return self.arrivals


def scripted_round(sim, leaving=(), arrivals=0):
    """Run one churn round in which exactly ``leaving`` depart."""
    rng = sim._rng
    sim._rng = _ScriptedRng(sim, leaving, arrivals)
    try:
        sim._apply_churn(1.0)
    finally:
        sim._rng = rng


def star_plus_pendant(num_leaves):
    """Hub 0 with leaves ``2..num_leaves+1``; peer 1 hangs off leaf 2 alone."""
    edges = [(0, leaf) for leaf in range(2, num_leaves + 2)] + [(1, 2)]
    return OverlayTopology.from_edges(num_leaves + 2, edges)


@pytest.mark.parametrize("name", sorted(SIMULATORS))
class TestScriptedRounds:
    def test_repair_partner_departs_later_in_the_round(self, name, monkeypatch):
        # Leaf 2 leaves first (lower slot) and orphans peer 1; the tracker
        # wires peer 1 to the highest-slot leaf, which leaves later in the
        # same round, so peer 1 is orphaned and repaired a second time.
        sim = SIMULATORS[name](1, topology=star_plus_pendant(12), num_peers=14)
        tracker = sim._tracker
        partner = 13
        select = tracker.select_neighbors
        repairs = []

        def forced_partner(exclude, count=None):
            if exclude == 1 and not repairs:
                repairs.append(partner)
                return [partner]
            return select(exclude, count)

        monkeypatch.setattr(tracker, "select_neighbors", forced_partner)
        assert sim._slots.slot(2) < sim._slots.slot(partner)
        scripted_round(sim, leaving=[2, partner])
        assert repairs == [partner]
        assert sim._slots.slot(partner) == -1 and sim._slots.slot(2) == -1
        assert sim.topology.degree(1) == 1 and not sim.topology.has_edge(1, partner)
        assert_matches_rebuild(sim)

    def test_joiner_reuses_a_slot_freed_in_the_round(self, name):
        sim = SIMULATORS[name](2)
        leaver = sim.topology.peers()[7]
        freed = sim._slots.slot(leaver)
        scripted_round(sim, leaving=[leaver], arrivals=1)
        joiner = max(sim.topology.peers())
        assert sim._slots.slot(joiner) == freed
        assert sim._slots.row(freed).size == sim.topology.degree(joiner) > 0
        assert_matches_rebuild(sim)

    def test_hub_touched_by_many_joins(self, name, monkeypatch):
        sim = SIMULATORS[name](3, topology=star_plus_pendant(30), num_peers=32)
        batches = []
        refresh_rows = sim._slots.refresh_rows

        def recording_refresh_rows(peer_ids):
            batches.append(list(peer_ids))
            return refresh_rows(peer_ids)

        monkeypatch.setattr(sim._slots, "refresh_rows", recording_refresh_rows)
        hub_degree = sim.topology.degree(0)
        scripted_round(sim, leaving=[5], arrivals=12)
        joined = sim.topology.degree(0) - (hub_degree - 1)
        assert joined >= 4, "preferential attachment should wire joiners to the hub"
        # The round refreshes in one batch, naming the hub once.
        assert len(batches) == 1 and batches[0].count(0) == 1
        assert_matches_rebuild(sim)
        sim.advance_rounds(3)
        assert_matches_rebuild(sim)


def reference_cdfs(prices, degrees):
    ends = np.cumsum(degrees)
    rows = [prices[end - degree : end] for degree, end in zip(degrees, ends) if degree]
    return np.concatenate([reference_row_cdf(row) for row in rows])


class TestRoutingCdfs:
    """The degree-grouped CDFs equal the per-row reference bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degrees_one_to_three_hundred(self, seed):
        # Several rows of every degree 1..300, shuffled: the blocks cross
        # numpy's pairwise-summation unroll (8) and block (128) sizes.
        rng = np.random.default_rng(seed)
        degrees = rng.permutation(np.repeat(np.arange(1, 301), 3))
        size = int(degrees.sum())
        prices = rng.lognormal(0.0, 1.5, size) * rng.choice([1e-3, 1.0, 1e3], size)
        cdf = routing_cdfs(prices, degrees)
        assert cdf.tobytes() == reference_cdfs(prices, degrees).tobytes()

    def test_integer_prices_and_empty_rows(self):
        # Poisson prices include zeros (clipped to 1e-12) and rows may be empty.
        rng = np.random.default_rng(4)
        degrees = rng.integers(0, 160, 400)
        prices = rng.poisson(1.0, int(degrees.sum())).astype(float)
        cdf = routing_cdfs(prices, degrees)
        assert cdf.tobytes() == reference_cdfs(prices, degrees).tobytes()
        ends = np.cumsum(degrees)[degrees > 0]
        assert np.all(cdf[ends - 1] == 1.0)

    @pytest.mark.parametrize("prices", ["lognormal", "integer"])
    def test_hub_rows_among_small_rows(self, prices):
        # Hub-sized rows (20k-peer overlays have hubs of ~3800 neighbours)
        # reach deeper levels of numpy's pairwise-summation recursion;
        # repeated hub degrees share a group, and small rows sit between them.
        rng = np.random.default_rng(5)
        hubs = np.concatenate([rng.integers(129, 4097, 24), [129, 4096, 4096, 1024, 1024]])
        degrees = rng.permutation(np.concatenate([hubs, rng.integers(0, 40, 300)]))
        size = int(degrees.sum())
        if prices == "lognormal":
            values = rng.lognormal(0.0, 1.5, size) * rng.choice([1e-3, 1.0, 1e3], size)
        else:
            values = rng.poisson(1.0, size).astype(float)
        cdf = routing_cdfs(values, degrees)
        assert cdf.tobytes() == reference_cdfs(values, degrees).tobytes()

    def test_no_rows(self):
        assert routing_cdfs(np.empty(0), np.empty(0, dtype=np.int64)).size == 0
        degrees = np.zeros(3, dtype=np.int64)
        assert routing_cdfs(np.empty(0), degrees).size == 0
