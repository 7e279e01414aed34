"""Tests for the membership tracker, churn parameters and round churn."""

import functools
import pickle

import numpy as np
import pytest

from repro.overlay import ChurnConfig, MembershipTracker, scale_free_topology
from repro.overlay.topology import OverlayTopology
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
)


class TestMembershipTracker:
    def test_join_wires_new_peer(self):
        topology = scale_free_topology(50, seed=1)
        tracker = MembershipTracker(topology, target_degree=5, seed=2)
        new_peer = tracker.join()
        assert topology.has_peer(new_peer)
        assert 1 <= topology.degree(new_peer) <= 5
        assert tracker.joins == 1

    def test_peer_ids_never_reused(self):
        topology = scale_free_topology(20, mean_degree=6, seed=1)
        tracker = MembershipTracker(topology, seed=2)
        first = tracker.join()
        tracker.leave(first)
        second = tracker.join()
        assert second != first

    def test_explicit_peer_id(self):
        topology = OverlayTopology([0, 1])
        topology.add_edge(0, 1)
        tracker = MembershipTracker(topology, target_degree=1, seed=3)
        assert tracker.join(peer_id=10) == 10
        with pytest.raises(ValueError):
            tracker.join(peer_id=10)

    def test_negative_peer_id_is_rejected_before_any_draw(self):
        topology = scale_free_topology(30, mean_degree=4, seed=1)
        tracker = MembershipTracker(topology, seed=2)
        state = tracker._rng.bit_generator.state
        with pytest.raises(ValueError, match="non-negative"):
            tracker.join(peer_id=-1)
        assert tracker._rng.bit_generator.state == state
        assert topology.num_peers == 30 and tracker.joins == 0

    def test_leave_repairs_orphans(self):
        # Star topology: removing the hub would isolate every leaf.
        topology = OverlayTopology.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        tracker = MembershipTracker(topology, target_degree=2, seed=4)
        tracker.leave(0)
        assert not topology.has_peer(0)
        assert all(topology.degree(peer) > 0 for peer in topology.peers())
        assert tracker.leaves == 1

    def test_select_neighbors_excludes_self_and_is_bounded(self):
        topology = scale_free_topology(30, seed=5)
        tracker = MembershipTracker(topology, target_degree=10, seed=6)
        chosen = tracker.select_neighbors(exclude=0, count=10)
        assert 0 not in chosen
        assert len(chosen) == len(set(chosen)) == 10

    def test_invalid_target_degree(self):
        with pytest.raises(ValueError):
            MembershipTracker(OverlayTopology([0]), target_degree=0)

    def test_population(self):
        topology = OverlayTopology([0, 1, 2])
        tracker = MembershipTracker(topology, target_degree=1)
        assert tracker.population() == 3


def _churn_tracker(tracker, steps, seed):
    """Random joins and leaves; sparse overlays make leaves repair orphans.

    After every join the weight tables must match a scan.
    """
    rng = np.random.default_rng(seed)
    repairs = 0
    for _ in range(steps):
        if rng.random() < 0.5 and tracker.population() > 3:
            peers = tracker.topology.peers()
            departure = tracker.leave(peers[rng.integers(len(peers))])
            repairs += len(departure.repairs)
        else:
            tracker.join(degree=int(rng.integers(1, 4)))
            _assert_tables_match_a_scan(tracker)
    return repairs


def _assert_tables_match_a_scan(tracker):
    """The tracker's tables are current and weigh every peer at ``degree + 1``."""
    topology = tracker.topology
    assert tracker._synced_at == topology.mutations
    base_cum, added_cum = tracker._base_cum, tracker._added_cum[: tracker._added]
    base_total = int(base_cum[-1]) if base_cum.size else 0
    owners = np.concatenate([tracker._base_ids, tracker._added_ids[: tracker._added]])
    units = np.concatenate([np.diff(base_cum, prepend=0), np.diff(added_cum, prepend=base_total)])
    assert (units >= 0).all()
    weights = np.bincount(owners, weights=units, minlength=topology._alive.size)
    ids, degrees = topology.peer_degrees()
    assert weights[ids].tolist() == (degrees + 1).tolist()
    assert weights.sum() == weights[ids].sum() == tracker._total


class TestWeightTables:
    """Joins add to the tracker's tables; any other edit costs one rebuild."""

    @staticmethod
    def _count_scans(monkeypatch):
        scans = []
        peer_degrees = OverlayTopology.peer_degrees

        def counted(topology):
            scans.append(1)
            return peer_degrees(topology)

        monkeypatch.setattr(OverlayTopology, "peer_degrees", counted)
        return scans

    def test_tables_match_a_scan_through_churn(self):
        topology = scale_free_topology(40, mean_degree=2.0, seed=8)
        tracker = MembershipTracker(topology, target_degree=2, seed=9)
        repairs = _churn_tracker(tracker, steps=200, seed=1)
        assert repairs > 0, "expected some leaves to repair orphans"
        # Reuse an id below the maximum in the now gapped id space, and
        # edit the overlay behind the tracker's back.
        if topology.has_peer(1):
            tracker.leave(1)
        assert tracker.join(peer_id=1) == 1
        assert topology.peers()[-1] > topology.num_peers
        _assert_tables_match_a_scan(tracker)
        hub = max(topology.peers(), key=topology.degree)
        topology.remove_edge(hub, topology.neighbors(hub)[0])
        tracker.join()
        _assert_tables_match_a_scan(tracker)

    def test_explicit_ids_below_the_maximum(self):
        topology = OverlayTopology.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        topology.remove_peer(1)
        topology.add_edge(0, 2)
        tracker = MembershipTracker(topology, target_degree=2, seed=1)
        tracker.join(peer_id=1)
        assert topology.peers() == [0, 1, 2, 3]
        assert topology.degree(1) == 2
        _assert_tables_match_a_scan(tracker)

    def test_joins_onto_a_lone_peer_draw_from_the_increments(self):
        topology = OverlayTopology([5])
        tracker = MembershipTracker(topology, target_degree=3, seed=2)
        for degree in (1, 2, 3, 3, 3):
            assert topology.degree(tracker.join()) == degree
            _assert_tables_match_a_scan(tracker)
        assert tracker._base_ids.tolist() == [5, 6]

    def test_consecutive_joins_rebuild_at_most_once(self, monkeypatch):
        topology = scale_free_topology(200, mean_degree=4.0, seed=2)
        tracker = MembershipTracker(topology, target_degree=4, seed=3)
        scans = self._count_scans(monkeypatch)
        for _ in range(40):
            tracker.join()
        assert len(scans) == 1
        _assert_tables_match_a_scan(tracker)

    def test_an_outside_edit_costs_exactly_one_rebuild(self, monkeypatch):
        topology = scale_free_topology(200, mean_degree=4.0, seed=2)
        tracker = MembershipTracker(topology, target_degree=4, seed=3)
        tracker.join()
        scans = self._count_scans(monkeypatch)
        hub = int(np.argmax(topology._degree))
        topology.remove_edge(hub, topology.neighbors(hub)[0])
        tracker.join()
        assert len(scans) == 1
        tracker.join()
        assert len(scans) == 1
        _assert_tables_match_a_scan(tracker)

    def test_pickled_between_joins_continues_the_same(self):
        topology = scale_free_topology(150, mean_degree=4.0, seed=5)
        tracker = MembershipTracker(topology, target_degree=4, seed=6)
        for _ in range(10):
            tracker.join()
        clone = pickle.loads(pickle.dumps(tracker))
        _assert_tables_match_a_scan(clone)
        for _ in range(20):
            assert tracker.join() == clone.join()
        peers = topology.peers()
        assert clone.topology.peers() == peers
        assert [clone.topology.neighbors(p) for p in peers] == [
            topology.neighbors(p) for p in peers
        ]
        assert clone._rng.bit_generator.state == tracker._rng.bit_generator.state


@pytest.mark.parametrize("exclude", [0, 5, 99])
def test_single_picks_are_proportional_to_degree_plus_one(exclude):
    """Chi-square of one-neighbour picks against ``degree + 1``.

    It checks the distribution, not the random stream: any sampler that
    draws a joiner's neighbours with these weights passes.
    """
    from scipy import stats

    # A hub over eleven peers plus a short chain: degrees 11, 3, 2 and 1.
    edges = [(0, peer) for peer in range(1, 12)] + [(1, 2), (2, 3), (3, 4)]
    topology = OverlayTopology.from_edges(12, edges)
    tracker = MembershipTracker(topology, seed=12)
    candidates = [peer for peer in topology.peers() if peer != exclude]
    weights = np.array([topology.degree(peer) + 1.0 for peer in candidates])
    draws = 6000
    picks = [tracker.select_neighbors(exclude, count=1)[0] for _ in range(draws)]
    observed = [picks.count(peer) for peer in candidates]
    expected = weights / weights.sum() * draws
    assert stats.chisquare(observed, expected).pvalue > 1e-3


class TestChurnConfig:
    def test_expected_population(self):
        config = ChurnConfig(arrival_rate=2.0, mean_lifespan=500.0)
        assert config.expected_population == 1000.0

    def test_for_population(self):
        config = ChurnConfig.for_population(200, mean_lifespan=400.0)
        assert config.arrival_rate == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ChurnConfig(arrival_rate=0.0, mean_lifespan=10.0)
        with pytest.raises(ValueError):
            ChurnConfig(arrival_rate=1.0, mean_lifespan=-5.0)


def _market_run(churn, seed=3):
    config = MarketSimConfig(
        num_peers=30,
        initial_credits=10.0,
        horizon=1200.0,
        step=2.0,
        topology_mean_degree=6.0,
        sample_interval=40.0,
        seed=seed,
        churn=churn,
    )
    return CreditMarketSimulator.run_config(config)


def _streaming_run(churn, seed=3):
    config = StreamingSimConfig(
        num_peers=30,
        initial_credits=10.0,
        horizon=600.0,
        topology_mean_degree=6.0,
        sample_interval=20.0,
        seed=seed,
        churn=churn,
    )
    return StreamingMarketSimulator.run_config(config)


SIMULATOR_RUNS = {"market": _market_run, "streaming": _streaming_run}

#: Sec. VI-E's three regimes, each with a Little's-law population of 60
#: (twice the 30 peers the runs start with).
CHURN_REGIMES = {
    "fixed-size": ChurnConfig.for_population(60, mean_lifespan=120.0),
    "fast-turnover": ChurnConfig(arrival_rate=1.0, mean_lifespan=60.0),
    "long-lifespans": ChurnConfig(arrival_rate=0.25, mean_lifespan=240.0),
}


@functools.lru_cache(maxsize=None)
def _churned_run(simulator, regime):
    return SIMULATOR_RUNS[simulator](CHURN_REGIMES[regime])


class TestRoundChurn:
    """Both tick simulators apply churn as Poisson arrivals and exponential lifetimes."""

    @pytest.mark.parametrize("regime", sorted(CHURN_REGIMES))
    @pytest.mark.parametrize("simulator", sorted(SIMULATOR_RUNS))
    def test_population_tracks_littles_law(self, simulator, regime):
        churn = CHURN_REGIMES[regime]
        result = _churned_run(simulator, regime)
        times = np.asarray(result.recorder.population_series.x)
        population = np.asarray(result.recorder.population_series.y)
        settled = population[times >= times[-1] / 2]
        assert settled.mean() == pytest.approx(churn.expected_population, rel=0.2)

    @pytest.mark.parametrize("regime", sorted(CHURN_REGIMES))
    @pytest.mark.parametrize("simulator", sorted(SIMULATOR_RUNS))
    def test_joins_and_leaves_account_for_population(self, simulator, regime):
        result = _churned_run(simulator, regime)
        assert result.joins > 0 and result.leaves > 0
        final_population = result.recorder.population_series.y[-1]
        assert 30 + result.joins - result.leaves == final_population

    @pytest.mark.parametrize("simulator", sorted(SIMULATOR_RUNS))
    def test_without_churn_population_is_fixed(self, simulator):
        result = SIMULATOR_RUNS[simulator](None)
        assert result.joins == result.leaves == 0
        assert set(result.recorder.population_series.y) == {30}


#: Small, sparse churned configs: at mean degree 2 most peers hang off a
#: single edge, so departures orphan peers and the tracker repairs often.
SPARSE_CHURN = ChurnConfig(arrival_rate=0.5, mean_lifespan=40.0)
SPARSE_SIMULATORS = {
    "market": lambda: CreditMarketSimulator(
        MarketSimConfig(
            num_peers=40,
            initial_credits=10.0,
            horizon=60.0,
            step=1.0,
            topology_mean_degree=2.0,
            seed=11,
            churn=SPARSE_CHURN,
        )
    ),
    "streaming": lambda: StreamingMarketSimulator(
        StreamingSimConfig(
            num_peers=40,
            initial_credits=10.0,
            horizon=60.0,
            topology_mean_degree=2.0,
            seed=11,
            churn=SPARSE_CHURN,
        )
    ),
}


class TestOrphanRepair:
    @pytest.mark.parametrize("simulator", sorted(SPARSE_SIMULATORS))
    def test_repair_partner_routes_to_the_orphan(self, simulator, monkeypatch):
        sim = SPARSE_SIMULATORS[simulator]()
        tracker = sim._tracker
        repairs = []
        leave = tracker.leave

        def recording_leave(peer_id, repair=True):
            departure = leave(peer_id, repair)
            repairs.extend(departure.repairs)
            return departure

        monkeypatch.setattr(tracker, "leave", recording_leave)
        for _ in range(sim.total_rounds()):
            sim.advance_rounds(1)
            # A repair edge lasts until one of its ends departs.
            for orphan, partner in repairs:
                orphan_slot, partner_slot = sim._slots.slot(orphan), sim._slots.slot(partner)
                if orphan_slot >= 0 and partner_slot >= 0:
                    assert orphan_slot in sim._slots.row(partner_slot)
                    assert partner_slot in sim._slots.row(orphan_slot)
        assert repairs, "expected the sparse overlay to orphan some peers"


def test_churned_market_keeps_the_edge_buffer_bounded():
    # Twenty population turnovers append about twenty times the live
    # entries; only compaction keeps the buffers near the live size.
    config = MarketSimConfig(
        num_peers=200,
        initial_credits=10.0,
        horizon=400.0,
        step=1.0,
        topology_mean_degree=8.0,
        seed=5,
        churn=ChurnConfig.for_population(200, mean_lifespan=20.0),
    )
    sim = CreditMarketSimulator(config)
    topology, slots = sim.topology, sim._slots
    for _ in range(sim.total_rounds()):
        sim.advance_rounds(1)
        assert topology._edges.size <= 8 * 2 * topology.num_edges
        # The store's row segments are compacted the same way.
        assert slots.edges.size == sim._edge_cdf.size <= 8 * int(slots.rows().degrees.sum())
    assert sim.joins > 10 * config.num_peers
