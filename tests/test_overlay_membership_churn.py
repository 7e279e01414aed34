"""Tests for the membership tracker, churn parameters and round churn."""

import functools

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

    def test_leave_repairs_orphans(self):
        # Star topology: removing the hub would isolate every leaf.
        topology = OverlayTopology.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        tracker = MembershipTracker(topology, target_degree=2, seed=4)
        tracker.leave(0)
        assert not topology.has_peer(0)
        assert topology.isolated_peers() == []
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
