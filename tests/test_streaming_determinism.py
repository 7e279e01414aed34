"""Cross-mode determinism for the streaming simulator: kernels, round-trips, sweeps.

The PR that batched the streaming scheduling round promised the same
contract the market simulator already honours: *how* a streaming
simulation executes never changes *what* it produces.  These tests pin it
at every layer:

* simulator — the vectorized scheduling kernel and its loop oracle
  (``kernel_oracles.LoopStreamingMarketSimulator``), fed the same
  configuration, must end in byte-identical
  :class:`StreamingSimResult`\\ s (static, churned, heterogeneously priced
  and taxed swarms, the configs the streaming fig5_6/fig11 points build,
  and 400-peer swarms whose runs take both of the vectorized kernel's
  supplier-choice sides);
* round-trip — a streaming run advanced in blocks with a pickle
  round-trip of the simulator at each boundary must be byte-identical to
  the one-block run (churn-event state included);
* orchestrator — the streaming-backed fig5_6/fig11 smoke scenarios must
  produce the same shard payloads and aggregates at ``jobs=1``,
  ``jobs=4``, and from a cold and a warm cache.
"""

import numpy as np
import pytest

from repro.core.pricing import PerPeerFlatPricing
from repro.core.taxation import ThresholdIncomeTax
from repro.overlay import ChurnConfig
from repro.p2psim import StreamingMarketSimulator, StreamingSimConfig
from repro.runner import (
    SCENARIOS,
    aggregate_sweep,
    run_sweep,
)
from drawn_prices import poisson_prices
from kernel_oracles import LoopStreamingMarketSimulator
from roundtrip import run_round_tripped


def fingerprint(result):
    """Byte-level identity of everything a StreamingSimResult reports."""
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.continuity.tobytes(),
        result.chunks_delivered,
        result.joins,
        result.leaves,
        result.extras["final_population"],
        result.extras["source_chunks"],
        result.extras["tax_pool"],
        tuple(result.extras["peer_order"]),
        tuple(result.recorder.gini_series.x),
        tuple(result.recorder.gini_series.y),
        tuple(result.recorder.bankrupt_series.y),
        tuple(result.recorder.mean_wealth_series.y),
        tuple(result.recorder.population_series.y),
    )


def static_config(**overrides):
    """Smoke-scale static streaming swarm (the Fig. 1 / Fig. 5-6 shape)."""
    defaults = dict(
        num_peers=36,
        initial_credits=20.0,
        horizon=130.0,
        topology_mean_degree=8.0,
        sample_interval=30.0,
        upload_capacity=2,
        seed=17,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


def churned_config(**overrides):
    """Smoke-scale streaming swarm under churn (the Fig. 11 shape)."""
    defaults = dict(
        churn=ChurnConfig(arrival_rate=0.3, mean_lifespan=70.0),
        seed=23,
    )
    defaults.update(overrides)
    return static_config(**defaults)


def priced_taxed_config(**overrides):
    """Heterogeneous per-seller prices plus income taxation."""
    prices = {peer: float(1 + peer % 3) for peer in range(36)}
    defaults = dict(
        pricing=PerPeerFlatPricing(prices),
        tax_policy=ThresholdIncomeTax(rate=0.2, threshold=15.0),
        seed=29,
    )
    defaults.update(overrides)
    return static_config(**defaults)


def fig5_6_point_config():
    """The config ``run_point("fig5_6")`` builds for a smoke streaming point
    (``num_peers=30, horizon=120``, seed 11)."""
    return StreamingSimConfig(
        num_peers=30, initial_credits=20.0, horizon=120.0, sample_interval=1.0, seed=11
    )


def fig11_point_config():
    """The config ``run_point("fig11")`` builds for a smoke streaming point
    (``mean_lifespan=60, num_peers=30, horizon=120``, seed 11)."""
    return StreamingSimConfig(
        num_peers=30,
        initial_credits=20.0,
        horizon=120.0,
        churn=ChurnConfig(arrival_rate=30 / 60.0, mean_lifespan=60.0),
        sample_interval=1.5,
        seed=11,
    )


CONFIG_FACTORIES = {
    "static": static_config,
    "churned": churned_config,
    "priced-taxed": priced_taxed_config,
    "fig5_6-point": fig5_6_point_config,
    "fig11-point": fig11_point_config,
}

#: Streaming sweep points and the simulator config each one builds.
POINT_CONFIGS = {
    "fig5_6": (
        {"simulator": "streaming", "num_peers": 30, "horizon": 120.0},
        fig5_6_point_config,
    ),
    "fig11": (
        {"simulator": "streaming", "mean_lifespan": 60.0, "num_peers": 30, "horizon": 120.0},
        fig11_point_config,
    ),
}


class TestStreamingKernelEquivalence:
    @pytest.mark.parametrize("shape", sorted(CONFIG_FACTORIES))
    def test_loop_and_vectorized_kernels_byte_identical(self, shape):
        config = CONFIG_FACTORIES[shape]()
        vectorized = StreamingMarketSimulator.run_config(config)
        loop = LoopStreamingMarketSimulator.run_config(config)
        assert fingerprint(vectorized) == fingerprint(loop)

    def test_churn_exercised_in_churned_shape(self):
        result = StreamingMarketSimulator.run_config(churned_config())
        assert result.joins > 0 and result.leaves > 0

    @pytest.mark.parametrize("choice", ["availability", "least-loaded", "cheapest"])
    def test_supplier_policies_agree_across_kernels(self, choice):
        config = static_config(supplier_choice=choice, horizon=80.0)
        vectorized = StreamingMarketSimulator.run_config(config)
        loop = LoopStreamingMarketSimulator.run_config(config)
        assert fingerprint(vectorized) == fingerprint(loop)


def swarm_config(**overrides):
    """A 400-peer swarm run from start-up into its steady state.

    Large enough that, within one run, the vectorized kernel expands some
    window columns from their few holders and others from their candidate
    cells (the 36-peer shapes above may only ever take one side).
    """
    defaults = dict(num_peers=400, horizon=30.0, sample_interval=5.0, seed=5)
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


class TestStreamingKernelEquivalenceAtSwarmScale:
    @pytest.mark.parametrize(
        "config",
        [
            swarm_config(supplier_choice="availability"),
            swarm_config(supplier_choice="least-loaded"),
            swarm_config(supplier_choice="cheapest"),
            swarm_config(churn=ChurnConfig(arrival_rate=400 / 60.0, mean_lifespan=60.0)),
        ],
        ids=["availability", "least-loaded", "cheapest", "churned"],
    )
    def test_both_sides_taken_and_kernels_byte_identical(self, config, monkeypatch):
        from repro.p2psim import streaming_sim

        taken = {"demand": 0, "supply": 0}
        demand, supply = streaming_sim._demand_side, streaming_sim._supply_side

        def demand_spy(*args):
            taken["demand"] += args[1].size  # candidate cells
            return demand(*args)

        def supply_spy(*args):
            taken["supply"] += 1  # one window column
            return supply(*args)

        monkeypatch.setattr(streaming_sim, "_demand_side", demand_spy)
        monkeypatch.setattr(streaming_sim, "_supply_side", supply_spy)
        vectorized = StreamingMarketSimulator.run_config(config)
        assert taken["demand"] > 0 and taken["supply"] > 0
        loop = LoopStreamingMarketSimulator.run_config(config)
        assert fingerprint(vectorized) == fingerprint(loop)
        assert vectorized.chunks_delivered > 0


class TestStreamingPickleRoundTripEquivalence:
    @pytest.mark.parametrize("shape", sorted(CONFIG_FACTORIES))
    @pytest.mark.parametrize("blocks", [2, 3, 7])
    def test_round_tripped_blocks_byte_identical_to_monolithic(self, shape, blocks):
        config = CONFIG_FACTORIES[shape]()
        monolithic = StreamingMarketSimulator.run_config(config)
        round_tripped = run_round_tripped(StreamingMarketSimulator(config), blocks=blocks)
        assert fingerprint(monolithic) == fingerprint(round_tripped)

    @pytest.mark.parametrize("blocks", [2, 4, 8])
    @pytest.mark.parametrize("choice", ["availability", "least-loaded", "cheapest"])
    def test_supplier_policies_byte_identical_across_blocks(self, choice, blocks):
        config = static_config(supplier_choice=choice, horizon=80.0)
        monolithic = StreamingMarketSimulator.run_config(config)
        round_tripped = run_round_tripped(StreamingMarketSimulator(config), blocks=blocks)
        assert fingerprint(monolithic) == fingerprint(round_tripped)

    def test_round_tripped_snapshots_match(self):
        config = static_config()
        times = [40.0, 90.0]
        monolithic = StreamingMarketSimulator(config, snapshot_times=times).run()
        round_tripped = run_round_tripped(
            StreamingMarketSimulator(config, snapshot_times=times), blocks=3
        )
        assert set(round_tripped.recorder.snapshots) == set(monolithic.recorder.snapshots)
        for time in times:
            np.testing.assert_array_equal(
                round_tripped.recorder.snapshots[time], monolithic.recorder.snapshots[time]
            )

    @pytest.mark.parametrize("blocks", [2, 4, 8])
    def test_per_seller_prices_survive_round_trips(self, blocks):
        # Joiners are quoted as they are admitted, between round-trips.
        config = churned_config(pricing=poisson_prices(2.0, seed=5))
        monolithic = StreamingMarketSimulator.run_config(config)
        round_tripped = run_round_tripped(StreamingMarketSimulator(config), blocks=blocks)
        assert fingerprint(monolithic) == fingerprint(round_tripped)

    def test_churn_event_state_survives_round_trips(self):
        config = churned_config()
        monolithic = StreamingMarketSimulator.run_config(config)
        round_tripped = run_round_tripped(StreamingMarketSimulator(config), blocks=4)
        assert monolithic.joins == round_tripped.joins > 0
        assert monolithic.leaves == round_tripped.leaves > 0
        assert (
            monolithic.extras["final_population"]
            == round_tripped.extras["final_population"]
        )


STREAMING_SCENARIOS = ("fig5_6-streaming-smoke", "fig11-streaming-smoke")


class TestStreamingSweepEquivalence:
    @pytest.mark.parametrize("scenario_name", STREAMING_SCENARIOS)
    def test_serial_parallel_and_cached_identical(self, scenario_name, tmp_path):
        from repro.runner import ArtifactCache, scenario

        spec = scenario(scenario_name, base_seed=17)
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=4)
        cache = ArtifactCache(tmp_path / "cache")
        cold = run_sweep(spec, jobs=4, cache=cache)
        warm = run_sweep(spec, jobs=1, cache=cache)
        assert serial.executed == pooled.executed == 2
        assert cold.executed == 2 and warm.executed == 0 and warm.cached == 2
        reference = [shard.payload for shard in serial.shards]
        assert [shard.payload for shard in pooled.shards] == reference
        assert [shard.payload for shard in cold.shards] == reference
        assert [shard.payload for shard in warm.shards] == reference
        reference_csv = aggregate_sweep(serial).to_csv()
        for report in (pooled, cold, warm):
            assert aggregate_sweep(report).to_csv() == reference_csv

    @pytest.mark.parametrize("experiment_id", sorted(POINT_CONFIGS))
    def test_point_configs_are_what_the_point_runners_build(self, experiment_id):
        # Ties the kernel-equivalence inputs above to the configs the
        # streaming sweep points really run: same final Gini, same churn.
        from repro.experiments.registry import run_sweep_point

        config, factory = POINT_CONFIGS[experiment_id]
        table = run_sweep_point(experiment_id, config, scale="smoke", seed=11).tables[0]
        last = [row.as_dict() for row in table][-1]
        result = StreamingMarketSimulator.run_config(factory())
        assert last["final_gini"] == result.final_gini
        if experiment_id == "fig11":
            assert (last["joins"], last["leaves"]) == (result.joins, result.leaves)

    def test_streaming_scenarios_registered(self):
        for name in STREAMING_SCENARIOS:
            assert name in SCENARIOS
