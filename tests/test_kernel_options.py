"""Tests for the shared :class:`KernelOptions` bundle and the one state layout.

Covers the options object itself (its single ``kernel`` field, validation,
immutability), how the simulator configs carry it, the one numeric
representation both simulators keep (float64 wealth/price/CDF state,
int64 peer ids and edges), and picklable mid-run state.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.p2psim import (
    CreditMarketSimulator,
    KernelOptions,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.p2psim.options import KERNELS
from roundtrip import run_round_tripped


def market_config(**overrides):
    defaults = dict(
        num_peers=60,
        initial_credits=25.0,
        horizon=400.0,
        step=2.0,
        utilization=UtilizationMode.SYMMETRIC,
        topology_mean_degree=8.0,
        sample_interval=50.0,
        seed=13,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


def streaming_config(**overrides):
    defaults = dict(
        num_peers=30,
        initial_credits=15.0,
        horizon=120.0,
        topology_mean_degree=8.0,
        sample_interval=30.0,
        upload_capacity=2,
        seed=4,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


class TestKernelOptions:
    def test_defaults(self):
        assert KernelOptions().kernel == "vectorized"

    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="kernel"):
            KernelOptions(kernel="bogus")

    def test_frozen_and_hashable(self):
        options = KernelOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.kernel = "loop"
        assert len({KernelOptions(), KernelOptions(kernel="loop")}) == 2

    def test_fields_are_kernel_only(self):
        assert tuple(field.name for field in dataclasses.fields(KernelOptions)) == ("kernel",)

    @pytest.mark.parametrize("name", ["shards", "partitioner", "shard_backend"])
    def test_execution_knobs_are_not_options(self, name):
        with pytest.raises(TypeError, match=name):
            KernelOptions(**{name: 2})

    # float64 state is the only representation and emission follows the
    # installed emitter alone: passing either removed switch is a
    # TypeError, never silently ignored.
    @pytest.mark.parametrize("name", ["dtype", "telemetry"])
    def test_removed_switches_are_not_options(self, name):
        with pytest.raises(TypeError, match=name):
            KernelOptions(**{name: "float32"})

    # Validation is exact: no case folding, aliases or whitespace trimming.
    @pytest.mark.parametrize("kernel", ["", "Loop", "VECTORIZED", " loop", "numba", "sharded"])
    def test_rejects_near_miss_kernels(self, kernel):
        with pytest.raises(ValueError, match="kernel must be one of"):
            KernelOptions(kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_builds_every_kernel(self, kernel):
        assert KernelOptions(kernel=kernel).kernel == kernel


CONFIG_CLASSES = {"market": MarketSimConfig, "streaming": StreamingSimConfig}


class TestConfigOptions:
    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_rejects_non_options_object(self, name):
        with pytest.raises(TypeError, match="KernelOptions"):
            CONFIG_CLASSES[name](options="vectorized")

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_kernel_is_not_a_config_field(self, name):
        # Kernel selection lives only on ``options``.
        config_cls = CONFIG_CLASSES[name]
        assert "kernel" not in {field.name for field in dataclasses.fields(config_cls)}
        with pytest.raises(TypeError, match="kernel"):
            config_cls(kernel="loop")

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_default_options_per_config(self, name):
        first, second = CONFIG_CLASSES[name](), CONFIG_CLASSES[name]()
        assert first.options == KernelOptions()
        assert first.options == second.options

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_replace_swaps_options(self, name):
        config = CONFIG_CLASSES[name](num_peers=40)
        loop = dataclasses.replace(config, options=KernelOptions(kernel="loop"))
        assert loop.options.kernel == "loop"
        assert loop.num_peers == config.num_peers
        assert config.options == KernelOptions()

    def test_large_credit_totals_accepted_without_warning(self, recwarn):
        MarketSimConfig(num_peers=200, initial_credits=100000.0)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]

    def test_market_config_has_no_warmup(self):
        assert "warmup" not in {field.name for field in dataclasses.fields(MarketSimConfig)}
        with pytest.raises(TypeError, match="warmup"):
            MarketSimConfig(warmup=10.0)


def _assert_one_representation(simulator):
    """Wealth and routing state is float64; peer ids and edges are int64."""
    assert simulator._balance.dtype == np.float64
    slots = simulator._slots
    alive = np.flatnonzero(slots.alive).tolist()
    assert alive
    for slot in alive:
        assert slots.row(slot).dtype == np.int64
    assert slots.peer_of.dtype == np.int64
    assert slots.slot_of.dtype == np.int64
    assert slots.pack().edge_dst.dtype == np.int64
    assert slots.pack().alive_slots.dtype == np.int64


class TestOneRepresentation:
    def test_market_arrays_are_float64_and_int64(self):
        simulator = CreditMarketSimulator(market_config())
        simulator.advance_rounds(5)
        _assert_one_representation(simulator)
        edge_cdf = simulator._edge_cdf
        assert edge_cdf.size == simulator._slots.edges.size > 0
        assert edge_cdf.dtype == np.float64
        result = simulator.finalize()
        assert result.final_wealths.dtype == np.float64

    def test_streaming_arrays_are_float64_and_int64(self):
        simulator = StreamingMarketSimulator(streaming_config())
        simulator.advance_rounds(5)
        _assert_one_representation(simulator)
        assert simulator._price_win.dtype == np.float64
        result = simulator.finalize()
        assert result.final_wealths.dtype == np.float64


class TestPicklableState:
    def test_market_pickle_roundtrip_mid_run(self):
        config = market_config()
        simulator = CreditMarketSimulator(config)
        half = simulator.total_rounds() // 2
        simulator.advance_rounds(half)
        clone = pickle.loads(pickle.dumps(simulator))
        rest = simulator.total_rounds() - half
        simulator.advance_rounds(rest)
        clone.advance_rounds(rest)
        original = simulator.finalize()
        resumed = clone.finalize()
        assert original.final_wealths.tobytes() == resumed.final_wealths.tobytes()

    def test_market_round_tripped_matches_monolithic(self):
        config = market_config()
        monolithic = CreditMarketSimulator.run_config(config)
        round_tripped = run_round_tripped(CreditMarketSimulator(config), blocks=3)
        np.testing.assert_array_equal(monolithic.final_wealths, round_tripped.final_wealths)
        assert round_tripped.final_wealths.dtype == np.float64

    def test_streaming_round_tripped_matches_monolithic(self):
        config = streaming_config()
        monolithic = StreamingMarketSimulator.run_config(config)
        round_tripped = run_round_tripped(StreamingMarketSimulator(config), blocks=3)
        np.testing.assert_array_equal(monolithic.final_wealths, round_tripped.final_wealths)
        assert round_tripped.final_wealths.dtype == np.float64
