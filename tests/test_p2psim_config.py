"""The two simulator configs, and the one state layout both simulators keep.

Each ``__post_init__`` check must reject its bad value with a message that
names the offending field, and accept the boundary value just inside the
valid range.  The simulators rely on these checks instead of re-clamping
(``StreamingMarketSimulator`` reads ``config.seed_fanout`` as given).
Removed switches stay removed: passing one is a ``TypeError``, never
silently ignored.  Both simulators keep one numeric representation
(float64 wealth/price/CDF state, int64 peer ids and edges), and their
mid-run state pickles.
"""

import dataclasses
import importlib
import pickle

import numpy as np
import pytest

import repro.p2psim
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from roundtrip import run_round_tripped

MARKET_INVALID = [
    ("num_peers", dict(num_peers=1)),
    ("initial_credits", dict(initial_credits=0.0)),
    ("horizon", dict(horizon=0.0)),
    ("step", dict(step=-1.0)),
    ("base_spending_rate", dict(base_spending_rate=0.0)),
    ("spending_rate_noise", dict(spending_rate_noise=-0.01)),
    ("sample_interval", dict(sample_interval=0.0)),
    ("topology_mean_degree", dict(num_peers=20, topology_mean_degree=20.0)),
]

STREAMING_INVALID = [
    ("num_peers", dict(num_peers=1)),
    ("initial_credits", dict(initial_credits=-5.0)),
    ("horizon", dict(horizon=0.0)),
    ("chunk_rate", dict(chunk_rate=0.0)),
    ("scheduling_interval", dict(scheduling_interval=0.0)),
    ("sample_interval", dict(sample_interval=0.0)),
    ("max_requests_per_round", dict(max_requests_per_round=0)),
    ("upload_capacity", dict(upload_capacity=0)),
    ("supplier_choice", dict(supplier_choice="random")),
    ("seed_fanout", dict(seed_fanout=0)),
    ("playback_window", dict(playback_window=0)),
    ("startup_chunks", dict(startup_chunks=-1)),
    ("transfer_latency", dict(transfer_latency=-0.1)),
    ("topology_mean_degree", dict(num_peers=20, topology_mean_degree=25.0)),
]


@pytest.mark.parametrize("field, overrides", MARKET_INVALID, ids=[c[0] for c in MARKET_INVALID])
def test_market_config_rejects_and_names_field(field, overrides):
    with pytest.raises(ValueError, match=field):
        MarketSimConfig(**overrides)


@pytest.mark.parametrize(
    "field, overrides", STREAMING_INVALID, ids=[c[0] for c in STREAMING_INVALID]
)
def test_streaming_config_rejects_and_names_field(field, overrides):
    with pytest.raises(ValueError, match=field):
        StreamingSimConfig(**overrides)


def test_market_config_accepts_boundaries():
    config = MarketSimConfig(num_peers=2, topology_mean_degree=1.0, spending_rate_noise=0.0)
    assert (config.num_peers, config.spending_rate_noise) == (2, 0.0)


def test_streaming_config_accepts_boundaries():
    config = StreamingSimConfig(
        num_peers=2,
        topology_mean_degree=1.0,
        seed_fanout=1,
        max_requests_per_round=1,
        upload_capacity=1,
        playback_window=1,
        startup_chunks=0,
        transfer_latency=0.0,
    )
    assert (config.seed_fanout, config.startup_chunks, config.transfer_latency) == (1, 0, 0.0)


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


CONFIG_CLASSES = {"market": MarketSimConfig, "streaming": StreamingSimConfig}

#: Switches either config, or its former ``options`` bundle, once carried.
#: Each simulator runs one kernel on float64 state, emission follows the
#: installed emitter alone, and a run is never split into spatial shards.
REMOVED_SWITCHES = [
    "options",
    "kernel",
    "dtype",
    "telemetry",
    "shards",
    "partitioner",
    "shard_backend",
]


class TestRemovedSwitches:
    @pytest.mark.parametrize("switch", REMOVED_SWITCHES)
    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_switch_is_not_a_config_field(self, name, switch):
        config_cls = CONFIG_CLASSES[name]
        assert switch not in {field.name for field in dataclasses.fields(config_cls)}
        with pytest.raises(TypeError, match=switch):
            config_cls(**{switch: "loop"})

    def test_kernel_options_are_not_exported(self):
        assert not hasattr(repro.p2psim, "KernelOptions")
        assert "KernelOptions" not in repro.p2psim.__all__
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.p2psim.options")

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
        assert simulator._price.dtype == np.float64
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
