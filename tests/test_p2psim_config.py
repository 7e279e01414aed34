"""Validation of the two simulator configs.

Each ``__post_init__`` check must reject its bad value with a message that
names the offending field, and accept the boundary value just inside the
valid range.  The simulators rely on these checks instead of re-clamping
(``StreamingMarketSimulator`` reads ``config.seed_fanout`` as given).
"""

import pytest

from repro.p2psim import KernelOptions, MarketSimConfig, StreamingSimConfig

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
        options=KernelOptions(kernel="loop"),
    )
    assert (config.seed_fanout, config.startup_chunks, config.transfer_latency) == (1, 0, 0.0)
