"""Each simulator's one kernel against its loop oracle, across the config space.

The golden and determinism suites pin the oracles on the figure shapes.
This suite walks the settings those shapes hold fixed — spending and
pricing rules, utilization, step and scheduling intervals, request and
upload limits, window sizes — one axis at a time, and requires the
vectorized kernel and the loop oracle of :mod:`kernel_oracles` to end in
byte-identical results on every point.  It also pins the shape of the
split itself: one kernel method per simulator in ``src/``, overridden by
nothing but that method in the oracle, and no loop-only state left behind.
"""

import importlib
import inspect

import pytest

import kernel_oracles
from drawn_prices import poisson_prices, uniform_prices
from kernel_oracles import (
    MARKET_KERNELS,
    STREAMING_KERNELS,
    LoopCreditMarketSimulator,
    LoopStreamingMarketSimulator,
)
from repro.analysis import DEFAULT_CONFIG, all_rules, select_rules
from repro.core.pricing import PerPeerFlatPricing
from repro.core.spending import DynamicSpendingPolicy
from repro.core.taxation import ThresholdIncomeTax
from repro.overlay import ChurnConfig
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)


def market_fingerprint(result):
    """Byte-level identity of everything a MarketSimResult reports."""
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.total_transfers,
        result.joins,
        result.leaves,
        result.extras["tax_pool"],
        tuple(result.recorder.gini_series.y),
        tuple(result.recorder.bankrupt_series.y),
        tuple(result.recorder.population_series.y),
    )


def streaming_fingerprint(result):
    """Byte-level identity of everything a StreamingSimResult reports."""
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.continuity.tobytes(),
        result.chunks_delivered,
        result.joins,
        result.leaves,
        result.extras["source_chunks"],
        result.extras["tax_pool"],
        tuple(result.extras["peer_order"]),
        tuple(result.recorder.gini_series.y),
        tuple(result.recorder.population_series.y),
    )


def market(**overrides):
    settings = dict(
        num_peers=50,
        initial_credits=10.0,
        horizon=200.0,
        step=1.0,
        topology_mean_degree=8.0,
        sample_interval=50.0,
        seed=41,
    )
    settings.update(overrides)
    return MarketSimConfig(**settings)


def streaming(**overrides):
    settings = dict(
        num_peers=30,
        initial_credits=20.0,
        horizon=90.0,
        topology_mean_degree=8.0,
        sample_interval=30.0,
        upload_capacity=2,
        seed=43,
    )
    settings.update(overrides)
    return StreamingSimConfig(**settings)


def flat_prices(count):
    return PerPeerFlatPricing({peer: float(1 + peer % 4) for peer in range(count)})


#: Market points: name -> factory of a fresh config.
MARKET_POINTS = {
    "symmetric": lambda: market(utilization=UtilizationMode.SYMMETRIC),
    "asymmetric": lambda: market(utilization=UtilizationMode.ASYMMETRIC),
    "noisy-rates": lambda: market(spending_rate_noise=0.2),
    "half-step": lambda: market(step=0.5, horizon=100.0),
    "long-step": lambda: market(step=5.0, horizon=400.0),
    "dynamic-spending": lambda: market(
        initial_credits=30.0,
        spending_policy=DynamicSpendingPolicy(wealth_threshold=20.0, max_multiplier=3.0),
    ),
    "scarce-credits": lambda: market(initial_credits=1.0),
    "sparse-overlay": lambda: market(topology_mean_degree=3.0, topology_shape=2.1),
    "uniform-drawn-pricing": lambda: market(pricing=uniform_prices(seed=7)),
    "flat-pricing": lambda: market(pricing=flat_prices(50)),
    "churn-dynamic-taxed": lambda: market(
        churn=ChurnConfig(arrival_rate=0.5, mean_lifespan=80.0),
        spending_policy=DynamicSpendingPolicy(wealth_threshold=15.0),
        tax_policy=ThresholdIncomeTax(rate=0.3, threshold=5.0),
    ),
    "churn-poisson-noisy": lambda: market(
        churn=ChurnConfig(arrival_rate=0.5, mean_lifespan=80.0),
        pricing=poisson_prices(2.0, seed=9),
        spending_rate_noise=0.1,
    ),
}

#: Streaming points, built like :data:`MARKET_POINTS`.
STREAMING_POINTS = {
    "one-request": lambda: streaming(max_requests_per_round=1),
    "many-requests": lambda: streaming(max_requests_per_round=8),
    "one-upload": lambda: streaming(upload_capacity=1),
    "wide-upload": lambda: streaming(upload_capacity=6),
    "short-window": lambda: streaming(playback_window=4, startup_chunks=2),
    "long-window": lambda: streaming(playback_window=60),
    "fast-chunks": lambda: streaming(chunk_rate=3.0),
    "coarse-ticks": lambda: streaming(scheduling_interval=2.0, horizon=120.0),
    "narrow-seed": lambda: streaming(seed_fanout=1),
    "scarce-credits": lambda: streaming(initial_credits=2.0),
    "dynamic-spending": lambda: streaming(
        spending_policy=DynamicSpendingPolicy(wealth_threshold=10.0)
    ),
    "cheapest-poisson-drawn": lambda: streaming(
        supplier_choice="cheapest", pricing=poisson_prices(2.0, seed=5)
    ),
    "availability-uniform-drawn": lambda: streaming(
        supplier_choice="availability", pricing=uniform_prices(seed=5)
    ),
    # Posted prices like 1.1 leave rounding dust in the batched settlement.
    "fractional-flat": lambda: streaming(
        seed=44, pricing=PerPeerFlatPricing({peer: 1.0 + 0.1 * (peer % 7) for peer in range(30)})
    ),
    "churn-taxed": lambda: streaming(
        churn=ChurnConfig(arrival_rate=0.4, mean_lifespan=40.0),
        tax_policy=ThresholdIncomeTax(rate=0.25, threshold=10.0),
    ),
}


@pytest.mark.parametrize("point", sorted(MARKET_POINTS))
def test_market_kernel_matches_loop_oracle(point):
    vectorized = CreditMarketSimulator.run_config(MARKET_POINTS[point]())
    loop = LoopCreditMarketSimulator.run_config(MARKET_POINTS[point]())
    assert vectorized.total_transfers > 0
    assert market_fingerprint(vectorized) == market_fingerprint(loop)


@pytest.mark.parametrize("point", sorted(STREAMING_POINTS))
def test_streaming_kernel_matches_loop_oracle(point):
    vectorized = StreamingMarketSimulator.run_config(STREAMING_POINTS[point]())
    loop = LoopStreamingMarketSimulator.run_config(STREAMING_POINTS[point]())
    assert vectorized.chunks_delivered > 0
    assert streaming_fingerprint(vectorized) == streaming_fingerprint(loop)


@pytest.mark.parametrize(
    "point", ["fractional-flat", "cheapest-poisson-drawn", "availability-uniform-drawn"]
)
def test_rounding_never_overdraws_a_wallet(point):
    # The budget rule admits a price up to a tolerance above the wallet;
    # settlement must not leave the rounding residue as a negative balance,
    # which the wealth samples reject.
    simulator = StreamingMarketSimulator(STREAMING_POINTS[point]())
    for _ in range(simulator.total_rounds()):
        simulator.advance_rounds(1)
        assert simulator._balance.min() >= 0.0


def test_churned_points_churn():
    for factory in (MARKET_POINTS["churn-dynamic-taxed"], STREAMING_POINTS["churn-taxed"]):
        config = factory()
        if isinstance(config, MarketSimConfig):
            simulator = CreditMarketSimulator
        else:
            simulator = StreamingMarketSimulator
        result = simulator.run_config(config)
        assert result.joins > 0 and result.leaves > 0


class TestOracleRuns:
    """A parity check is empty unless the oracle's loop really ran."""

    def test_market_oracle_routes_every_round(self, monkeypatch):
        calls = []
        loop = kernel_oracles.route_credits_loop

        def counting(*args):
            calls.append(1)
            return loop(*args)

        monkeypatch.setattr(kernel_oracles, "route_credits_loop", counting)
        config = MARKET_POINTS["symmetric"]()
        LoopCreditMarketSimulator.run_config(config)
        assert len(calls) == int(config.horizon / config.step)

    def test_streaming_oracle_schedules_every_tick(self, monkeypatch):
        calls = []
        loop = kernel_oracles.schedule_loop

        def counting(*args):
            calls.append(1)
            return loop(*args)

        monkeypatch.setattr(kernel_oracles, "schedule_loop", counting)
        LoopStreamingMarketSimulator.run_config(STREAMING_POINTS["one-request"]())
        assert len(calls) > 0


class TestOneKernel:
    """``src/`` holds one kernel per simulator; the loops live only here."""

    @pytest.mark.parametrize(
        "oracle, base, method",
        [
            (LoopCreditMarketSimulator, CreditMarketSimulator, "_route_credits"),
            (LoopStreamingMarketSimulator, StreamingMarketSimulator, "_schedule"),
        ],
        ids=["market", "streaming"],
    )
    def test_oracle_overrides_only_the_kernel(self, oracle, base, method):
        assert oracle.__bases__ == (base,)
        overrides = {name for name in vars(oracle) if not name.startswith("__")}
        assert overrides == {method}
        assert list(inspect.signature(getattr(oracle, method)).parameters) == list(
            inspect.signature(getattr(base, method)).parameters
        )

    @pytest.mark.parametrize(
        "simulator, stem",
        [(CreditMarketSimulator, "_route_credits"), (StreamingMarketSimulator, "_schedule")],
        ids=["market", "streaming"],
    )
    def test_no_kernel_variants_in_src(self, simulator, stem):
        for suffix in ("_loop", "_vectorized"):
            assert not hasattr(simulator, stem + suffix)

    def test_kernel_tables_name_both_implementations(self):
        assert MARKET_KERNELS == {
            "vectorized": CreditMarketSimulator,
            "loop": LoopCreditMarketSimulator,
        }
        assert STREAMING_KERNELS == {
            "vectorized": StreamingMarketSimulator,
            "loop": LoopStreamingMarketSimulator,
        }

    def test_market_keeps_no_loop_income_buffer(self):
        simulator = CreditMarketSimulator(market())
        simulator.advance_rounds(50)
        assert not hasattr(simulator, "_income")
        assert "_income" not in vars(CreditMarketSimulator)

    def test_kernel_pair_rule_is_gone(self):
        assert "KERNEL001" not in {rule.id for rule in all_rules()}
        assert "KERNEL001" not in DEFAULT_CONFIG.rule_scopes
        with pytest.raises(KeyError, match="KERNEL001"):
            select_rules(["KERNEL001"])

    def test_mm1_module_is_gone(self):
        queueing = importlib.import_module("repro.queueing")
        assert not {"MM1Queue", "MM1KQueue"} & set(queueing.__all__)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.queueing.mm1")
