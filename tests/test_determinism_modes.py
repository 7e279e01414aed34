"""Cross-mode determinism: kernels, pickle round-trips, worker counts.

*How* a simulation executes never changes *what* it produces.  These
tests pin that contract at every layer:

* simulator — the vectorized kernel and its loop oracle
  (``kernel_oracles.LoopCreditMarketSimulator``), fed the same
  configuration, must end in byte-identical :class:`MarketSimResult`\\ s
  (fig7-shaped symmetric-noise markets and fig10-shaped dynamic-spending
  markets, plus churn/taxation variants);
* round-trip — a run advanced in blocks with a pickle round-trip of the
  simulator at each boundary must be byte-identical to the one-block
  run, including under churn, taxation and the loop oracle;
* quiet rounds — a market with a peer that has no neighbour, where most
  rounds nobody spends and a rebate fires on such a round, runs alike
  on both kernels and across pickle round-trips;
* orchestrator — a pooled sweep (``jobs=2``, one BLAS thread per worker)
  must produce the same shard payloads and aggregate CSV as the serial
  sweep, for every sweepable figure at smoke scale;
* config reuse — re-running one config object gives the same result,
  tax totals included, and leaves its tax policy unchanged;
* routing rows — every market row lists its neighbours in ascending slot
  order, whatever order the overlay's adjacency sets iterate in, and
  still routes to each neighbour with probability ``clip(price_j) /
  Σ clip(price)``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.spending import DynamicSpendingPolicy, FixedSpendingPolicy
from repro.core.taxation import ThresholdIncomeTax
from repro.overlay import ChurnConfig, OverlayTopology
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.experiments import SWEEPS
from repro.runner import (
    ParamGrid,
    SweepSpec,
    aggregate_sweep,
    run_sweep,
)
from drawn_prices import poisson_prices
from kernel_oracles import LoopCreditMarketSimulator, route_credits_loop
from roundtrip import result_fingerprint, run_round_tripped


def fingerprint(result):
    """Byte-level identity of everything a MarketSimResult reports."""
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.total_transfers,
        result.joins,
        result.leaves,
        result.extras["tax_pool"],
        tuple(result.recorder.gini_series.x),
        tuple(result.recorder.gini_series.y),
        tuple(result.recorder.bankrupt_series.y),
        tuple(result.recorder.mean_wealth_series.y),
        tuple(result.recorder.population_series.y),
    )


def fig7_like_config(**overrides):
    """Smoke-scale symmetric market with realised-rate noise (the Fig. 7 shape)."""
    defaults = dict(
        num_peers=60,
        initial_credits=10.0,
        horizon=300.0,
        step=2.0,
        utilization=UtilizationMode.SYMMETRIC,
        spending_rate_noise=0.05,
        topology_mean_degree=8.0,
        sample_interval=50.0,
        seed=13,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


def fig10_like_config(**overrides):
    """Smoke-scale asymmetric market under the dynamic spending rule (Fig. 10)."""
    defaults = dict(
        num_peers=60,
        initial_credits=30.0,
        horizon=400.0,
        step=2.0,
        utilization=UtilizationMode.ASYMMETRIC,
        spending_policy=DynamicSpendingPolicy(wealth_threshold=30.0),
        topology_mean_degree=8.0,
        sample_interval=50.0,
        seed=29,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


CONFIG_FACTORIES = {
    "fig7-like": fig7_like_config,
    "fig10-like": fig10_like_config,
}

#: Variants of the fig7 shape whose state a pickle round-trip must carry
#: unchanged: churned membership, the tax pool, the loop oracle, and the
#: per-slot prices of per-seller Poisson-drawn pricing.  Each is a
#: simulator class and a config factory.
VARIANTS = {
    "churn": (
        CreditMarketSimulator,
        lambda: fig7_like_config(churn=ChurnConfig(arrival_rate=0.2, mean_lifespan=150.0)),
    ),
    "taxed": (
        CreditMarketSimulator,
        lambda: fig7_like_config(tax_policy=ThresholdIncomeTax(rate=0.2, threshold=8.0)),
    ),
    "loop": (LoopCreditMarketSimulator, fig7_like_config),
    "poisson-priced": (
        CreditMarketSimulator,
        lambda: fig7_like_config(pricing=poisson_prices(2.0, seed=5)),
    ),
}


class TestKernelEquivalence:
    @pytest.mark.parametrize("shape", sorted(CONFIG_FACTORIES))
    def test_loop_and_vectorized_kernels_byte_identical(self, shape):
        config = CONFIG_FACTORIES[shape]()
        vectorized = CreditMarketSimulator.run_config(config)
        loop = LoopCreditMarketSimulator.run_config(config)
        assert fingerprint(vectorized) == fingerprint(loop)

    def test_kernels_agree_under_churn_and_taxation(self):
        config = fig7_like_config(
            churn=ChurnConfig(arrival_rate=0.2, mean_lifespan=150.0),
            tax_policy=ThresholdIncomeTax(rate=0.2, threshold=8.0),
        )
        vectorized = CreditMarketSimulator.run_config(config)
        loop = LoopCreditMarketSimulator.run_config(config)
        assert vectorized.joins > 0 and vectorized.leaves > 0  # churn exercised
        assert fingerprint(vectorized) == fingerprint(loop)

    def test_boundary_draw_routes_to_last_neighbour(self):
        # The largest draw, u = 1 - 2**-53, lies below every row's final
        # cdf value of exactly 1.0, so both kernels land on the last real
        # neighbour.  A u = 0 draw lands on each row's first neighbour; on
        # the row whose segment starts the buffer the vectorized kernel's
        # guess has no entry before it and is accepted on its own.
        simulator = CreditMarketSimulator(fig7_like_config())
        rows = simulator._slots.rows()
        pack = simulator._slots.pack()
        count = rows.alive_slots.size
        spendable = np.ones(count, dtype=np.int64)
        for u in (1.0 - 2.0**-53, 0.0):
            draws = np.full(count, u)
            vectorized = simulator._route_credits(rows, spendable, draws)
            loop = route_credits_loop(simulator, rows, spendable, draws)
            assert vectorized.tobytes() == loop.tobytes()
            assert vectorized.sum() == count  # every credit landed on a real peer
            assert np.all(vectorized[~simulator._slots.alive] == 0.0)
        # The last draws were u = 0: one credit to each row's first neighbour.
        first = np.bincount(pack.edge_dst[pack.row_start[:-1]], minlength=vectorized.size)
        assert vectorized.tobytes() == first.tobytes()

    def test_dynamic_policy_takes_vector_fast_path(self):
        # The dynamic rule must visibly accelerate rich peers through the
        # vectorised path (guards against the fast path silently returning
        # base rates).
        config = fig10_like_config(initial_credits=90.0)
        dynamic = CreditMarketSimulator.run_config(config)
        fixed = CreditMarketSimulator.run_config(
            dataclasses.replace(config, spending_policy=FixedSpendingPolicy())
        )
        assert dynamic.total_transfers > fixed.total_transfers


#: The peer of :func:`isolated_peer_market` that has no neighbour.
ISOLATED = 10


def isolated_peer_market():
    """A taxed, churned market of ten ring peers and one without neighbours.

    Each peer spends 0.02 credits a round, so most rounds nobody spends.
    Income is taxed at 0.25 and rebated a quarter credit a peer, so the
    pool rests on multiples of 0.25 below the round's cost: once a
    departure lowers the cost to the pool, the rebate fires on a quiet
    round.  Returns the config and a fresh overlay, which churn edits.
    """
    edges = [(i, (i + 1) % 10) for i in range(10)] + [(i, (i + 3) % 10) for i in range(0, 10, 2)]
    config = MarketSimConfig(
        num_peers=ISOLATED + 1,
        initial_credits=5.0,
        horizon=600.0,
        step=1.0,
        base_spending_rate=0.02,
        utilization=UtilizationMode.ASYMMETRIC,
        tax_policy=ThresholdIncomeTax(rate=0.25, threshold=0.0, rebate_unit=0.25),
        churn=ChurnConfig(arrival_rate=0.002, mean_lifespan=1000.0),
        topology_mean_degree=3.0,
        sample_interval=50.0,
        seed=13,
    )
    return config, OverlayTopology.from_edges(ISOLATED + 1, edges)


class TestQuietRounds:
    def test_isolated_peer_and_quiet_round_rebate_run_alike_everywhere(self):
        simulator = CreditMarketSimulator(*isolated_peer_market())
        quiet = quiet_rebates = 0
        for _ in range(simulator.total_rounds()):
            transfers, rebated = simulator.total_transfers, simulator._tax_rebated
            simulator.advance_rounds(1)
            if simulator.total_transfers == transfers:
                quiet += 1
                quiet_rebates += simulator._tax_rebated > rebated
        slot = simulator._slots.slot(ISOLATED)
        assert slot >= 0 and simulator._slots.row(slot).size == 0
        assert simulator._spent[slot] == 0.0  # drew spending intents, had nobody to pay
        assert quiet > simulator.total_rounds() // 2 and quiet_rebates > 0
        assert simulator.leaves > 0 and simulator.joins > 0
        vectorized = fingerprint(simulator.finalize())
        loop = LoopCreditMarketSimulator(*isolated_peer_market()).run()
        round_tripped = run_round_tripped(CreditMarketSimulator(*isolated_peer_market()), blocks=4)
        assert fingerprint(loop) == vectorized == fingerprint(round_tripped)


class TestPickleRoundTripEquivalence:
    @pytest.mark.parametrize("shape", sorted(CONFIG_FACTORIES))
    @pytest.mark.parametrize("blocks", [2, 3, 7])
    def test_round_tripped_blocks_byte_identical_to_monolithic(self, shape, blocks):
        config = CONFIG_FACTORIES[shape]()
        monolithic = CreditMarketSimulator.run_config(config)
        round_tripped = run_round_tripped(CreditMarketSimulator(config), blocks=blocks)
        assert fingerprint(monolithic) == fingerprint(round_tripped)

    @pytest.mark.parametrize("blocks", [2, 4, 8])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_round_tripped_blocks_byte_identical_under_variants(self, variant, blocks):
        simulator, config = VARIANTS[variant]
        monolithic = simulator.run_config(config())
        round_tripped = run_round_tripped(simulator(config()), blocks=blocks)
        assert fingerprint(monolithic) == fingerprint(round_tripped)

    def test_round_tripped_snapshots_match(self):
        config = fig7_like_config()
        times = [100.0, 200.0]
        monolithic = CreditMarketSimulator(config, snapshot_times=times).run()
        round_tripped = run_round_tripped(
            CreditMarketSimulator(config, snapshot_times=times), blocks=3
        )
        assert set(round_tripped.recorder.snapshots) == set(monolithic.recorder.snapshots)
        for time in times:
            np.testing.assert_array_equal(
                round_tripped.recorder.snapshots[time], monolithic.recorder.snapshots[time]
            )


def _sweep_spec(experiment_id, grid):
    return SweepSpec(experiment_id, grid=grid, replications=2, base_seed=17, scale="smoke")


#: Two-config grids for the market figures whose points differ most by
#: configuration; every other sweepable figure runs its default point.
SWEEP_GRIDS = {
    "fig7": ParamGrid({"average_wealth": [8.0, 16.0]}),
    # Two tax settings, each with its own collected and rebated totals.
    "fig9": ParamGrid({"tax_rate": [0.2], "tax_threshold": [20.0, 40.0]}),
    "fig10": [
        {"spending_policy": "fixed"},
        {"spending_policy": "dynamic", "wealth_threshold": 20.0},
    ],
    # A churned market, whose rows must not depend on set iteration order.
    "fig11": ParamGrid({"mean_lifespan": [250, 400]}),
}


class TestSerialPooledSweepEquivalence:
    @pytest.mark.parametrize("experiment_id", sorted(SWEEPS))
    def test_serial_and_pooled_sweeps_byte_identical(self, experiment_id):
        spec = _sweep_spec(experiment_id, SWEEP_GRIDS.get(experiment_id, ParamGrid()))
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=2)
        assert serial.executed == pooled.executed == len(spec.tasks()) >= 2
        assert [shard.payload for shard in serial.shards] == [
            shard.payload for shard in pooled.shards
        ]
        assert aggregate_sweep(pooled).to_csv() == aggregate_sweep(serial).to_csv()


class TestConfigReuse:
    """One config object run twice gives the same result, tax totals included."""

    @pytest.mark.parametrize(
        "simulator, config",
        [
            (
                CreditMarketSimulator,
                fig7_like_config(tax_policy=ThresholdIncomeTax(rate=0.2, threshold=8.0)),
            ),
            (
                StreamingMarketSimulator,
                StreamingSimConfig(
                    num_peers=30,
                    initial_credits=20.0,
                    horizon=60.0,
                    topology_mean_degree=6.0,
                    tax_policy=ThresholdIncomeTax(rate=0.3, threshold=15.0),
                    seed=31,
                ),
            ),
        ],
        ids=["market", "streaming"],
    )
    def test_rerun_of_one_config_is_identical(self, simulator, config):
        policy = config.tax_policy
        before = dict(vars(policy))
        first = simulator.run_config(config)
        assert vars(policy) == before
        second = simulator.run_config(config)
        assert vars(policy) == before
        assert first.extras["tax_collected"] > 0 and first.extras["tax_rebated"] > 0
        assert result_fingerprint(second) == result_fingerprint(first)


def _routing_rows(simulator):
    """``(peer, neighbour slots, row CDF)`` of every alive market peer."""
    slots = simulator._slots
    rows = slots.rows()
    assert rows.alive_slots.tolist() == np.flatnonzero(slots.alive).tolist()
    return [
        (
            int(slots.peer_of[slot]),
            slots.row(slot),
            simulator._edge_cdf[start : start + degree],
        )
        for slot, degree, start in zip(
            rows.alive_slots.tolist(), rows.degrees.tolist(), rows.row_start.tolist()
        )
    ]


class TestCanonicalRoutingRows:
    """Rows ascend by neighbour slot; the routing distribution is unchanged."""

    @pytest.fixture(scope="class")
    def churned(self):
        # Per-seller Poisson prices make the weights uneven, and churn makes
        # slot order differ from peer-id order (freed slots are reused).
        simulator = CreditMarketSimulator(
            fig7_like_config(
                churn=ChurnConfig(arrival_rate=0.5, mean_lifespan=60.0),
                pricing=poisson_prices(2.0, seed=5),
            )
        )
        simulator.advance_rounds(100)
        assert simulator.joins > 0 and simulator.leaves > 0
        return simulator

    def test_rows_ascend_by_slot(self, churned):
        rows = _routing_rows(churned)
        assert rows
        for _, row, _ in rows:
            assert np.all(np.diff(row) > 0)
        peer_of = churned._slots.peer_of
        slot_order_differs = any(np.any(np.diff(peer_of[row]) < 0) for _, row, _ in rows)
        assert slot_order_differs, "churn should leave some rows out of id order"

    def test_rows_hold_exactly_the_overlay_neighbours(self, churned):
        for peer, row, _ in _routing_rows(churned):
            ids = sorted(churned._slots.peer_of[row].tolist())
            assert ids == list(churned.topology.neighbors(peer))

    def test_each_neighbour_keeps_its_price_share(self, churned):
        pricing = churned.config.pricing
        for _, row, cdf in _routing_rows(churned):
            if row.size == 0:
                assert cdf.size == 0
                continue
            ids = churned._slots.peer_of[row].tolist()
            weights = np.clip(np.asarray(pricing.price_array(ids), dtype=float), 1e-12, None)
            expected = np.cumsum(weights / weights.sum())
            expected /= expected[-1]
            assert cdf.tobytes() == expected.tobytes()
            np.testing.assert_allclose(
                np.diff(cdf, prepend=0.0), weights / weights.sum(), rtol=1e-12, atol=1e-15
            )
