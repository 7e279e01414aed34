"""Tests for the sweepable point runners covering every figure.

Pins the PR's core contract: every experiment id in ``EXPERIMENTS`` has a
point runner in ``SWEEPS`` with declared axes, each point runner produces a
well-formed single-configuration result, and sweeps over the newly ported
experiments are byte-identical across execution modes (serial, parallel,
warm cache).
"""

import inspect

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    SWEEPS,
    run_sweep_point,
    sweep_params,
    validate_sweep_config,
)
from repro.experiments import fig01_spending_rates
from repro.runner import ArtifactCache, SweepSpec, aggregate_sweep, run_sweep

# Tiny per-experiment grid points: small populations and short horizons keep
# every smoke-scale shard well under a second.
POINT_CONFIGS = {
    "fig1": {"initial_credits": 6.0, "num_peers": 24, "horizon": 60.0},
    "fig2": {"total_credits": 150, "num_peers": 15},
    "fig3": {"num_peers": 30, "num_samples": 2},
    "fig4": {"average_wealth": 2.0, "num_peers": 50, "buzen_peers": 8},
    "fig5_6": {"num_peers": 24, "horizon": 120.0},
    "fig7": {"average_wealth": 8.0, "num_peers": 24, "horizon": 80.0},
    "fig8": {"average_wealth": 8.0, "num_peers": 24, "horizon": 80.0},
    "fig9": {"tax_rate": 0.2, "tax_threshold": 10.0, "num_peers": 24, "horizon": 80.0},
    "fig10": {"spending_policy": "dynamic", "num_peers": 24, "horizon": 80.0},
    "fig11": {"mean_lifespan": 100.0, "num_peers": 24, "horizon": 80.0},
}

#: Figures computed in closed form: their point runners take ``seed`` for a
#: uniform interface and record it, but draw nothing.
ANALYTIC = ("fig2", "fig4")

#: The experiments this PR ported to point runners (fig3/fig9/fig11 were
#: sweepable before).
NEWLY_SWEEPABLE = ("fig1", "fig2", "fig4", "fig5_6", "fig7", "fig8", "fig10")


class TestRegistryCompleteness:
    def test_every_experiment_is_sweepable(self):
        assert set(SWEEPS) == set(EXPERIMENTS)

    def test_every_sweep_entry_declares_runner_and_params(self):
        for experiment_id, entry in SWEEPS.items():
            assert callable(entry["runner"]), experiment_id
            params = sweep_params(experiment_id)
            assert isinstance(params, tuple) and params, experiment_id
            assert all(isinstance(name, str) for name in params), experiment_id

    # The kernel never splits seeds or cache keys: every point runs the
    # vectorized kernel, and the loop kernel is a simulator-level oracle.
    @pytest.mark.parametrize("experiment_id", sorted(SWEEPS))
    def test_kernel_is_not_a_sweep_axis(self, experiment_id):
        assert "kernel" not in sweep_params(experiment_id)
        runner = SWEEPS[experiment_id]["runner"]
        assert "kernel" not in inspect.signature(runner).parameters

    # The sweep contract, checked on the live objects: every declared axis
    # is a keyword its point runner accepts (else sweeping it raises
    # TypeError inside a worker), and every keyword the runner takes besides
    # `seed` and `scale` is declared (else no sweep can reach it).
    @pytest.mark.parametrize("experiment_id", sorted(SWEEPS))
    def test_sweep_params_match_run_point_signature(self, experiment_id):
        parameters = inspect.signature(SWEEPS[experiment_id]["runner"]).parameters
        kinds = {parameter.kind for parameter in parameters.values()}
        assert inspect.Parameter.VAR_KEYWORD not in kinds, experiment_id
        keywords = {
            name
            for name, parameter in parameters.items()
            if parameter.kind
            in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        }
        assert keywords - {"seed", "scale"} == set(sweep_params(experiment_id))

    def test_point_configs_cover_every_experiment(self):
        assert set(POINT_CONFIGS) == set(EXPERIMENTS)

    def test_validate_sweep_config(self):
        validate_sweep_config("fig1", {"initial_credits", "pricing_model"})
        with pytest.raises(KeyError, match="unknown sweep parameter"):
            validate_sweep_config("fig1", {"bogus_axis"})
        with pytest.raises(KeyError, match="not sweepable"):
            validate_sweep_config("fig99", {"anything"})


class TestPointRunners:
    @pytest.mark.parametrize("experiment_id", sorted(POINT_CONFIGS))
    def test_point_runner_produces_result(self, experiment_id):
        result = run_sweep_point(
            experiment_id, POINT_CONFIGS[experiment_id], scale="smoke", seed=3
        )
        assert result.tables, experiment_id
        assert len(result.tables[0]) >= 1
        assert result.metadata["seed"] == 3

    # A point runner that drops its seed (say, a literal passed on in a
    # config field) gives every replication the same draws.  No analyzer
    # rule sees through the config field, and only fig7 has a golden sweep
    # digest over replications.
    @pytest.mark.parametrize("experiment_id", sorted(POINT_CONFIGS))
    def test_point_runner_draws_from_its_seed(self, experiment_id):
        rows = [
            [
                table.rows
                for table in run_sweep_point(
                    experiment_id, POINT_CONFIGS[experiment_id], scale="smoke", seed=seed
                ).tables
            ]
            for seed in (3, 4)
        ]
        assert (rows[0] == rows[1]) == (experiment_id in ANALYTIC)

    @pytest.mark.parametrize("experiment_id", sorted(POINT_CONFIGS))
    def test_unknown_axis_rejected(self, experiment_id):
        config = dict(POINT_CONFIGS[experiment_id], bogus_axis=1)
        with pytest.raises(KeyError, match="unknown sweep parameter"):
            run_sweep_point(experiment_id, config, scale="smoke", seed=0)

    def test_fig1_pricing_model_axis(self):
        uniform = run_sweep_point(
            "fig1",
            dict(POINT_CONFIGS["fig1"], pricing_model="uniform"),
            scale="smoke",
            seed=3,
        )
        poisson = run_sweep_point(
            "fig1",
            dict(POINT_CONFIGS["fig1"], pricing_model="poisson-seller"),
            scale="smoke",
            seed=3,
        )
        assert uniform.tables[0].rows[0]["realized_mean_price"] == 1.0
        assert poisson.tables[0].rows[0]["realized_mean_price"] != 1.0

    def test_fig1_unknown_pricing_model_rejected(self):
        with pytest.raises(ValueError, match="pricing_model"):
            run_sweep_point(
                "fig1",
                dict(POINT_CONFIGS["fig1"], pricing_model="bogus"),
                scale="smoke",
                seed=0,
            )

    def test_fig10_unknown_spending_policy_rejected(self):
        with pytest.raises(ValueError, match="spending_policy"):
            run_sweep_point(
                "fig10",
                dict(POINT_CONFIGS["fig10"], spending_policy="bogus"),
                scale="smoke",
                seed=0,
            )

    def test_fig10_fixed_policy_ignores_threshold_in_identity(self):
        # The threshold knob only exists for the dynamic policy; a fixed-policy
        # row must not be labelled with (or keyed on) an ignored m.
        fixed = run_sweep_point(
            "fig10",
            dict(POINT_CONFIGS["fig10"], spending_policy="fixed", wealth_threshold=50.0),
            scale="smoke",
            seed=3,
        )
        assert fixed.tables[0].rows[0]["spending_policy"] == "fixed"
        assert fixed.metadata["spending_threshold_m"] is None
        dynamic = run_sweep_point(
            "fig10",
            dict(POINT_CONFIGS["fig10"], spending_policy="dynamic", wealth_threshold=50.0),
            scale="smoke",
            seed=3,
        )
        assert dynamic.tables[0].rows[0]["spending_policy"] == "dynamic (m=50)"
        assert dynamic.metadata["spending_threshold_m"] == 50.0

    def test_fig7_fig8_differ_only_by_utilization(self):
        config = POINT_CONFIGS["fig7"]
        fig7 = run_sweep_point("fig7", config, scale="smoke", seed=3)
        fig8 = run_sweep_point("fig8", config, scale="smoke", seed=3)
        assert fig7.metadata["utilization"] == "symmetric"
        assert fig8.metadata["utilization"] == "asymmetric"

    def test_fig5_6_reports_early_and_late_stage(self):
        result = run_sweep_point("fig5_6", POINT_CONFIGS["fig5_6"], scale="smoke", seed=3)
        stages = [row["stage"] for row in result.tables[0]]
        assert len(stages) == 2
        assert any("early" in stage for stage in stages)
        assert any("late" in stage for stage in stages)


class TestFig1PricingFidelity:
    """Regression tests for the paper's documented mean chunk price."""

    def test_documented_mean_is_one_credit(self):
        assert fig01_spending_rates.MEAN_CHUNK_PRICE == 1.0

    def test_poisson_seller_prices_realize_documented_mean(self):
        pricing = fig01_spending_rates._poisson_seller_prices(4000, 1.0, seed=5)
        prices = pricing.price_array(range(4000))
        # Poisson(1) over 4000 sellers: the sample mean is within a few
        # standard errors (sigma/sqrt(n) ~ 0.016) of the documented mean.
        assert abs(float(prices.mean()) - 1.0) < 0.08
        # The draw is the *plain* Poisson of the paper: zero-price sellers
        # exist (~e^{-1} of them) and prices are heterogeneous.
        assert float((prices == 0.0).mean()) > 0.2
        assert len(np.unique(prices)) >= 3

    def test_poisson_seller_prices_are_whole_credits_fixed_by_the_seed(self):
        draw = fig01_spending_rates._poisson_seller_prices
        ids = np.arange(500)
        prices = draw(500, 1.0, seed=5).price_array(ids)
        assert np.array_equal(prices, np.round(prices)) and prices.min() == 0.0
        assert prices.tobytes() == draw(500, 1.0, seed=5).price_array(ids).tobytes()
        assert prices.tobytes() != draw(500, 1.0, seed=6).price_array(ids).tobytes()
        # Only the population is drawn; any other id posts the default credit.
        assert draw(500, 1.0, seed=5).price_array([500, 10**6]).tolist() == [1.0, 1.0]

    def test_full_figure_uses_documented_mean(self):
        result = fig01_spending_rates.run(scale="smoke", seed=2)
        rows = {row["case"]: row for row in result.table()}
        condensed = rows["condensed (non-uniform prices)"]
        healthy = rows["healthy (uniform prices)"]
        # The qualitative Fig. 1 contrast survives the mean-1 prices — the
        # condensed case is strictly more skewed (measured margin ~0.2 at
        # smoke scale; no slack so a vanishing contrast fails loudly).
        assert condensed["wealth_gini"] > healthy["wealth_gini"]
        assert condensed["spending_rate_gini"] > healthy["spending_rate_gini"]

    def test_run_point_reports_realized_mean_price(self):
        result = run_sweep_point(
            "fig1",
            dict(POINT_CONFIGS["fig1"], num_peers=400, pricing_model="poisson-seller"),
            scale="smoke",
            seed=5,
        )
        realized = result.tables[0].rows[0]["realized_mean_price"]
        assert abs(realized - 1.0) < 0.2


class TestCrossModeDeterminism:
    @pytest.mark.parametrize("experiment_id", NEWLY_SWEEPABLE)
    def test_serial_parallel_and_cached_aggregates_identical(self, experiment_id, tmp_path):
        spec = SweepSpec(
            experiment_id,
            grid=[POINT_CONFIGS[experiment_id]],
            replications=2,
            base_seed=13,
            scale="smoke",
        )
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert [s.payload for s in serial.shards] == [s.payload for s in parallel.shards]

        cache = ArtifactCache(tmp_path / experiment_id)
        cold = run_sweep(spec, jobs=1, cache=cache)
        warm = run_sweep(spec, jobs=4, cache=cache)
        assert (cold.executed, cold.cached) == (2, 0)
        assert (warm.executed, warm.cached) == (0, 2)

        reference = aggregate_sweep(serial).to_csv()
        assert aggregate_sweep(parallel).to_csv() == reference
        assert aggregate_sweep(cold).to_csv() == reference
        assert aggregate_sweep(warm).to_csv() == reference
