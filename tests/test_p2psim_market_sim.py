"""Tests for the transaction-level credit-market simulator."""

import numpy as np
import pytest

from repro.core.spending import DynamicSpendingPolicy
from repro.core.taxation import ThresholdIncomeTax
from repro.overlay import ChurnConfig
from repro.p2psim import CreditMarketSimulator, MarketSimConfig, UtilizationMode


def small_config(**overrides):
    defaults = dict(
        num_peers=50,
        initial_credits=20.0,
        horizon=300.0,
        step=2.0,
        topology_mean_degree=8.0,
        sample_interval=50.0,
        seed=3,
    )
    defaults.update(overrides)
    return MarketSimConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MarketSimConfig(num_peers=1)
        with pytest.raises(ValueError):
            MarketSimConfig(initial_credits=-1.0)
        with pytest.raises(ValueError):
            MarketSimConfig(step=0.0)
        with pytest.raises(ValueError):
            MarketSimConfig(num_peers=10, topology_mean_degree=20.0)
        with pytest.raises(ValueError):
            MarketSimConfig(spending_rate_noise=-0.5)


class TestConservation:
    def test_closed_market_conserves_credits(self):
        config = small_config()
        result = CreditMarketSimulator.run_config(config)
        total = result.final_wealths.sum() + result.extras["tax_pool"]
        assert total == pytest.approx(50 * 20.0, rel=1e-9)

    def test_conservation_with_taxation(self):
        config = small_config(
            initial_credits=30.0, tax_policy=ThresholdIncomeTax(rate=0.2, threshold=20.0)
        )
        result = CreditMarketSimulator.run_config(config)
        total = result.final_wealths.sum() + result.extras["tax_pool"]
        assert total == pytest.approx(50 * 30.0, rel=1e-9)

    def test_wealth_never_negative(self):
        result = CreditMarketSimulator.run_config(small_config())
        assert np.all(result.final_wealths >= -1e-9)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = CreditMarketSimulator.run_config(small_config(seed=11))
        b = CreditMarketSimulator.run_config(small_config(seed=11))
        np.testing.assert_array_equal(a.final_wealths, b.final_wealths)
        assert a.total_transfers == b.total_transfers

    def test_different_seed_differs(self):
        a = CreditMarketSimulator.run_config(small_config(seed=11))
        b = CreditMarketSimulator.run_config(small_config(seed=12))
        assert not np.array_equal(a.final_wealths, b.final_wealths)


class TestDynamics:
    def test_transfers_happen_and_are_counted(self):
        result = CreditMarketSimulator.run_config(small_config())
        assert result.total_transfers > 1000
        assert np.all(result.spending_rates >= 0)
        assert result.spending_rates.mean() > 0.3

    def test_gini_starts_at_zero_and_grows(self):
        result = CreditMarketSimulator.run_config(small_config())
        gini = result.recorder.gini_series
        assert gini.y[0] == pytest.approx(0.0, abs=1e-9)
        assert gini.y[-1] > 0.1

    def test_asymmetric_more_skewed_than_symmetric(self):
        symmetric = CreditMarketSimulator.run_config(
            small_config(utilization=UtilizationMode.SYMMETRIC, horizon=500.0)
        )
        asymmetric = CreditMarketSimulator.run_config(
            small_config(utilization=UtilizationMode.ASYMMETRIC, horizon=500.0)
        )
        assert asymmetric.stabilized_gini > symmetric.stabilized_gini

    def test_dynamic_spending_reduces_skew(self):
        fixed = CreditMarketSimulator.run_config(
            small_config(utilization=UtilizationMode.ASYMMETRIC, horizon=500.0)
        )
        dynamic = CreditMarketSimulator.run_config(
            small_config(
                utilization=UtilizationMode.ASYMMETRIC,
                horizon=500.0,
                spending_policy=DynamicSpendingPolicy(wealth_threshold=20.0),
            )
        )
        assert dynamic.stabilized_gini < fixed.stabilized_gini

    def test_taxation_reduces_skew(self):
        untaxed = CreditMarketSimulator.run_config(
            small_config(utilization=UtilizationMode.ASYMMETRIC, horizon=500.0)
        )
        taxed = CreditMarketSimulator.run_config(
            small_config(
                utilization=UtilizationMode.ASYMMETRIC,
                horizon=500.0,
                tax_policy=ThresholdIncomeTax(rate=0.2, threshold=15.0),
            )
        )
        assert taxed.stabilized_gini < untaxed.stabilized_gini

    def test_spending_rate_noise_creates_heterogeneity(self):
        noisy = CreditMarketSimulator(
            small_config(utilization=UtilizationMode.SYMMETRIC, spending_rate_noise=0.3)
        )
        rates = noisy._base_mu[noisy._alive]
        assert rates.std() / rates.mean() > 0.1


class TestSnapshots:
    def test_snapshot_times_recorded(self):
        simulator = CreditMarketSimulator(small_config(), snapshot_times=[100.0, 200.0])
        result = simulator.run()
        assert set(result.recorder.snapshots) == {100.0, 200.0}
        assert all(len(profile) == 50 for profile in result.recorder.snapshots.values())


class TestChurn:
    def test_churn_generates_joins_and_leaves(self):
        config = small_config(
            horizon=400.0,
            churn=ChurnConfig(arrival_rate=0.25, mean_lifespan=200.0),
        )
        result = CreditMarketSimulator.run_config(config)
        assert result.joins > 0
        assert result.leaves > 0
        assert result.extras["final_population"] == len(result.final_wealths)

    def test_population_stays_near_littles_law(self):
        config = small_config(
            num_peers=50,
            horizon=600.0,
            churn=ChurnConfig.for_population(50, mean_lifespan=150.0),
        )
        result = CreditMarketSimulator.run_config(config)
        population = result.recorder.population_series.y
        assert 15 <= population[-1] <= 120

    def test_churn_credits_not_conserved_but_tracked(self):
        # Departing peers take credits away; joining peers bring fresh ones,
        # so the closed-market conservation no longer holds exactly — but
        # wealth stays non-negative and the recorder keeps sampling.
        config = small_config(
            horizon=300.0, churn=ChurnConfig(arrival_rate=0.5, mean_lifespan=100.0)
        )
        result = CreditMarketSimulator.run_config(config)
        assert np.all(result.final_wealths >= -1e-9)
        assert len(result.recorder.population_series) > 2
