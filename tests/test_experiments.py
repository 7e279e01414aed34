"""Smoke tests for the experiment registry and the figure runners' outputs.

These run experiments at the ``smoke`` scale, which keeps the file to a few
seconds.  The paper's claims about each figure are asserted over seeds in
``test_paper_claims.py``; every figure's smoke output is pinned by the
``cli-fig*`` digests in ``test_golden.py``.
"""

import numpy as np
import pytest

from repro.core import ThresholdIncomeTax
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    describe_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments.fig05_06_convergence import profile_distance
from repro.experiments.fig09_taxation import run_point as fig9_run_point
from repro.p2psim import CreditMarketSimulator, MarketSimConfig, UtilizationMode


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {"fig1", "fig2", "fig3", "fig4", "fig5_6", "fig7", "fig8", "fig9", "fig10", "fig11"}
        assert expected == set(EXPERIMENTS)

    def test_describe_experiments(self):
        descriptions = describe_experiments()
        assert len(descriptions) == len(EXPERIMENTS)
        assert all({"id", "section", "title"} <= set(entry) for entry in descriptions)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")


class TestExperimentResultHelpers:
    def test_table_and_series_lookup(self):
        result = run_experiment("fig4", scale="smoke", seed=1)
        assert isinstance(result, ExperimentResult)
        assert result.table() is result.tables[0]
        series = result.series_by_label(result.series[0].label)
        assert series is result.series[0]
        with pytest.raises(KeyError):
            result.series_by_label("not a label")
        with pytest.raises(KeyError):
            result.table("missing fragment")
        assert "Fig. 4" in result.format()


class TestAnalyticExperiments:
    def test_fig2_gini_values_valid(self):
        result = run_experiment("fig2", scale="smoke", seed=1)
        for row in result.table():
            assert 0.0 < row["gini_exact"] < 1.0
            assert 0.0 < row["gini_eq8"] < 1.0


class TestSimulationExperiments:
    def test_fig5_6_produces_snapshots(self):
        result = run_experiment("fig5_6", scale="smoke", seed=2)
        assert len(result.series) >= 4
        assert len(result.table()) == 2

    def test_fig7_and_fig8_converge(self):
        for experiment_id in ("fig7", "fig8"):
            result = run_experiment(experiment_id, scale="smoke", seed=2)
            assert len(result.series) == 2
            for row in result.table():
                assert 0.0 <= row["stabilized_gini"] <= 1.0

    def test_fig9_rows_report_each_runs_own_tax_totals(self):
        first, second = (
            fig9_run_point(scale="smoke", seed=4, tax_rate=0.2, tax_threshold=20.0).table().rows[0]
            for _ in range(2)
        )
        assert first == second
        direct = CreditMarketSimulator.run_config(
            MarketSimConfig(
                num_peers=60,
                initial_credits=30.0,
                horizon=400.0,
                step=2.0,
                utilization=UtilizationMode.ASYMMETRIC,
                tax_policy=ThresholdIncomeTax(rate=0.2, threshold=20.0),
                sample_interval=4.0,
                seed=4,
            )
        )
        assert first["total_tax_collected"] == direct.extras["tax_collected"] > 0
        assert first["total_tax_rebated"] == direct.extras["tax_rebated"] > 0
        untaxed = fig9_run_point(scale="smoke", seed=4, tax_rate=0.0).table().rows[0]
        assert untaxed["taxation"] == "no taxation"
        assert untaxed["total_tax_collected"] == untaxed["total_tax_rebated"] == 0.0

    def test_fig11_run_point_rejects_churn_params_without_lifespan(self):
        from repro.experiments.fig11_churn import run_point

        with pytest.raises(ValueError, match="mean_lifespan"):
            run_point(scale="smoke", arrival_rate=0.5)
        with pytest.raises(ValueError, match="mean_lifespan"):
            run_point(scale="smoke", rate_factor=2.0)


class TestProfileDistance:
    def test_fewer_than_two_profiles_have_no_distance(self):
        assert profile_distance([]) == 0.0
        assert profile_distance([np.array([1.0, 2.0])]) == 0.0

    def test_mean_l1_over_consecutive_pairs_on_common_length(self):
        profiles = [np.array([0.0, 2.0, 9.0]), np.array([1.0, 4.0]), np.array([]), np.array([3.0])]
        # The first pair compares two peers: (|0 - 1| + |2 - 4|) / 2 = 1.5.  Both
        # pairs with the empty profile are skipped.
        assert profile_distance(profiles) == 1.5
        assert profile_distance([np.array([1.0]), np.array([3.0]), np.array([3.0])]) == 1.0
