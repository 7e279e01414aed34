"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.condensation import grand_canonical_wealth, solve_fugacity
from repro.core.metrics import gini_from_pmf, gini_index, hoover_index, lorenz_curve
from repro.core.taxation import ThresholdIncomeTax
from repro.queueing.closed import ClosedJacksonNetwork
from repro.queueing.mva import mva_mean_queue_lengths
from repro.queueing.routing import RoutingMatrix
from repro.queueing.traffic import normalized_utilizations, solve_traffic_equations

# Wealths are exact zeros (bankrupt peers) or values far from the subnormal
# range: scaling a subnormal like 5e-324 underflows (5e-324 * 0.5 rounds to
# 0.0), which breaks scale-invariance for float reasons unrelated to the
# metrics under test.
wealth_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=60),
    elements=st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    ),
)

utilization_arrays = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=0.05, max_value=1.0),
)


class TestGiniProperties:
    @given(wealth_arrays)
    @settings(max_examples=60, deadline=None)
    def test_gini_bounded(self, wealths):
        value = gini_index(wealths)
        assert 0.0 <= value <= 1.0

    @given(wealth_arrays, st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_gini_scale_invariant(self, wealths, scale):
        assert gini_index(wealths) == np.float64(gini_index(wealths * scale)).item() or abs(
            gini_index(wealths) - gini_index(wealths * scale)
        ) < 1e-9

    @given(wealth_arrays, st.floats(min_value=0.1, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_adding_constant_reduces_or_keeps_gini(self, wealths, shift):
        # Adding the same amount to everyone cannot increase relative inequality.
        assert gini_index(wealths + shift) <= gini_index(wealths) + 1e-9

    @given(wealth_arrays)
    @settings(max_examples=40, deadline=None)
    def test_hoover_below_gini_plus_eps(self, wealths):
        # For any distribution the Hoover index never exceeds the Gini index.
        assert hoover_index(wealths) <= gini_index(wealths) + 1e-9

    @given(wealth_arrays)
    @settings(max_examples=40, deadline=None)
    def test_lorenz_curve_is_convex_monotone(self, wealths):
        population, cumulative = lorenz_curve(wealths)
        assert np.all(np.diff(cumulative) >= -1e-12)
        assert np.all(cumulative <= population + 1e-9)

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=2, max_value=30),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_gini_from_pmf_bounded(self, raw):
        if raw.sum() <= 0:
            return
        value = gini_from_pmf(raw)
        assert 0.0 <= value <= 1.0


class TestRoutingAndTrafficProperties:
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_stochastic_rows_sum_to_one(self, size, seed):
        routing = RoutingMatrix.random_stochastic(size, density=0.5, seed=seed)
        np.testing.assert_allclose(routing.matrix.sum(axis=1), 1.0, atol=1e-9)

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_lemma1_positive_solution_exists(self, size, seed):
        routing = RoutingMatrix.random_stochastic(size, density=0.6, seed=seed)
        solution = solve_traffic_equations(routing)
        assert solution.residual < 1e-6
        assert np.all(solution.arrival_rates > 0)

    @given(utilization_arrays)
    @settings(max_examples=30, deadline=None)
    def test_normalized_utilizations_in_unit_interval(self, rates):
        utilizations = normalized_utilizations(rates, np.ones_like(rates))
        assert np.all(utilizations > 0)
        assert np.all(utilizations <= 1.0 + 1e-12)
        assert utilizations.max() == 1.0


class TestClosedNetworkProperties:
    @given(utilization_arrays, st.integers(min_value=0, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_mean_queue_lengths_sum_to_population(self, utilizations, total_jobs):
        network = ClosedJacksonNetwork(utilizations, total_jobs)
        assert network.mean_queue_lengths().sum() == np.float64(total_jobs).item() or abs(
            network.mean_queue_lengths().sum() - total_jobs
        ) < 1e-6

    @given(utilization_arrays, st.integers(min_value=1, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_marginals_are_distributions(self, utilizations, total_jobs):
        network = ClosedJacksonNetwork(utilizations, total_jobs)
        pmf = network.marginal_pmf(0)
        assert abs(pmf.sum() - 1.0) < 1e-8
        assert np.all(pmf >= 0)

    @given(utilization_arrays, st.integers(min_value=1, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_buzen_matches_mva(self, utilizations, total_jobs):
        service_rates = np.ones_like(utilizations)
        network = ClosedJacksonNetwork.from_rates(utilizations, service_rates, total_jobs)
        mva = mva_mean_queue_lengths(utilizations, service_rates, total_jobs)
        np.testing.assert_allclose(network.mean_queue_lengths(), mva, rtol=1e-5, atol=1e-8)


class TestCondensationProperties:
    @given(utilization_arrays, st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_grand_canonical_wealth_accounts_for_total(self, utilizations, total):
        wealth = grand_canonical_wealth(utilizations, total)
        assert np.all(wealth >= -1e-9)
        assert abs(wealth.sum() - total) / max(total, 1.0) < 1e-4

    @given(utilization_arrays, st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_fugacity_in_unit_interval(self, utilizations, total):
        fugacity = solve_fugacity(utilizations, total)
        assert 0.0 <= fugacity <= 1.0


class TestIncomeTaxProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 500.0)),
        st.floats(0.0, 50.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 200.0),
        # Subnormal units included: every whole rebate round is paid at once.
        st.floats(0.0, 3.0),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_round_conserves_credits(self, balances, income, rate, threshold, unit, pool):
        """Balances plus pool are conserved, no balance goes negative, and
        only peers above the threshold pay."""
        policy = ThresholdIncomeTax(rate=rate, threshold=threshold, rebate_unit=unit)
        incomes = np.full(balances.size, income)
        before = balances.copy()
        collected, rebated, pool_after = policy.apply(balances, incomes, pool)
        assert balances.min() >= 0.0
        assert pool_after >= 0.0
        assert balances.sum() + pool_after == pytest.approx(before.sum() + pool, abs=1e-6)
        assert collected == pytest.approx(rebated + pool_after - pool, abs=1e-6)
        rebate_each = rebated / balances.size
        untaxed = before <= threshold
        np.testing.assert_allclose(balances[untaxed], before[untaxed] + rebate_each)

