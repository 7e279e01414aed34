"""Tests for the closed Jackson network (Buzen's algorithm, Eq. 3 product form)."""

import math

import numpy as np
import pytest

from repro.queueing import ClosedJacksonNetwork, RoutingMatrix
from repro.queueing.mva import mva_mean_queue_lengths


class TestConstruction:
    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            ClosedJacksonNetwork([], 5)
        with pytest.raises(ValueError):
            ClosedJacksonNetwork([1.0, 0.0], 5)
        with pytest.raises(ValueError):
            ClosedJacksonNetwork([1.0, 1.0], -1)

    def test_utilizations_normalised_to_max_one(self):
        network = ClosedJacksonNetwork([2.0, 4.0], 3)
        np.testing.assert_allclose(network.utilizations, [0.5, 1.0])

    def test_average_wealth(self):
        network = ClosedJacksonNetwork([1.0, 1.0, 1.0, 1.0], 20)
        assert network.average_wealth == pytest.approx(5.0)

    def test_from_rates_and_from_routing(self):
        routing = RoutingMatrix([[0.0, 1.0], [1.0, 0.0]])
        network = ClosedJacksonNetwork.from_routing(routing, service_rates=[1.0, 2.0], total_jobs=4)
        np.testing.assert_allclose(network.utilizations, [1.0, 0.5])
        network2 = ClosedJacksonNetwork.from_rates([1.0, 1.0], [1.0, 2.0], 4)
        np.testing.assert_allclose(network2.utilizations, [1.0, 0.5])


class TestPartitionFunction:
    def test_symmetric_partition_matches_stars_and_bars(self):
        # With all utilizations equal to 1, G(M) counts the compositions of
        # M jobs over N queues: C(M + N - 1, N - 1).
        network = ClosedJacksonNetwork([1.0] * 4, 6)
        expected = math.comb(6 + 4 - 1, 4 - 1)
        assert math.exp(network.log_partition_function) == pytest.approx(expected, rel=1e-9)

    def test_two_queue_closed_form(self):
        # For two queues with utilizations 1 and u: G(M) = sum_{k=0..M} u^k.
        u = 0.5
        total = 5
        network = ClosedJacksonNetwork([1.0, u], total)
        expected = sum(u**k for k in range(total + 1))
        assert math.exp(network.log_partition_function) == pytest.approx(expected, rel=1e-9)

    def test_log_partition_at_bounds(self):
        network = ClosedJacksonNetwork([1.0, 1.0], 3)
        assert network.log_partition_at(0) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            network.log_partition_at(4)


class TestJointDistribution:
    def test_joint_probabilities_sum_to_one(self):
        network = ClosedJacksonNetwork([1.0, 0.7, 0.4], 4)
        total = 0.0
        for a in range(5):
            for b in range(5 - a):
                c = 4 - a - b
                total += network.joint_probability([a, b, c])
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_joint_probability_zero_off_manifold(self):
        network = ClosedJacksonNetwork([1.0, 1.0], 3)
        assert network.joint_probability([1, 1]) == 0.0

    def test_joint_probability_validates_input(self):
        network = ClosedJacksonNetwork([1.0, 1.0], 3)
        with pytest.raises(ValueError):
            network.joint_probability([1, 1, 1])
        with pytest.raises(ValueError):
            network.joint_probability([-1, 4])


class TestMarginals:
    def test_marginal_pmf_sums_to_one(self):
        network = ClosedJacksonNetwork([1.0, 0.8, 0.3], 10)
        for queue in range(3):
            assert network.marginal_pmf(queue).sum() == pytest.approx(1.0)

    def test_two_queue_symmetric_marginal_is_uniform(self):
        # Two symmetric queues sharing M jobs: every split is equally likely.
        network = ClosedJacksonNetwork([1.0, 1.0], 4)
        np.testing.assert_allclose(network.marginal_pmf(0), np.full(5, 0.2), atol=1e-9)

    def test_mean_queue_lengths_sum_to_population(self):
        network = ClosedJacksonNetwork([1.0, 0.6, 0.9, 0.2], 12)
        assert network.mean_queue_lengths().sum() == pytest.approx(12.0, rel=1e-8)

    def test_higher_utilization_means_more_wealth(self):
        network = ClosedJacksonNetwork([1.0, 0.5, 0.25], 20)
        lengths = network.mean_queue_lengths()
        assert lengths[0] > lengths[1] > lengths[2]

    def test_marginal_mean_matches_mean_queue_length(self):
        network = ClosedJacksonNetwork([1.0, 0.4, 0.7], 8)
        pmf = network.marginal_pmf(1)
        mean_from_pmf = float(np.dot(np.arange(len(pmf)), pmf))
        assert mean_from_pmf == pytest.approx(network.mean_queue_length(1), rel=1e-8)

    def test_tail_and_idle_probabilities_consistent(self):
        network = ClosedJacksonNetwork([1.0, 0.6], 6)
        for queue in range(2):
            pmf = network.marginal_pmf(queue)
            assert network.idle_probability(queue) == pytest.approx(pmf[0], rel=1e-8)
            assert network.tail_probability(queue, 3) == pytest.approx(pmf[3:].sum(), rel=1e-8)

    def test_idle_probabilities_list_every_queue(self):
        network = ClosedJacksonNetwork([1.0, 0.3, 0.6], 5)
        idle = network.idle_probabilities()
        assert idle.shape == (3,)
        assert idle.tolist() == [network.idle_probability(queue) for queue in range(3)]
        # The least utilized queue is the most often bankrupt.
        assert idle.argmax() == 1

    def test_tail_probability_bounds(self):
        network = ClosedJacksonNetwork([1.0, 1.0], 5)
        assert network.tail_probability(0, 0) == 1.0
        assert network.tail_probability(0, 6) == 0.0

    def test_queue_length_variance_nonnegative(self):
        network = ClosedJacksonNetwork([1.0, 0.3], 7)
        assert network.queue_length_variance(0) >= 0.0

    def test_index_errors(self):
        network = ClosedJacksonNetwork([1.0, 1.0], 2)
        with pytest.raises(IndexError):
            network.marginal_pmf(5)


class TestConsistencyWithMva:
    @pytest.mark.parametrize("total_jobs", [1, 5, 20])
    def test_mean_queue_lengths_match_mva(self, total_jobs):
        rng = np.random.default_rng(0)
        visit_ratios = rng.random(5) + 0.2
        service_rates = rng.random(5) + 0.5
        network = ClosedJacksonNetwork.from_rates(visit_ratios, service_rates, total_jobs)
        buzen_lengths = network.mean_queue_lengths()
        mva_lengths = mva_mean_queue_lengths(visit_ratios, service_rates, total_jobs)
        np.testing.assert_allclose(buzen_lengths, mva_lengths, rtol=1e-6)


class TestThroughputAndSampling:
    def test_relative_throughput_is_busy_probability(self):
        network = ClosedJacksonNetwork([1.0, 0.5], 4)
        for queue in range(2):
            assert network.relative_throughput(queue) == pytest.approx(
                1.0 - network.idle_probability(queue)
            )

    def test_sample_occupancy_rows_sum_to_population(self):
        network = ClosedJacksonNetwork([1.0, 0.7, 0.4], 9)
        samples = network.sample_occupancy(rng=np.random.default_rng(1), num_samples=20)
        assert samples.shape == (20, 3)
        np.testing.assert_array_equal(samples.sum(axis=1), np.full(20, 9))

    def test_sample_occupancy_mean_close_to_expectation(self):
        network = ClosedJacksonNetwork([1.0, 0.5], 10)
        samples = network.sample_occupancy(rng=np.random.default_rng(2), num_samples=400)
        np.testing.assert_allclose(
            samples.mean(axis=0), network.mean_queue_lengths(), atol=0.6
        )

    def test_sampled_marginals_match_the_exact_marginals(self):
        # Chi-square of each queue's sampled wealth against marginal_pmf,
        # with cells expecting fewer than 5 draws pooled into one.
        from scipy import stats

        network = ClosedJacksonNetwork([1.0, 0.7, 0.4, 0.9, 0.25], 14)
        num_samples = 4000
        samples = network.sample_occupancy(rng=np.random.default_rng(3), num_samples=num_samples)
        for queue in range(network.num_queues):
            observed = np.bincount(samples[:, queue], minlength=network.total_jobs + 1)
            expected = network.marginal_pmf(queue) * num_samples
            sparse = expected < 5.0
            if sparse.any():
                observed = np.append(observed[~sparse], observed[sparse].sum())
                expected = np.append(expected[~sparse], expected[sparse].sum())
            assert stats.chisquare(observed, expected).pvalue > 1e-3, queue

    def test_sample_occupancy_without_jobs_is_all_zero(self):
        samples = ClosedJacksonNetwork([1.0, 0.3], 0).sample_occupancy(
            rng=np.random.default_rng(4), num_samples=3
        )
        np.testing.assert_array_equal(samples, np.zeros((3, 2), dtype=int))

    def test_expected_wealth_gini_zero_for_symmetric(self):
        network = ClosedJacksonNetwork([1.0] * 5, 25)
        assert network.expected_wealth_gini() == pytest.approx(0.0, abs=1e-9)

    def test_expected_wealth_gini_positive_for_heterogeneous(self):
        network = ClosedJacksonNetwork([1.0, 0.2, 0.2, 0.2], 40)
        assert network.expected_wealth_gini() > 0.3
