"""Tests for open Jackson networks and MVA."""

import numpy as np
import pytest

from repro.queueing import ClosedJacksonNetwork, OpenJacksonNetwork
from repro.queueing.mva import mva_full, mva_mean_queue_lengths, mva_throughputs


class TestOpenJacksonNetwork:
    def test_single_queue_reduces_to_mm1(self):
        network = OpenJacksonNetwork([[0.0]], external_arrivals=[1.0], service_rates=[2.0])
        rho = 1.0 / 2.0
        result = network.queue_result(0)
        assert result.utilization == pytest.approx(rho)
        assert result.mean_queue_length == pytest.approx(rho / (1.0 - rho))
        assert result.idle_probability == pytest.approx(1.0 - rho)

    def test_tandem_queues(self):
        # Two queues in series: all traffic enters queue 0 then visits queue 1.
        network = OpenJacksonNetwork(
            [[0.0, 1.0], [0.0, 0.0]], external_arrivals=[1.0, 0.0], service_rates=[2.0, 4.0]
        )
        np.testing.assert_allclose(network.arrival_rates, [1.0, 1.0])
        np.testing.assert_allclose(network.utilizations, [0.5, 0.25])
        assert network.is_stable()

    def test_feedback_queue(self):
        # A single queue with feedback probability p returns: lambda = alpha / (1 - p).
        network = OpenJacksonNetwork([[0.25]], external_arrivals=[1.0], service_rates=[4.0])
        np.testing.assert_allclose(network.arrival_rates, [1.0 / 0.75])

    def test_instability_detected(self):
        network = OpenJacksonNetwork(
            [[0.0, 0.5], [0.0, 0.0]], external_arrivals=[2.0, 0.0], service_rates=[1.0, 5.0]
        )
        assert not network.is_stable()
        assert list(network.unstable_queues()) == [0]
        assert network.mean_queue_lengths()[0] == np.inf
        with pytest.raises(ValueError):
            network.marginal_pmf(0, 10)

    def test_marginal_pmf_geometric(self):
        network = OpenJacksonNetwork([[0.0]], external_arrivals=[1.0], service_rates=[2.0])
        pmf = network.marginal_pmf(0, 5)
        np.testing.assert_allclose(pmf[:2], [0.5, 0.25])

    def test_expected_total_wealth_and_throughput(self):
        network = OpenJacksonNetwork(
            [[0.0, 1.0], [0.0, 0.0]], external_arrivals=[1.0, 0.0], service_rates=[2.0, 4.0]
        )
        assert network.total_throughput() == pytest.approx(1.0)
        assert network.expected_total_wealth() == pytest.approx(1.0 + 1.0 / 3.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            OpenJacksonNetwork([[0.0, 1.2], [0.0, 0.0]], [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            OpenJacksonNetwork([[0.0]], [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            OpenJacksonNetwork([[0.0]], [-1.0], [1.0])
        with pytest.raises(ValueError):
            OpenJacksonNetwork([[1.0]], [1.0], [1.0])  # no exit -> singular

    def test_shape_sign_and_rate_validation(self):
        with pytest.raises(ValueError):
            OpenJacksonNetwork([[0.0, 0.5]], [1.0], [1.0])
        with pytest.raises(ValueError):
            OpenJacksonNetwork([[0.0, -0.1], [0.0, 0.0]], [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            OpenJacksonNetwork([[0.0]], [1.0], [0.0])

    @staticmethod
    def _random_network(seed):
        rng = np.random.default_rng(seed)
        size = 5
        routing = rng.random((size, size))
        routing *= (rng.uniform(0.3, 0.9, size) / routing.sum(axis=1))[:, None]
        alpha = rng.uniform(0.0, 1.0, size)
        mu = rng.uniform(5.0, 10.0, size)
        return routing, alpha, OpenJacksonNetwork(routing, alpha, mu)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arrival_rates_solve_the_traffic_equations(self, seed):
        routing, alpha, network = self._random_network(seed)
        lam = network.arrival_rates
        np.testing.assert_allclose(lam, alpha + lam @ routing)
        # Every credit that enters eventually leaves the network.
        exits = lam * (1.0 - routing.sum(axis=1))
        assert exits.sum() == pytest.approx(network.total_throughput())
        assert network.total_throughput() == pytest.approx(alpha.sum())

    def test_queue_results_match_the_vector_accessors(self):
        _, _, network = self._random_network(3)
        lengths = network.mean_queue_lengths()
        for queue in range(network.num_queues):
            result = network.queue_result(queue)
            assert result.arrival_rate == pytest.approx(network.arrival_rates[queue])
            assert result.service_rate == pytest.approx(network.service_rates[queue])
            assert result.mean_queue_length == pytest.approx(lengths[queue])
            assert result.stable
        assert network.expected_total_wealth() == pytest.approx(lengths.sum())

    def test_unstable_queue_result(self):
        network = OpenJacksonNetwork([[0.0]], external_arrivals=[3.0], service_rates=[2.0])
        result = network.queue_result(0)
        assert not result.stable
        assert result.utilization == pytest.approx(1.5)
        assert result.mean_queue_length == np.inf
        assert result.idle_probability == 0.0
        assert network.expected_total_wealth() == np.inf

    def test_accessors_return_copies(self):
        network = OpenJacksonNetwork([[0.0]], external_arrivals=[1.0], service_rates=[2.0])
        network.arrival_rates[0] = 99.0
        network.service_rates[0] = 99.0
        np.testing.assert_allclose(network.utilizations, [0.5])


class TestMVA:
    def test_single_queue_small_population(self):
        lengths, throughput = mva_full([1.0], [1.0], 1)
        assert lengths[0] == pytest.approx(1.0)
        assert throughput == pytest.approx(1.0)

    def test_two_symmetric_queues(self):
        lengths = mva_mean_queue_lengths([1.0, 1.0], [1.0, 1.0], 4)
        np.testing.assert_allclose(lengths, [2.0, 2.0])

    def test_lengths_sum_to_population(self):
        rng = np.random.default_rng(5)
        lengths = mva_mean_queue_lengths(rng.random(6) + 0.1, rng.random(6) + 0.5, 15)
        assert lengths.sum() == pytest.approx(15.0)

    def test_throughputs_proportional_to_visit_ratios(self):
        visit_ratios = [1.0, 2.0, 0.5]
        throughputs = mva_throughputs(visit_ratios, [1.0, 1.0, 1.0], 10)
        np.testing.assert_allclose(throughputs / throughputs[0], [1.0, 2.0, 0.5])

    def test_zero_population(self):
        lengths, throughput = mva_full([1.0, 1.0], [1.0, 1.0], 0)
        np.testing.assert_allclose(lengths, 0.0)
        assert throughput == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mva_full([], [], 3)
        with pytest.raises(ValueError):
            mva_full([1.0], [1.0, 2.0], 3)
        with pytest.raises(ValueError):
            mva_full([1.0], [0.0], 3)
        with pytest.raises(ValueError):
            mva_full([1.0], [1.0], -1)

    def test_single_queue_holds_the_whole_population(self):
        lengths, throughput = mva_full([2.0], [3.0], 7)
        np.testing.assert_allclose(lengths, [7.0])
        # Always busy: it completes mu = 3 jobs per unit time, i.e. X e = 3.
        assert throughput * 2.0 == pytest.approx(3.0)

    def test_throughput_grows_towards_the_bottleneck_bound(self):
        visit_ratios = np.array([1.0, 2.0, 0.5])
        service_rates = np.array([2.0, 3.0, 1.0])
        bound = float(np.min(service_rates / visit_ratios))
        previous = 0.0
        for population in range(1, 60):
            _, throughput = mva_full(visit_ratios, service_rates, population)
            assert previous <= throughput <= bound + 1e-12
            previous = throughput
        assert previous == pytest.approx(bound, rel=1e-2)

    @pytest.mark.parametrize("population", [1, 5, 20])
    def test_throughputs_equal_mu_times_busy_probability(self, population):
        visit_ratios = [1.0, 0.6, 1.4, 0.8]
        service_rates = [1.0, 2.0, 1.5, 0.7]
        throughputs = mva_throughputs(visit_ratios, service_rates, population)
        network = ClosedJacksonNetwork.from_rates(visit_ratios, service_rates, population)
        np.testing.assert_allclose(
            throughputs, np.asarray(service_rates) * network.relative_throughputs(), rtol=1e-9
        )
