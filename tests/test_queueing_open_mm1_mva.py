"""Tests for open Jackson networks, M/M/1 building blocks and MVA."""

import numpy as np
import pytest

from repro.queueing import ClosedJacksonNetwork, MM1KQueue, MM1Queue, OpenJacksonNetwork
from repro.queueing.mva import mva_full, mva_mean_queue_lengths, mva_throughputs


class TestMM1:
    def test_standard_formulas(self):
        queue = MM1Queue(arrival_rate=1.0, service_rate=2.0)
        assert queue.utilization == pytest.approx(0.5)
        assert queue.mean_queue_length == pytest.approx(1.0)
        assert queue.mean_waiting_time == pytest.approx(1.0)
        assert queue.idle_probability == pytest.approx(0.5)

    def test_pmf_is_geometric(self):
        queue = MM1Queue(arrival_rate=1.0, service_rate=2.0)
        pmf = queue.queue_length_pmf(10)
        np.testing.assert_allclose(pmf[:3], [0.5, 0.25, 0.125])

    def test_tail_probability(self):
        queue = MM1Queue(arrival_rate=1.0, service_rate=4.0)
        assert queue.tail_probability(2) == pytest.approx(0.0625)
        assert queue.tail_probability(0) == 1.0

    def test_unstable_queue_raises(self):
        queue = MM1Queue(arrival_rate=3.0, service_rate=2.0)
        assert not queue.is_stable
        with pytest.raises(ValueError):
            _ = queue.mean_queue_length

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            MM1Queue(arrival_rate=0.0, service_rate=1.0)

    @pytest.mark.parametrize("arrival_rate, service_rate", [(0.5, 1.0), (1.0, 3.0), (4.5, 5.0)])
    def test_littles_law(self, arrival_rate, service_rate):
        queue = MM1Queue(arrival_rate, service_rate)
        assert queue.mean_queue_length == pytest.approx(
            arrival_rate * queue.mean_waiting_time
        )

    def test_long_pmf_has_unit_mass_and_the_closed_form_mean(self):
        queue = MM1Queue(arrival_rate=3.0, service_rate=4.0)
        pmf = queue.queue_length_pmf(400)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.dot(np.arange(pmf.size), pmf) == pytest.approx(queue.mean_queue_length)

    def test_tail_is_the_complement_of_the_pmf_head(self):
        queue = MM1Queue(arrival_rate=2.0, service_rate=5.0)
        pmf = queue.queue_length_pmf(10)
        for threshold in range(1, 8):
            assert queue.tail_probability(threshold) == pytest.approx(
                1.0 - pmf[:threshold].sum()
            )
        assert queue.tail_probability(-3) == 1.0

    def test_every_steady_state_quantity_needs_stability(self):
        queue = MM1Queue(arrival_rate=2.0, service_rate=2.0)
        assert not queue.is_stable
        for read in (
            lambda: queue.mean_waiting_time,
            lambda: queue.idle_probability,
            lambda: queue.queue_length_pmf(3),
            lambda: queue.tail_probability(1),
        ):
            with pytest.raises(ValueError):
                read()


class TestMM1K:
    def test_blocking_probability_matches_closed_form(self):
        queue = MM1KQueue(arrival_rate=1.0, service_rate=1.0, capacity=3)
        # rho=1: uniform over 0..3, blocking = 1/4.
        assert queue.blocking_probability == pytest.approx(0.25)
        assert queue.mean_queue_length == pytest.approx(1.5)

    def test_effective_throughput(self):
        queue = MM1KQueue(arrival_rate=2.0, service_rate=1.0, capacity=2)
        pmf = queue.queue_length_pmf()
        assert pmf.sum() == pytest.approx(1.0)
        assert queue.effective_throughput == pytest.approx(2.0 * (1 - pmf[-1]))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MM1KQueue(arrival_rate=1.0, service_rate=1.0, capacity=0)

    def test_large_buffer_approaches_mm1(self):
        finite = MM1KQueue(arrival_rate=1.0, service_rate=2.0, capacity=60)
        infinite = MM1Queue(arrival_rate=1.0, service_rate=2.0)
        np.testing.assert_allclose(
            finite.queue_length_pmf(), infinite.queue_length_pmf(60), atol=1e-12
        )
        assert finite.mean_queue_length == pytest.approx(infinite.mean_queue_length)
        assert finite.blocking_probability < 1e-15

    def test_overload_is_served_at_most_at_the_service_rate(self):
        queue = MM1KQueue(arrival_rate=5.0, service_rate=1.0, capacity=4)
        pmf = queue.queue_length_pmf()
        # Flow balance: served jobs leave at mu whenever the server is busy.
        assert queue.effective_throughput == pytest.approx(1.0 * (1.0 - pmf[0]))
        assert queue.effective_throughput < 1.0
        assert queue.blocking_probability > 0.75
        assert queue.mean_queue_length > 3.0


class TestOpenJacksonNetwork:
    def test_single_queue_reduces_to_mm1(self):
        network = OpenJacksonNetwork([[0.0]], external_arrivals=[1.0], service_rates=[2.0])
        reference = MM1Queue(1.0, 2.0)
        result = network.queue_result(0)
        assert result.utilization == pytest.approx(reference.utilization)
        assert result.mean_queue_length == pytest.approx(reference.mean_queue_length)
        assert result.idle_probability == pytest.approx(reference.idle_probability)

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
