"""Tests for the traffic equations (Lemma 1) and utilization vector (Eq. 2)."""

import numpy as np
import pytest

from dense_routing import neighbor_routing
from repro.overlay import ring_topology, scale_free_topology
from repro.queueing import RoutingMatrix, solve_traffic_equations, spectral_radius
from repro.queueing.traffic import normalized_utilizations, stationary_distribution


class TestSpectralRadius:
    def test_stochastic_matrix_has_radius_one(self):
        routing = RoutingMatrix.random_stochastic(25, seed=1)
        assert spectral_radius(routing) == pytest.approx(1.0, abs=1e-8)


class TestStationaryDistribution:
    def test_doubly_stochastic_gives_uniform(self):
        routing = neighbor_routing(ring_topology(6))
        pi = stationary_distribution(routing)
        np.testing.assert_allclose(pi, 1.0 / 6.0, atol=1e-8)

    def test_periodic_chain_converges(self):
        # A two-state swap chain is periodic; damping must still converge.
        pi = stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-8)

    def test_known_two_state_chain(self):
        pi = stationary_distribution([[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-6)


class TestLemmaOne:
    """Lemma 1: a positive solution of lambda P = lambda always exists."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_stochastic_matrices(self, seed):
        routing = RoutingMatrix.random_stochastic(30, density=0.4, seed=seed)
        solution = solve_traffic_equations(routing)
        assert solution.residual < 1e-6
        assert np.all(solution.arrival_rates > 0)

    def test_scale_free_market(self):
        topology = scale_free_topology(150, seed=5)
        routing = neighbor_routing(topology)
        solution = solve_traffic_equations(routing)
        assert solution.residual < 1e-6
        assert np.all(solution.arrival_rates > 0)
        assert solution.unique_direction

    def test_identity_matrix_has_many_solutions(self):
        solution = solve_traffic_equations(np.eye(4))
        assert solution.residual < 1e-9
        assert not solution.unique_direction

    def test_scaling_invariance(self):
        routing = RoutingMatrix.random_stochastic(10, seed=7)
        solution = solve_traffic_equations(routing)
        scaled = solution.scaled_to_sum(100.0)
        assert scaled.sum() == pytest.approx(100.0)
        residual = np.max(np.abs(scaled @ routing.matrix - scaled))
        assert residual < 1e-6

    def test_scaled_to_max(self):
        routing = RoutingMatrix.random_stochastic(10, seed=8)
        solution = solve_traffic_equations(routing)
        scaled = solution.scaled_to_max(2.5)
        assert scaled.max() == pytest.approx(2.5)

    def test_service_rate_length_validation(self):
        routing = RoutingMatrix.random_stochastic(5, seed=9)
        with pytest.raises(ValueError):
            solve_traffic_equations(routing, service_rates=[1.0, 2.0])

    def test_degree_proportional_for_uniform_routing(self):
        # For uniform neighbour routing, the stationary arrival rates are
        # proportional to peer degree (random-walk stationary distribution).
        topology = scale_free_topology(80, mean_degree=8, seed=10)
        routing = neighbor_routing(topology)
        solution = solve_traffic_equations(routing)
        degrees = np.array([topology.degree(peer) for peer in topology.peers()], dtype=float)
        expected = degrees / degrees.sum() * len(degrees)
        np.testing.assert_allclose(solution.arrival_rates, expected, rtol=1e-6)


class TestNormalizedUtilizations:
    def test_basic_normalisation(self):
        utilizations = normalized_utilizations([1.0, 2.0, 4.0], [2.0, 2.0, 4.0])
        np.testing.assert_allclose(utilizations, [0.5, 1.0, 1.0])

    def test_max_is_one(self):
        rng = np.random.default_rng(3)
        lam = rng.random(20) + 0.1
        mu = rng.random(20) + 0.5
        utilizations = normalized_utilizations(lam, mu)
        assert utilizations.max() == pytest.approx(1.0)
        assert np.all(utilizations > 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            normalized_utilizations([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            normalized_utilizations([1.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            normalized_utilizations([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            normalized_utilizations([-1.0, 1.0], [1.0, 1.0])
