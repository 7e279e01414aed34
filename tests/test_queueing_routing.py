"""Tests for the routing (credit transfer probability) matrix."""

import numpy as np
import pytest

from dense_routing import neighbor_routing
from repro.overlay import ring_topology, scale_free_topology
from repro.queueing import RoutingMatrix


class TestConstruction:
    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            RoutingMatrix([[0.5, 0.2], [0.5, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RoutingMatrix([[1.2, -0.2], [0.5, 0.5]])

    def test_accepts_and_exposes_matrix(self):
        routing = RoutingMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert routing.size == 2
        assert routing.probability(0, 1) == 1.0
        np.testing.assert_allclose(routing.row(0), [0.0, 1.0])

    def test_matrix_property_returns_copy(self):
        routing = RoutingMatrix([[0.0, 1.0], [1.0, 0.0]])
        matrix = routing.matrix
        matrix[0, 0] = 99.0
        assert routing.probability(0, 0) == 0.0


class TestFromPurchaseRates:
    def test_rows_normalised(self):
        routing = RoutingMatrix.from_purchase_rates([[0.0, 2.0, 2.0], [1.0, 0.0, 3.0], [0, 0, 0]])
        assert routing.probability(0, 1) == pytest.approx(0.5)
        assert routing.probability(1, 2) == pytest.approx(0.75)
        assert routing.probability(2, 2) == 1.0  # all-zero row becomes a self loop

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            RoutingMatrix.from_purchase_rates([[0.0, -1.0], [1.0, 0.0]])


class TestRandomStochastic:
    def test_rows_sum_to_one(self):
        routing = RoutingMatrix.random_stochastic(20, density=0.3, seed=1)
        np.testing.assert_allclose(routing.matrix.sum(axis=1), 1.0)

    def test_reserve_fraction_applied(self):
        routing = RoutingMatrix.random_stochastic(10, reserve_fraction=0.4, seed=2)
        assert np.all(np.diag(routing.matrix) >= 0.4 - 1e-9)

    def test_reproducible(self):
        a = RoutingMatrix.random_stochastic(15, seed=3).matrix
        b = RoutingMatrix.random_stochastic(15, seed=3).matrix
        np.testing.assert_array_equal(a, b)


class TestDerivedMatrices:
    def test_with_reserve_fraction(self):
        topology = ring_topology(5)
        routing = neighbor_routing(topology).with_reserve_fraction(0.3)
        np.testing.assert_allclose(routing.self_loop_fractions(), 0.3)
        np.testing.assert_allclose(routing.matrix.sum(axis=1), 1.0)

    def test_restricted_to_subset(self):
        routing = neighbor_routing(scale_free_topology(30, mean_degree=6, seed=4))
        sub = routing.restricted_to(range(10))
        assert sub.size == 10
        np.testing.assert_allclose(sub.matrix.sum(axis=1), 1.0)

    def test_is_irreducible_ring(self):
        routing = neighbor_routing(ring_topology(6))
        assert routing.is_irreducible()

    def test_is_irreducible_detects_disconnection(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = matrix[1, 0] = 1.0
        matrix[2, 3] = matrix[3, 2] = 1.0
        assert not RoutingMatrix(matrix).is_irreducible()

    def test_to_dict(self):
        routing = RoutingMatrix([[0.5, 0.5], [1.0, 0.0]])
        data = routing.to_dict()
        assert data["size"] == 2
        assert data["matrix"][0] == [0.5, 0.5]
