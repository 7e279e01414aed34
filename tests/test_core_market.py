"""Tests for the credit market and its Table I mapping onto a queueing network."""

import numpy as np
import pytest

from repro.core import CreditMarket, PerPeerFlatPricing, UniformPricing
from repro.overlay import OverlayTopology, ring_topology, scale_free_topology
from repro.queueing import ClosedJacksonNetwork


def _split_over_neighbors(topology, aggregate_rates):
    """Per-neighbour chunk rates: each buyer's aggregate rate split evenly."""
    rates = {}
    for buyer, aggregate in zip(topology.peers(), aggregate_rates):
        neighbors = sorted(topology.neighbors(buyer))
        rates[buyer] = {seller: aggregate / len(neighbors) for seller in neighbors}
    return rates


def streaming_chunk_rates(topology):
    """Sec. V-C case 1: every peer downloads at the same stream rate, 1 chunk/s."""
    return _split_over_neighbors(topology, [1.0] * topology.num_peers)


def elastic_chunk_rates(topology, seed):
    """Sec. V-C case 2: lognormal aggregate download rates, mean 1 and CV 1."""
    sigma = np.sqrt(np.log(2.0))
    rng = np.random.default_rng(seed)
    aggregates = rng.lognormal(-(sigma**2) / 2.0, sigma, topology.num_peers)
    return _split_over_neighbors(topology, aggregates)


class TestConstruction:
    def test_requires_two_peers(self):
        with pytest.raises(ValueError):
            CreditMarket(OverlayTopology([0]), initial_credits=10.0)

    def test_default_market_properties(self):
        topology = ring_topology(6)
        market = CreditMarket(topology, initial_credits=25.0)
        assert market.num_peers == 6
        assert market.total_credits == pytest.approx(150.0)
        assert market.average_wealth == pytest.approx(25.0)
        np.testing.assert_allclose(market.wealth_vector(), 25.0)

    def test_total_credits_sums_balances_in_peer_order(self):
        # Ten balances of 0.1 summed one after another give 0.9999999999999999,
        # not 10 * 0.1: the total is the sequential sum, bit for bit.
        market = CreditMarket(ring_topology(10), initial_credits=0.1)
        assert market.total_credits == sum([0.1] * 10) == 0.9999999999999999
        assert market.average_wealth == 0.9999999999999999 / 10

    def test_wealth_vector_is_a_copy(self):
        market = CreditMarket(ring_topology(4), initial_credits=10.0)
        market.wealth_vector()[0] = 99.0
        assert market.wealth_vector().tolist() == [10.0] * 4
        assert market.total_credits == 40.0

    def test_explicit_spending_rates(self):
        topology = ring_topology(4)
        market = CreditMarket(
            topology, initial_credits=10.0, spending_rates={0: 1.0, 1: 2.0, 2: 1.0, 3: 2.0}
        )
        np.testing.assert_allclose(market.spending_rates, [1.0, 2.0, 1.0, 2.0])

    def test_missing_spending_rate_rejected(self):
        topology = ring_topology(4)
        with pytest.raises(ValueError):
            CreditMarket(topology, initial_credits=10.0, spending_rates={0: 1.0})

    def test_chunk_rates_must_follow_topology(self):
        topology = ring_topology(4)
        with pytest.raises(ValueError):
            CreditMarket(topology, initial_credits=10.0, chunk_rates={0: {2: 1.0}})
        with pytest.raises(KeyError):
            CreditMarket(topology, initial_credits=10.0, chunk_rates={0: {9: 1.0}})

    def test_reserve_fraction_on_routing_diagonal(self):
        topology = ring_topology(5)
        market = CreditMarket(topology, initial_credits=10.0, reserve_fraction=0.25)
        np.testing.assert_allclose(market.routing_matrix.self_loop_fractions(), 0.25)

    def test_chunk_rates_reject_unknown_buyers_and_negative_rates(self):
        topology = ring_topology(4)
        with pytest.raises(KeyError):
            CreditMarket(topology, initial_credits=10.0, chunk_rates={9: {0: 1.0}})
        with pytest.raises(ValueError):
            CreditMarket(topology, initial_credits=10.0, chunk_rates={0: {1: -1.0}})

    def test_spending_rates_reject_unknown_peers_and_non_positive_rates(self):
        topology = ring_topology(3)
        with pytest.raises(KeyError):
            CreditMarket(topology, spending_rates={0: 1.0, 1: 1.0, 2: 1.0, 7: 1.0})
        with pytest.raises(ValueError):
            CreditMarket(topology, spending_rates={0: 1.0, 1: 0.0, 2: 1.0})

    @pytest.mark.parametrize(
        "keywords", [{"initial_credits": 0.0}, {"initial_credits": -5.0}, {"reserve_fraction": 1.5}]
    )
    def test_invalid_scalars_rejected(self, keywords):
        with pytest.raises(ValueError):
            CreditMarket(ring_topology(4), **keywords)

    def test_accessors_return_copies(self):
        market = CreditMarket(ring_topology(4), initial_credits=10.0)
        market.peer_order.append(99)
        market.spending_rates[0] = 99.0
        assert market.peer_order == [0, 1, 2, 3]
        np.testing.assert_allclose(market.spending_rates, 1.0)

    def test_buyer_without_purchases_spends_at_the_mean_price(self):
        topology = ring_topology(4)
        rates = streaming_chunk_rates(topology)
        rates[2] = {seller: 0.0 for seller in rates[2]}
        market = CreditMarket(
            topology, initial_credits=10.0, pricing=UniformPricing(3.0), chunk_rates=rates
        )
        np.testing.assert_allclose(market.spending_rates, [3.0, 3.0, 3.0, 3.0])
        # Its routing row has no purchase weight to normalise, yet stays stochastic.
        np.testing.assert_allclose(market.routing_matrix.matrix.sum(axis=1), 1.0)

    def test_routing_only_between_neighbours(self):
        topology = scale_free_topology(40, mean_degree=4, seed=2)
        market = CreditMarket(topology, initial_credits=10.0)
        matrix = market.routing_matrix.matrix
        order = market.peer_order
        for i, buyer in enumerate(order):
            for j, seller in enumerate(order):
                if matrix[i, j] > 0:
                    assert topology.has_edge(buyer, seller)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)


class TestSectionVC:
    """Sec. V-C: mu_i = sum_j r_ji s_j and p_ij proportional to r_ji s_j."""

    def test_uniform_pricing_streaming_rates(self):
        topology = ring_topology(6)
        market = CreditMarket(
            topology,
            initial_credits=10.0,
            pricing=UniformPricing(2.0),
            chunk_rates=streaming_chunk_rates(topology),
        )
        # mu_i = s * r = 2.0 for every peer.
        np.testing.assert_allclose(market.spending_rates, 2.0)
        equilibrium = market.equilibrium()
        # Streaming + uniform pricing => symmetric utilization (Sec. V-C case 1).
        np.testing.assert_allclose(equilibrium.utilizations, 1.0, atol=1e-8)
        assert not equilibrium.condensation.condenses

    def test_heterogeneous_prices_shape_rates_and_routing(self):
        # Peer 0 buys from peers 1 (price 3) and 2 (price 1), half its stream each.
        topology = OverlayTopology.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        pricing = PerPeerFlatPricing({0: 1.0, 1: 3.0, 2: 1.0})
        market = CreditMarket(
            topology,
            initial_credits=10.0,
            pricing=pricing,
            chunk_rates=streaming_chunk_rates(topology),
        )
        # mu_0 = 0.5 * 3 + 0.5 * 1 = 2 (Sec. V-C).
        assert market.spending_rates[0] == pytest.approx(2.0)
        routing = market.routing_matrix
        # Credits flow toward the expensive seller in proportion to r * s.
        assert routing.probability(0, 1) == pytest.approx(0.75)
        assert routing.probability(0, 2) == pytest.approx(0.25)

    def test_zero_priced_sellers_draw_no_credits(self):
        # Fig. 1's Poisson prices include sellers that give chunks away: a
        # buyer spends nothing on them and routes no credit to them.
        topology = OverlayTopology.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        pricing = PerPeerFlatPricing({0: 1.0, 1: 0.0, 2: 2.0})
        market = CreditMarket(
            topology,
            initial_credits=10.0,
            pricing=pricing,
            chunk_rates=streaming_chunk_rates(topology),
        )
        # mu_0 = 0.5 * 0 + 0.5 * 2 = 1 (Sec. V-C).
        assert market.spending_rates[0] == pytest.approx(1.0)
        routing = market.routing_matrix
        assert routing.probability(0, 1) == 0.0
        assert routing.probability(0, 2) == pytest.approx(1.0)

    def test_elastic_demand_creates_asymmetric_utilization(self):
        topology = scale_free_topology(80, mean_degree=8, seed=3)
        market = CreditMarket(
            topology,
            initial_credits=50.0,
            chunk_rates=elastic_chunk_rates(topology, seed=4),
        )
        utilizations = market.equilibrium().utilizations
        assert utilizations.std() > 0.01


class TestEquilibrium:
    def test_lambda_bounded_by_mu(self):
        topology = scale_free_topology(60, mean_degree=8, seed=5)
        market = CreditMarket(topology, initial_credits=20.0)
        equilibrium = market.equilibrium()
        assert np.all(equilibrium.arrival_rates <= equilibrium.service_rates + 1e-9)
        assert equilibrium.traffic_residual < 1e-6

    @pytest.mark.parametrize("seed", [3, 11])
    def test_arrival_rates_solve_the_traffic_equations(self, seed):
        topology = scale_free_topology(50, mean_degree=6, seed=seed)
        market = CreditMarket(
            topology, initial_credits=10.0, chunk_rates=elastic_chunk_rates(topology, seed)
        )
        equilibrium = market.equilibrium()
        lam = equilibrium.arrival_rates
        np.testing.assert_allclose(lam @ market.routing_matrix.matrix, lam, atol=1e-9)
        # The scale of lambda is fixed by lambda_i = mu_i at the busiest peer.
        ratios = lam / equilibrium.service_rates
        assert ratios.max() == pytest.approx(1.0)
        assert np.argmax(ratios) == np.argmax(equilibrium.utilizations)
        assert equilibrium.utilizations.max() == pytest.approx(1.0)

    def test_equilibrium_cached_unless_recomputed(self):
        market = CreditMarket(ring_topology(5), initial_credits=10.0)
        first = market.equilibrium()
        assert market.equilibrium() is first
        assert market.equilibrium(recompute=True) is not first


class TestTableOneMapping:
    def test_to_queueing_network_dimensions(self):
        topology = ring_topology(8)
        market = CreditMarket(topology, initial_credits=5.0)
        network = market.to_queueing_network()
        assert isinstance(network, ClosedJacksonNetwork)
        assert network.num_queues == 8
        assert network.total_jobs == 40
        assert network.average_wealth == pytest.approx(5.0)

    def test_explicit_total_credits(self):
        market = CreditMarket(ring_topology(4), initial_credits=5.0)
        network = market.to_queueing_network(total_credits=100)
        assert network.total_jobs == 100

    def test_mapping_dictionary_is_consistent(self):
        topology = ring_topology(6)
        market = CreditMarket(topology, initial_credits=12.0)
        mapping = market.table_one_mapping()
        assert mapping["num_peers_N"] == mapping["num_queues_N"] == 6
        assert mapping["total_credits_M"] == pytest.approx(72.0)
        assert mapping["total_jobs_M"] == 72
        assert mapping["routing_probabilities_p_ij"].shape == (6, 6)
        np.testing.assert_allclose(mapping["credit_pools_B_i"], 12.0)
        np.testing.assert_allclose(
            mapping["routing_probabilities_p_ij"].sum(axis=1), 1.0
        )

    def test_expected_wealth_conserves_credits(self):
        topology = scale_free_topology(30, mean_degree=6, seed=7)
        market = CreditMarket(topology, initial_credits=4.0)
        network = market.to_queueing_network()
        assert network.mean_queue_lengths().sum() == pytest.approx(120.0, rel=1e-6)

    def test_predicted_statistics(self):
        topology = ring_topology(10)
        market = CreditMarket(topology, initial_credits=3.0)
        gini = market.predicted_gini()
        bankrupt = market.predicted_bankruptcy_fraction()
        assert 0.0 <= gini < 1.0
        assert 0.0 < bankrupt < 1.0
        # Symmetric ring: expected wealths equal, so the expected-wealth Gini is ~0.
        assert gini == pytest.approx(0.0, abs=1e-6)
