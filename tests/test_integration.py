"""Integration tests: theory vs simulation, end-to-end pipelines.

These tests exercise the full pipeline the paper relies on — derive a
market's queueing-network model from its protocol-level description, then
check that the transaction-level simulation actually converges toward the
analytical predictions.
"""

import numpy as np
import pytest

from dense_routing import neighbor_routing
from repro.core import CreditMarket, UniformPricing, gini_index
from repro.core.condensation import grand_canonical_wealth
from repro.overlay import ring_topology, scale_free_topology
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.queueing import ClosedJacksonNetwork, solve_traffic_equations


class TestMarketToQueueingPipeline:
    def test_streaming_market_predicts_no_condensation(self):
        """Sec. V-C case 1: uniform pricing + streaming demand => healthy market.

        The paper's symmetric-utilization argument assumes peers are
        interchangeable (as on a complete or regular overlay); on a
        circulant overlay, where every peer sees the same neighbourhood,
        the prediction holds exactly.
        """
        from repro.overlay import OverlayTopology

        # 10-regular circulant: peer i links to i±1 .. i±5.
        edges = [(i, (i + step) % 120) for i in range(120) for step in range(1, 6)]
        topology = OverlayTopology.from_edges(120, edges)
        market = CreditMarket(topology, initial_credits=50.0, pricing=UniformPricing(1.0))
        equilibrium = market.equilibrium()
        assert not equilibrium.condensation.condenses
        network = market.to_queueing_network()
        # Expected wealth is spread evenly (symmetric utilization).
        assert network.expected_wealth_gini() < 0.05

    def test_scale_free_overlay_creates_condensation_risk(self):
        """On a scale-free overlay, degree heterogeneity skews utilizations
        and the condensation threshold drops far below typical endowments."""
        topology = scale_free_topology(120, seed=1)
        market = CreditMarket(topology, initial_credits=50.0, pricing=UniformPricing(1.0))
        report = market.equilibrium().condensation
        assert not report.symmetric
        assert report.threshold < 50.0
        assert report.condenses

    def test_gini_prediction_consistent_with_grand_canonical(self):
        topology = scale_free_topology(60, mean_degree=8, seed=2)
        market = CreditMarket(
            topology,
            initial_credits=10.0,
            spending_rates={peer: 1.0 for peer in topology.peers()},
        )
        equilibrium = market.equilibrium()
        exact = market.to_queueing_network().mean_queue_lengths()
        approx = grand_canonical_wealth(equilibrium.utilizations, market.total_credits)
        # The grand-canonical approximation tracks the exact expected wealth
        # profile closely in aggregate.
        assert gini_index(exact) == pytest.approx(gini_index(approx), abs=0.1)


class TestSimulationMatchesTheory:
    def test_symmetric_market_sim_converges_to_product_form_gini(self):
        """A perfectly symmetric market converges to the Bose-Einstein equilibrium."""
        config = MarketSimConfig(
            num_peers=80,
            initial_credits=10.0,
            horizon=1500.0,
            step=2.0,
            utilization=UtilizationMode.SYMMETRIC,
            topology_mean_degree=10.0,
            sample_interval=100.0,
            seed=5,
        )
        result = CreditMarketSimulator.run_config(config)
        # Analytical equilibrium: uniform composition of M credits over N peers.
        network = ClosedJacksonNetwork([1.0] * 80, 800)
        samples = network.sample_occupancy(rng=np.random.default_rng(0), num_samples=40)
        predicted_gini = float(np.mean([gini_index(sample.astype(float)) for sample in samples]))
        assert result.stabilized_gini == pytest.approx(predicted_gini, abs=0.12)

    def test_two_queue_market_matches_closed_network_means(self):
        """A tiny asymmetric market's long-run wealth split matches the Jackson model."""
        # Ring of 4 peers with heterogeneous spending rates.
        topology = ring_topology(4)
        spending = {0: 2.0, 1: 1.0, 2: 2.0, 3: 1.0}
        routing = neighbor_routing(topology)
        lam = solve_traffic_equations(routing).arrival_rates
        utilizations = (lam / np.array([spending[i] for i in range(4)]))
        network = ClosedJacksonNetwork(utilizations, 4 * 25)
        predicted = network.mean_queue_lengths()

        config = MarketSimConfig(
            num_peers=4,
            initial_credits=25.0,
            horizon=4000.0,
            step=1.0,
            topology_mean_degree=2.0,
            sample_interval=200.0,
            seed=9,
        )
        simulator = CreditMarketSimulator(config, topology=topology)
        # Override the spending rates to the heterogeneous profile.
        for peer, rate in spending.items():
            simulator._base_mu[simulator._slots.slot(peer)] = rate
        result = simulator.run()
        measured = result.final_wealths
        # Peers with the lower spending rate hold more credits, as predicted.
        assert (measured[1] + measured[3]) > (measured[0] + measured[2])
        assert (predicted[1] + predicted[3]) > (predicted[0] + predicted[2])

    def test_exchange_efficiency_throttles_simulated_spending(self):
        """Eq. 9: with tiny average wealth the realised spending rate collapses."""
        rich = CreditMarketSimulator.run_config(
            MarketSimConfig(
                num_peers=60, initial_credits=20.0, horizon=400.0, step=2.0,
                topology_mean_degree=8.0, sample_interval=100.0, seed=3,
            )
        )
        poor = CreditMarketSimulator.run_config(
            MarketSimConfig(
                num_peers=60, initial_credits=0.5, horizon=400.0, step=2.0,
                topology_mean_degree=8.0, sample_interval=100.0, seed=3,
            )
        )
        assert poor.spending_rates.mean() < rich.spending_rates.mean()
        # The rich market spends at nearly the full configured rate of 1/s.
        assert rich.spending_rates.mean() > 0.7


class TestStreamingAndMarketSimulatorsAgree:
    def test_both_simulators_show_condensation_under_heterogeneous_prices(self):
        from repro.core import PerPeerFlatPricing
        from repro.utils.rng import make_rng

        rng = make_rng(7, "integration-prices")
        num_peers = 40
        prices = {peer: 1.0 + float(rng.poisson(1.0)) for peer in range(num_peers)}
        pricing = PerPeerFlatPricing(prices)

        market_result = CreditMarketSimulator.run_config(
            MarketSimConfig(
                num_peers=num_peers, initial_credits=20.0, horizon=1200.0, step=2.0,
                utilization=UtilizationMode.ASYMMETRIC, pricing=pricing,
                topology_mean_degree=8.0, sample_interval=100.0, seed=7,
            ),
            topology=scale_free_topology(num_peers, mean_degree=8, seed=7),
        )
        streaming_result = StreamingMarketSimulator.run_config(
            StreamingSimConfig(
                num_peers=num_peers, initial_credits=20.0, horizon=250.0, pricing=pricing,
                topology_mean_degree=8.0, upload_capacity=1, sample_interval=50.0, seed=7,
            ),
            topology=scale_free_topology(num_peers, mean_degree=8, seed=7),
        )
        # Both levels of fidelity agree on the qualitative outcome: wealth
        # becomes substantially skewed under heterogeneous per-seller prices.
        assert market_result.stabilized_gini > 0.3
        assert streaming_result.final_gini > 0.2
