"""Symmetric spending rates in closed form, against dense traffic-equation oracles.

Routing ``P_ij = w_j / W_i`` over the overlay is a reversible random
walk, so the simulator sets ``λ_i = w_i · W_i`` without building ``P``.
These tests build ``P`` densely from ``edges()`` and solve it the old way.
"""

import numpy as np
import pytest

from dense_routing import neighbor_routing
from drawn_prices import poisson_prices
from repro.core.pricing import PerPeerFlatPricing, UniformPricing
from repro.overlay import OverlayTopology, scale_free_topology
from repro.p2psim import CreditMarketSimulator, MarketSimConfig, UtilizationMode
from repro.queueing.traffic import solve_traffic_equations, stationary_distribution
from repro.utils.rng import make_rng


def symmetric_market(topology, pricing, **overrides):
    settings = dict(
        num_peers=topology.num_peers, utilization=UtilizationMode.SYMMETRIC,
        base_spending_rate=2.0, pricing=pricing, topology_mean_degree=6.0, seed=4,
    )
    settings.update(overrides)
    return CreditMarketSimulator(MarketSimConfig(**settings), topology=topology)


def rates(sim):
    """Base spending rates in ascending peer order."""
    return sim._base_mu[sim._slots.slot_of[sim.topology.peers()]]


def seller_weights(sim):
    """The clipped prices routing uses, quoted from the scheme by peer id."""
    prices = sim.config.pricing.price_array(sim.topology.peers())
    return np.clip(prices, 1e-12, None)


@pytest.mark.parametrize("num_peers", [50, 200, 500])
def test_matches_the_eigenvector_solve_on_scale_free_overlays(num_peers):
    topology = scale_free_topology(num_peers, mean_degree=6.0, seed=num_peers)
    sim = symmetric_market(topology, poisson_prices(3.0, seed=num_peers))
    solution = solve_traffic_equations(neighbor_routing(topology, seller_weights(sim)))
    assert solution.unique_direction
    lam = solution.arrival_rates
    np.testing.assert_allclose(rates(sim), lam / lam.mean() * 2.0, rtol=1e-10)


def test_components_and_an_isolated_peer_match_the_power_method():
    # A triangle, a 4-path and an isolated peer: each component keeps the
    # share of the uniform start it began with, so λ sums to its size.
    topology = OverlayTopology.from_edges(
        8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]
    )
    pricing = PerPeerFlatPricing({peer: 1.0 + peer % 3 for peer in range(8)})
    sim = symmetric_market(topology, pricing)
    pi = stationary_distribution(neighbor_routing(topology, seller_weights(sim)))
    np.testing.assert_allclose(rates(sim), pi * 8 * 2.0, rtol=1e-9)
    got = rates(sim) / 2.0
    assert [got[:3].sum(), got[3:7].sum(), got[7]] == pytest.approx([3.0, 4.0, 1.0], rel=1e-12)


def test_zero_priced_sellers_balance_the_simulators_own_routing_rows():
    # Zero prices are clipped to 1e-12, so those sellers earn almost
    # nothing; λP = λ must still hold on the CDFs the kernel routes with.
    topology = scale_free_topology(300, mean_degree=6.0, seed=8)
    sim = symmetric_market(topology, poisson_prices(1.0, seed=8, min_price=0.0))
    assert (sim.config.pricing.price_array(topology.peers()) == 0).sum() > 50
    pack = sim._slots.pack()
    lam = sim._base_mu[pack.alive_slots]
    cdf = sim._edge_cdf
    probs = np.diff(np.concatenate([[0.0], cdf]))
    probs[pack.row_start[:-1][pack.degrees > 0]] = cdf[pack.row_start[:-1][pack.degrees > 0]]
    spender = np.repeat(np.arange(pack.alive_slots.size), pack.degrees)
    flow = np.bincount(pack.edge_dst, weights=lam[spender] * probs, minlength=sim._slots.capacity)
    np.testing.assert_allclose(flow[pack.alive_slots], lam, rtol=1e-9, atol=1e-12 * lam.max())


def test_noise_is_one_vector_draw_equal_to_per_peer_draws():
    topology = scale_free_topology(120, mean_degree=6.0, seed=3)
    quiet = symmetric_market(topology, UniformPricing())
    noisy = symmetric_market(topology, UniformPricing(), spending_rate_noise=0.4)
    sigma = float(np.sqrt(np.log(1.0 + 0.4**2)))
    rng = make_rng(4, "market-sim")
    expected = [
        float(rate) * float(rng.lognormal(-sigma**2 / 2.0, sigma)) for rate in rates(quiet)
    ]
    assert rates(noisy).tobytes() == np.array(expected).tobytes()


def test_set_up_builds_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("symmetric set-up must not solve a dense eigenproblem")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    sim = symmetric_market(scale_free_topology(3000, mean_degree=8.0, seed=1), UniformPricing())
    assert rates(sim).mean() == pytest.approx(2.0, rel=1e-12)
    assert (rates(sim) > 0).all()


def test_a_rounds_joiners_get_the_mean_rate_of_the_peers_alive_before_them():
    topology = scale_free_topology(60, mean_degree=6.0, seed=2)
    sim = symmetric_market(topology, UniformPricing(), spending_rate_noise=0.5)
    before = float(sim._base_mu[sim._alive].mean())
    joiners = np.array([sim._tracker.join() for _ in range(3)])
    slots = sim._admit_joiners(joiners)
    assert sim._base_mu[slots].tolist() == [before] * 3
