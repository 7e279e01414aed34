"""The law the membership tracker draws a joiner's neighbours from.

The tracker draws from integer weight tables, not with
``Generator.choice``, so its random stream is its own.  What it must
keep is the law: successive sampling without replacement in proportion
to ``degree + 1``.  These tests check that law directly on a small hub
graph, and on churned overlays against :class:`ReferenceTracker`, which
samples with an exact copy of ``choice``'s algorithm.
"""

import numpy as np
import pytest
from scipy import stats

from choice_reference import ReferenceTracker, weighted_positions
from repro.overlay import MembershipTracker, OverlayTopology, scale_free_topology
from repro.utils.stats import confidence_interval


def _hub_weights(size, seed):
    """``degree + 1`` weights of a sparse overlay with a few hundred-edge hubs."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 5, size).astype(float)
    weights[rng.choice(size, 3, replace=False)] = rng.integers(100, 900, 3)
    return weights


@pytest.mark.parametrize("where", ["first", "middle", "last", "absent"])
def test_reference_draws_what_generator_choice_draws(where):
    """The reference sampler against the live ``Generator.choice``.

    Excluding a position by giving it weight 0 must pick what ``choice``
    picks among the other positions and leave the generator in the same
    state, for every count up to the whole population, which takes many
    redraw rounds once the hubs are picked.
    """
    size = 40
    for seed in range(5):
        weights = _hub_weights(size, seed)
        skip = {"first": 0, "middle": size // 2, "last": size - 1, "absent": -1}[where]
        others = np.flatnonzero(np.arange(size) != skip)
        total = weights[others].sum()
        for count in range(1, others.size + 1):
            expected_rng = np.random.default_rng([seed, count])
            actual_rng = np.random.default_rng([seed, count])
            p = weights[others] / weights[others].sum()
            expected = others[expected_rng.choice(others.size, count, replace=False, p=p)]
            actual = weighted_positions(actual_rng, weights, total, skip, count)
            assert actual.tolist() == expected.tolist()
            assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


def _hub_graph():
    """A hub over eleven peers plus a short chain: degrees 11, 3, 2 and 1."""
    edges = [(0, peer) for peer in range(1, 12)] + [(1, 2), (2, 3), (3, 4)]
    return OverlayTopology.from_edges(12, edges)


@pytest.mark.parametrize("exclude", [0, 4, 99])
def test_first_and_second_picks_follow_successive_sampling(exclude):
    """Chi-square of each pick position against its exact probability.

    With weights ``w`` over the candidates, the first pick is ``i`` with
    probability ``w_i / W``, and the second is ``j`` with probability
    ``Σ_{i≠j} (w_i / W) · w_j / (W − w_i)``.  The exclusion (the hub, a
    chain peer, or a peer not in the overlay) is part of the law: the
    draws go to the other peers only.
    """
    topology = _hub_graph()
    tracker = MembershipTracker(topology, seed=21)
    candidates = [peer for peer in topology.peers() if peer != exclude]
    weights = np.array([topology.degree(peer) + 1.0 for peer in candidates])
    first = weights / weights.sum()
    odds = first / (1.0 - first)
    second = first * (odds.sum() - odds)
    draws = 8000
    picks = np.array([tracker.select_neighbors(exclude, count=2) for _ in range(draws)])
    position = {peer: index for index, peer in enumerate(candidates)}
    for column, expected in ((0, first), (1, second)):
        observed = np.bincount(
            [position[peer] for peer in picks[:, column]], minlength=len(candidates)
        )
        assert stats.chisquare(observed, expected * draws).pvalue > 1e-3


#: Churn on a sparse 300-peer overlay: 300 / LIFESPAN arrivals per round,
#: each wired to two peers, and each peer leaving with probability
#: 1 / LIFESPAN, for five lifespans.  Two picks per join leave hubs of
#: three times the mean degree on about 2% of the peers.
LIFESPAN = 30
ROUNDS = 150
SEEDS = range(8)


def _churned_degrees(tracker_class, seed):
    """Degrees of an overlay after :data:`ROUNDS` rounds of churn.

    The arrivals and departures come from their own stream, so both
    trackers see the same population at every round and differ only in
    whom each joiner picks.
    """
    topology = scale_free_topology(300, mean_degree=4.0, seed=seed)
    tracker = tracker_class(topology, target_degree=2, seed=seed + 100)
    churn = np.random.default_rng([seed, 7])
    for _ in range(ROUNDS):
        peers = np.asarray(topology.peers())
        for peer in peers[churn.random(peers.size) < 1.0 / LIFESPAN].tolist():
            tracker.leave(peer)
        for _ in range(churn.poisson(300 / LIFESPAN)):
            tracker.join()
    return topology.peer_degrees()[1]


def _shape(degrees):
    """Mean degree, maximum degree and the share of peers at 3× the mean or more."""
    mean = degrees.mean()
    return np.array([mean, degrees.max(), np.mean(degrees >= 3.0 * mean)])


def test_churned_overlays_match_the_reference():
    """Paired over seeds, the tracker's overlays have the reference's shape.

    A 99% t-interval of each statistic's difference must contain 0: with
    three statistics that keeps a false alarm near 3%, while a sampler
    that ignored the degrees would shrink the maximum degree and the hub
    share far outside it.
    """
    differences = np.array(
        [
            _shape(_churned_degrees(MembershipTracker, seed))
            - _shape(_churned_degrees(ReferenceTracker, seed))
            for seed in SEEDS
        ]
    )
    for name, column in zip(("mean degree", "max degree", "hub share"), differences.T):
        low, high = confidence_interval(column, confidence=0.99)
        assert low <= 0.0 <= high, f"{name}: 99% interval ({low:+.4f}, {high:+.4f}) excludes 0"
