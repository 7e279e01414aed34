"""A churned credit market is an open network: Little's law and credit balance.

With churn, peers arrive as a Poisson stream (rate ``λ``) and stay for
exponential lifetimes (mean ``L``).  The simulator discretises both per
round of ``dt`` seconds: a Poisson(``λ·dt``) number of joiners, and a
departure probability ``p = 1 − exp(−dt/L)`` for every alive peer.  Each
joiner then stays for a geometric number of rounds with mean ``1/p``, so
by Little's law the mean population is ``λ·dt/p``, which equals
:attr:`ChurnConfig.expected_population` (``λ·L``) up to a relative
``dt/(2L)``.

Without tax, credits only move between peers, enter with joiners (``c``
each) and leave with leavers.  A leaver is picked regardless of its
balance, so it takes the mean balance in expectation, and the expected
total wealth stays ``c`` times the expected population, round by round.

Both checks run over fixed seeds, as 95% Student-t intervals of the
per-seed time averages; the runs start at the expected population, so
no burn-in is dropped.  Wealth gathers on a few hubs, so a leaving hub
takes a large share of it: a per-seed wealth average spreads by about
10%, with a long tail, and many short runs cover the mean better than
a few long ones.
"""

import numpy as np
import pytest

from repro.overlay import ChurnConfig
from repro.p2psim import CreditMarketSimulator, MarketSimConfig
from repro.utils.stats import confidence_interval

CHURN = ChurnConfig(arrival_rate=0.125, mean_lifespan=400.0)
STEP = 2.0
CREDITS = 10.0
SEEDS = range(16)


@pytest.fixture(scope="module")
def samples():
    """Per seed, the sampled populations and total wealths of one run."""
    runs = []
    for seed in SEEDS:
        config = MarketSimConfig(
            num_peers=int(CHURN.expected_population),
            initial_credits=CREDITS,
            horizon=6_000.0,
            step=STEP,
            topology_mean_degree=6.0,
            sample_interval=20.0,
            seed=seed,
            churn=CHURN,
        )
        recorder = CreditMarketSimulator.run_config(config).recorder
        population = np.asarray(recorder.population_series.y)
        wealth = np.asarray(recorder.mean_wealth_series.y) * population
        runs.append((population, wealth))
    return runs


def test_time_averaged_population_follows_littles_law(samples):
    departure = 1.0 - np.exp(-STEP / CHURN.mean_lifespan)
    expected = CHURN.arrival_rate * STEP / departure
    assert expected == pytest.approx(CHURN.expected_population, rel=STEP / CHURN.mean_lifespan)
    low, high = confidence_interval([population.mean() for population, _ in samples])
    assert low <= expected <= high, f"population interval ({low:.2f}, {high:.2f}) vs {expected:.2f}"


def test_mean_wealth_per_peer_stays_the_initial_credits(samples):
    per_peer = [wealth.sum() / population.sum() for population, wealth in samples]
    low, high = confidence_interval(per_peer)
    assert low <= CREDITS <= high, f"wealth per peer interval ({low:.3f}, {high:.3f})"
