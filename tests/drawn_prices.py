"""Per-seller flat prices drawn from a law, for tests that need unequal prices.

Every seller of ``0 … num_ids - 1`` gets one price from the law; a
simulator's joiners take ids above its initial population, so
``num_ids`` should reach well past it.
"""

from repro.core.pricing import PerPeerFlatPricing
from repro.utils.rng import make_rng


def poisson_prices(mean: float, seed: int, num_ids: int = 2000, min_price: float = 1.0):
    """Prices ``min_price + Poisson(mean - min_price)``: whole credits, mean ``mean``."""
    draws = make_rng(seed, "test-poisson-prices").poisson(mean - min_price, size=num_ids)
    return PerPeerFlatPricing(dict(enumerate((min_price + draws).tolist())))


def uniform_prices(seed: int, low: float = 0.5, high: float = 1.5, num_ids: int = 2000):
    """Prices drawn from ``Uniform(low, high)``: no two sellers tie."""
    draws = make_rng(seed, "test-uniform-prices").uniform(low, high, size=num_ids)
    return PerPeerFlatPricing(dict(enumerate(draws.tolist())))
