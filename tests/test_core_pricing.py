"""Tests for chunk pricing schemes."""

import numpy as np
import pytest

from repro.core.pricing import (
    AuctionPricing,
    LinearPricing,
    PerPeerFlatPricing,
    PoissonPricing,
    UniformPricing,
)


class TestUniformPricing:
    def test_constant_price(self):
        pricing = UniformPricing(2.5)
        assert pricing.price(1, 10) == 2.5
        assert pricing.settle(1, 10) == 2.5
        assert pricing.mean_price() == 2.5
        assert pricing.is_uniform()

    def test_invalid_price(self):
        with pytest.raises(ValueError):
            UniformPricing(0.0)


class TestPerPeerFlatPricing:
    def test_per_seller_prices(self):
        pricing = PerPeerFlatPricing({1: 2.0, 2: 3.0}, default_price=1.0)
        assert pricing.price(1, 0) == 2.0
        assert pricing.price(2, 5) == 3.0
        assert pricing.price(99, 0) == 1.0
        assert not pricing.is_uniform()

    def test_set_price(self):
        pricing = PerPeerFlatPricing({1: 2.0})
        pricing.set_price(1, 4.0)
        assert pricing.price(1, 0) == 4.0

    def test_mean_price(self):
        pricing = PerPeerFlatPricing({1: 2.0, 2: 4.0})
        assert pricing.mean_price() == pytest.approx(3.0)

    def test_uniform_detection(self):
        assert PerPeerFlatPricing({1: 1.0, 2: 1.0}, default_price=1.0).is_uniform()

    def test_zero_price_sellers_allowed(self):
        # A Poisson price vector with mean 1 credit (the paper's Fig. 1
        # non-uniform case) contains zero-price sellers; they are legal and
        # simply never earn.
        pricing = PerPeerFlatPricing({1: 0.0, 2: 2.0})
        assert pricing.price(1, 0) == 0.0
        assert pricing.mean_price() == pytest.approx(1.0)
        pricing.set_price(2, 0.0)
        assert pricing.price(2, 0) == 0.0

    def test_invalid_prices(self):
        with pytest.raises(ValueError):
            PerPeerFlatPricing({1: -1.0})
        with pytest.raises(ValueError):
            PerPeerFlatPricing({1: 1.0}).set_price(1, -0.5)
        with pytest.raises(ValueError):
            PerPeerFlatPricing({}, default_price=-1.0)


class TestLinearPricing:
    def test_price_grows_with_round_purchases(self):
        pricing = LinearPricing(base_price=1.0, increment=0.5)
        assert pricing.price(1, 0) == 1.0
        pricing.note_purchase(1, 0, buyer_id=9)
        assert pricing.price(1, 1) == 1.5
        pricing.note_purchase(1, 1, buyer_id=9)
        assert pricing.price(1, 2) == 2.0

    def test_reset_round_clears_state(self):
        pricing = LinearPricing(base_price=1.0, increment=0.5)
        pricing.note_purchase(1, 0, None)
        pricing.reset_round()
        assert pricing.price(1, 0) == 1.0

    def test_independent_sellers(self):
        pricing = LinearPricing(base_price=1.0, increment=1.0)
        pricing.note_purchase(1, 0, None)
        assert pricing.price(2, 0) == 1.0


class TestPoissonPricing:
    def test_prices_memoised_per_seller_chunk(self):
        pricing = PoissonPricing(mean_price=2.0, min_price=1.0, seed=1)
        first = pricing.price(3, 7)
        assert pricing.price(3, 7) == first

    def test_min_price_respected(self):
        pricing = PoissonPricing(mean_price=1.0, min_price=1.0, seed=2)
        prices = [pricing.price(seller, chunk) for seller in range(10) for chunk in range(10)]
        assert min(prices) >= 1.0

    def test_zero_min_price_allows_free_chunks(self):
        pricing = PoissonPricing(mean_price=1.0, min_price=0.0, seed=3)
        prices = [pricing.price(0, chunk) for chunk in range(200)]
        assert min(prices) == 0.0
        assert np.mean(prices) == pytest.approx(1.0, abs=0.25)

    def test_mean_price_reported(self):
        assert PoissonPricing(mean_price=2.5, min_price=1.0, seed=4).mean_price() == 2.5

    def test_mean_below_min_degrades_to_min(self):
        pricing = PoissonPricing(mean_price=0.5, min_price=1.0, seed=5)
        assert pricing.price(0, 0) == 1.0


class TestAuctionPricing:
    def test_reservation_price_stable_per_seller(self):
        pricing = AuctionPricing(low=0.5, high=1.5, seed=1)
        assert pricing.price(1, 0) == pricing.price(1, 99)

    def test_settle_uses_second_price(self):
        pricing = AuctionPricing(low=0.5, high=1.5, seed=2)
        sellers = [1, 2, 3]
        prices = {seller: pricing.price(seller, 0) for seller in sellers}
        winner = min(sellers, key=lambda s: prices[s])
        paid = pricing.settle(winner, 0, competing_sellers=sellers)
        others = sorted(price for seller, price in prices.items() if seller != winner)
        assert paid == pytest.approx(max(prices[winner], others[0]))
        assert paid >= prices[winner]

    def test_settle_without_competition_uses_reservation(self):
        pricing = AuctionPricing(seed=3)
        assert pricing.settle(5, 0, competing_sellers=[5]) == pricing.price(5, 0)
        assert pricing.settle(5, 0) == pricing.price(5, 0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AuctionPricing(low=2.0, high=1.0)


@pytest.mark.parametrize(
    "scheme, stateful",
    [
        (UniformPricing(2.0), False),
        (PerPeerFlatPricing({0: 1.0, 1: 3.0}), False),
        (PoissonPricing(mean_price=2.0, seed=1), False),
        (LinearPricing(base_price=1.0, increment=0.5), True),
        (AuctionPricing(low=0.5, high=1.5, seed=1), True),
    ],
    ids=["uniform", "per-peer-flat", "poisson", "linear", "auction"],
)
def test_only_schemes_with_purchase_hooks_are_stateful(scheme, stateful):
    """Posted prices take the batched settlement path; schemes whose
    purchases feed back into prices settle one purchase at a time."""
    assert scheme.is_stateful() is stateful


@pytest.mark.parametrize(
    "make",
    [
        lambda: PoissonPricing(mean_price=3.0, min_price=1.0, seed=6),
        lambda: AuctionPricing(low=0.5, high=1.5, seed=6),
    ],
    ids=["poisson", "auction"],
)
def test_array_and_list_quotes_draw_identically(make):
    """Memoised schemes draw on first quote, so the id container must not matter.

    The simulators quote int64 id arrays; quoting the same ids as a list
    of ints must draw the same prices, in the same order, and leave the
    same memo behind.  Repeated sellers are quoted from the memo.
    """
    rng = np.random.default_rng(6)
    batches = [rng.integers(0, 400, size) for size in (1, 30, 0, 500, 250)]
    from_arrays, from_lists = make(), make()
    for batch in batches:
        quoted = from_arrays.price_array(batch, 0)
        assert quoted.dtype == np.float64
        assert quoted.tobytes() == from_lists.price_array(batch.tolist(), 0).tobytes()
    memo = "_memo" if isinstance(from_arrays, PoissonPricing) else "_reservation"
    assert getattr(from_arrays, memo) == getattr(from_lists, memo)
    # Equal in order and in key types too (numpy ints would repr differently).
    assert repr(getattr(from_arrays, memo)) == repr(getattr(from_lists, memo))


def test_flat_prices_from_an_id_array():
    pricing = PerPeerFlatPricing({3: 0.0, 7: 2.5}, default_price=1.5)
    ids = np.array([7, 3, 9, 7], dtype=np.int64)
    assert pricing.price_array(ids, 0).tolist() == [2.5, 0.0, 1.5, 2.5]
    assert UniformPricing(2.0).price_array(ids, 0).tolist() == [2.0] * 4
