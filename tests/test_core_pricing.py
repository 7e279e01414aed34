"""Tests for posted per-seller chunk prices."""

import numpy as np
import pytest

from repro.core.pricing import PerPeerFlatPricing, PricingScheme, UniformPricing


class TestUniformPricing:
    def test_constant_price(self):
        pricing = UniformPricing(2.5)
        assert pricing.price_array([1, 10]).tolist() == [2.5, 2.5]
        assert pricing.mean_price() == 2.5

    def test_invalid_price(self):
        with pytest.raises(ValueError):
            UniformPricing(0.0)

    @pytest.mark.parametrize("price", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite_prices(self, price):
        with pytest.raises(ValueError, match="price_per_chunk"):
            UniformPricing(price)


class TestPerPeerFlatPricing:
    def test_per_seller_prices(self):
        pricing = PerPeerFlatPricing({1: 2.0, 2: 3.0}, default_price=1.0)
        assert pricing.price_array([1, 2, 99]).tolist() == [2.0, 3.0, 1.0]

    def test_mean_price(self):
        pricing = PerPeerFlatPricing({1: 2.0, 2: 4.0})
        assert pricing.mean_price() == pytest.approx(3.0)

    def test_zero_price_sellers_allowed(self):
        # A Poisson price vector with mean 1 credit (the paper's Fig. 1
        # non-uniform case) contains zero-price sellers; they are legal and
        # simply never earn.
        pricing = PerPeerFlatPricing({1: 0.0, 2: 2.0})
        assert pricing.price_array([1]).tolist() == [0.0]
        assert pricing.mean_price() == pytest.approx(1.0)

    def test_invalid_prices(self):
        with pytest.raises(ValueError):
            PerPeerFlatPricing({1: -1.0})
        with pytest.raises(ValueError):
            PerPeerFlatPricing({}, default_price=-1.0)

    @pytest.mark.parametrize("price", [float("nan"), float("inf")])
    def test_non_finite_prices_rejected(self, price):
        with pytest.raises(ValueError, match="price of seller 4"):
            PerPeerFlatPricing({4: price})

    def test_zero_default_price_rejected(self):
        # Listed sellers may give chunks away, but the price of every
        # unlisted seller (a joiner beyond the drawn ids) must be positive.
        with pytest.raises(ValueError, match="default_price"):
            PerPeerFlatPricing({1: 0.0}, default_price=0.0)

    def test_mean_without_listed_sellers_is_the_default(self):
        assert PerPeerFlatPricing({}, default_price=2.5).mean_price() == 2.5

    def test_prices_are_copied_at_construction(self):
        # The simulators quote a peer once, on admission, so a scheme's
        # prices must not move afterwards with the mapping it was built from.
        source = {1: 2.0, 2: 3.0}
        pricing = PerPeerFlatPricing(source)
        source[1] = 9.0
        source[5] = 9.0
        assert pricing.price_array([1, 2, 5]).tolist() == [2.0, 3.0, 1.0]
        assert pricing.mean_price() == pytest.approx(2.5)

    def test_numpy_integer_seller_ids(self):
        pricing = PerPeerFlatPricing({np.int64(3): 0.5, np.int32(8): 4.0})
        ids = np.array([8, 3, 0], dtype=np.int32)
        assert pricing.price_array(ids).tolist() == [4.0, 0.5, 1.0]


def test_flat_prices_from_an_id_array():
    pricing = PerPeerFlatPricing({3: 0.0, 7: 2.5}, default_price=1.5)
    ids = np.array([7, 3, 9, 7], dtype=np.int64)
    quoted = pricing.price_array(ids)
    assert quoted.dtype == np.float64
    assert quoted.tolist() == [2.5, 0.0, 1.5, 2.5]
    assert quoted.tobytes() == pricing.price_array(ids.tolist()).tobytes()
    assert UniformPricing(2.0).price_array(ids).tolist() == [2.0] * 4


SCHEMES = {
    "uniform": lambda: UniformPricing(1.1),
    "per-peer-flat": lambda: PerPeerFlatPricing(
        {seller: float(seller % 5) for seller in range(0, 400, 3)}, default_price=1.5
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_quotes_do_not_depend_on_the_id_container(name):
    """The simulators quote int64 id arrays, of any size, the empty one too;
    a list of the same ids gets the same float64 prices."""
    pricing = SCHEMES[name]()
    rng = np.random.default_rng(6)
    for size in (1, 30, 0, 500, 250):
        batch = rng.integers(0, 400, size)
        quoted = pricing.price_array(batch)
        assert quoted.dtype == np.float64 and quoted.shape == (size,)
        assert quoted.tobytes() == pricing.price_array(batch.tolist()).tobytes()


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_quotes_are_fresh_arrays(name):
    # A caller may write into a quote; the next quote is unchanged.
    pricing = SCHEMES[name]()
    ids = np.arange(12)
    first = pricing.price_array(ids)
    expected = first.tobytes()
    first[:] = -1.0
    assert pricing.price_array(ids).tobytes() == expected


def test_base_scheme_posts_no_prices():
    scheme = PricingScheme()
    with pytest.raises(NotImplementedError):
        scheme.price_array([0])
    with pytest.raises(NotImplementedError):
        scheme.mean_price()
