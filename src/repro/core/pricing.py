"""Posted per-seller chunk prices.

In credit-based P2P content distribution the amount a buyer pays per chunk
is the price its seller posts (Secs. III-A and V-C of the paper).  The
paper analyses two cases, and a scheme here is one of them:

* :class:`UniformPricing` — every chunk costs the same everywhere (the
  default setting of Sec. VI, 1 credit per chunk);
* :class:`PerPeerFlatPricing` — each seller posts one flat price, such as
  Fig. 1's per-seller prices drawn around a mean of 1 credit.

A seller's price depends on nothing but the seller, so the simulators
quote each peer once, when it is admitted, into a per-slot price array.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "PricingScheme",
    "UniformPricing",
    "PerPeerFlatPricing",
]


class PricingScheme:
    """Interface for posted per-seller chunk prices."""

    def price_array(self, seller_ids: Sequence[int]) -> np.ndarray:
        """The posted per-chunk prices of ``seller_ids``, as a float array.

        ``seller_ids`` may be a sequence or an int array.
        """
        raise NotImplementedError

    def mean_price(self) -> float:
        """The scheme's average per-chunk price (used to size spending rates)."""
        raise NotImplementedError


class UniformPricing(PricingScheme):
    """Every chunk costs ``price_per_chunk`` from every seller (paper default: 1)."""

    def __init__(self, price_per_chunk: float = 1.0) -> None:
        self.price_per_chunk = check_positive(price_per_chunk, "price_per_chunk")

    def price_array(self, seller_ids: Sequence[int]) -> np.ndarray:
        return np.full(len(seller_ids), self.price_per_chunk, dtype=float)

    def mean_price(self) -> float:
        return self.price_per_chunk

    def __repr__(self) -> str:
        return f"UniformPricing(price_per_chunk={self.price_per_chunk})"


class PerPeerFlatPricing(PricingScheme):
    """Each seller posts a single flat per-chunk price.

    Individual prices may be zero (a seller that gives chunks away and
    earns nothing — Poisson-distributed price vectors with a mean of
    1 credit contain such sellers), but never negative.

    Parameters
    ----------
    prices:
        Mapping of seller id to its flat price.
    default_price:
        Price used for sellers not present in ``prices``.
    """

    def __init__(self, prices: Mapping[int, float], default_price: float = 1.0) -> None:
        self.default_price = check_positive(default_price, "default_price")
        self._prices: Dict[int, float] = {}
        for seller, value in prices.items():
            self._prices[int(seller)] = check_non_negative(value, f"price of seller {seller}")

    def price_array(self, seller_ids: Sequence[int]) -> np.ndarray:
        get = self._prices.get
        default = self.default_price
        sellers = np.asarray(seller_ids, dtype=np.int64).tolist()
        prices = (get(seller, default) for seller in sellers)
        return np.fromiter(prices, dtype=float, count=len(sellers))

    def mean_price(self) -> float:
        if not self._prices:
            return self.default_price
        return float(np.mean(list(self._prices.values())))
