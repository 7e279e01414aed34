"""Chunk pricing schemes.

In credit-based P2P content distribution the amount a buyer pays per chunk
is set by the seller's pricing scheme (Secs. III-A and V-C of the paper).
The schemes implemented here cover the cases the paper analyses or
references:

* :class:`UniformPricing` — every chunk costs the same everywhere (the
  default setting of Sec. VI, 1 credit per chunk);
* :class:`PerPeerFlatPricing` — each seller posts one flat price;
* :class:`LinearPricing` — the seller's price grows with the number of
  chunks the buyer has already bought from it in the current round
  (Golle et al. style linear pricing);
* :class:`PoissonPricing` — chunk prices are drawn per (seller, chunk) from
  a shifted Poisson distribution, the non-uniform case used in Fig. 1;
* :class:`AuctionPricing` — a simple sealed-bid second-price auction among
  the suppliers of a chunk (Chu et al. style auction pricing), provided as
  the "non-trivial pricing mechanism" the paper leaves to future work.

A pricing scheme answers two questions: what price does seller ``j`` ask
for chunk ``k`` (``price``), and what does the buyer end up paying when it
actually purchases (``settle``) — identical for posted-price schemes but
different for auctions.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "PricingScheme",
    "UniformPricing",
    "PerPeerFlatPricing",
    "LinearPricing",
    "PoissonPricing",
    "AuctionPricing",
]


class PricingScheme:
    """Interface for chunk pricing schemes."""

    def price(self, seller_id: int, chunk_index: int, buyer_id: Optional[int] = None) -> float:
        """The posted/asking price of ``seller_id`` for chunk ``chunk_index``."""
        raise NotImplementedError

    def settle(
        self,
        seller_id: int,
        chunk_index: int,
        buyer_id: Optional[int] = None,
        competing_sellers: Optional[Sequence[int]] = None,
    ) -> float:
        """The amount actually paid when the purchase happens.

        Defaults to the posted price; auction schemes override.
        """
        return self.price(seller_id, chunk_index, buyer_id)

    def note_purchase(self, seller_id: int, chunk_index: int, buyer_id: Optional[int]) -> None:
        """Hook invoked after a completed purchase (stateful schemes override)."""

    def reset_round(self) -> None:
        """Hook invoked at the start of each scheduling round (stateful schemes override)."""

    def price_array(self, seller_ids: Sequence[int], chunk_index: int) -> np.ndarray:
        """Posted prices of many sellers for one chunk, as a float array.

        ``seller_ids`` may be a sequence or an int array; sellers are
        quoted in its order.  The batched simulators quote a whole column
        of sellers at once; the generic implementation converts the ids
        to Python ints once and loops over :meth:`price`, flat-price
        schemes override with a single array operation.
        """
        sellers = np.asarray(seller_ids, dtype=np.int64).tolist()
        chunk_index = int(chunk_index)
        return np.array([self.price(seller, chunk_index) for seller in sellers], dtype=float)

    def is_stateful(self) -> bool:
        """Whether purchases feed back into future prices or settlements.

        True when the scheme overrides :meth:`settle`, :meth:`note_purchase`
        or :meth:`reset_round` — the batched simulators then settle each
        purchase through the scalar hooks (in a deterministic order shared
        by every kernel) instead of the posted-price fast path.
        """
        return (
            type(self).settle is not PricingScheme.settle
            or type(self).note_purchase is not PricingScheme.note_purchase
            or type(self).reset_round is not PricingScheme.reset_round
        )

    def mean_price(self) -> float:
        """The scheme's average per-chunk price (used to size spending rates)."""
        raise NotImplementedError

    def is_uniform(self) -> bool:
        """True when every seller charges the same price for every chunk."""
        return False


class UniformPricing(PricingScheme):
    """Every chunk costs ``price_per_chunk`` from every seller (paper default: 1)."""

    def __init__(self, price_per_chunk: float = 1.0) -> None:
        self.price_per_chunk = check_positive(price_per_chunk, "price_per_chunk")

    def price(self, seller_id: int, chunk_index: int, buyer_id: Optional[int] = None) -> float:
        return self.price_per_chunk

    def price_array(self, seller_ids: Sequence[int], chunk_index: int) -> np.ndarray:
        return np.full(len(seller_ids), self.price_per_chunk, dtype=float)

    def mean_price(self) -> float:
        return self.price_per_chunk

    def is_uniform(self) -> bool:
        return True

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

    def price(self, seller_id: int, chunk_index: int, buyer_id: Optional[int] = None) -> float:
        return self._prices.get(int(seller_id), self.default_price)

    def set_price(self, seller_id: int, value: float) -> None:
        """Update one seller's posted price."""
        self._prices[int(seller_id)] = check_non_negative(value, "value")

    def price_array(self, seller_ids: Sequence[int], chunk_index: int) -> np.ndarray:
        get = self._prices.get
        default = self.default_price
        sellers = np.asarray(seller_ids, dtype=np.int64).tolist()
        prices = (get(seller, default) for seller in sellers)
        return np.fromiter(prices, dtype=float, count=len(sellers))

    def mean_price(self) -> float:
        if not self._prices:
            return self.default_price
        return float(np.mean(list(self._prices.values())))

    def is_uniform(self) -> bool:
        values = set(self._prices.values()) | {self.default_price}
        return len(values) <= 1


class LinearPricing(PricingScheme):
    """Price grows linearly with purchases from the same seller in the round.

    The ``k``-th chunk bought from a given seller within one scheduling
    round costs ``base_price + increment * k`` (k starting at 0), modelling
    a seller whose marginal price rises as its upload capacity is consumed.
    Round state is cleared by :meth:`reset_round`.
    """

    def __init__(self, base_price: float = 1.0, increment: float = 0.1) -> None:
        self.base_price = check_positive(base_price, "base_price")
        self.increment = check_non_negative(increment, "increment")
        self._round_purchases: Dict[int, int] = {}

    def price(self, seller_id: int, chunk_index: int, buyer_id: Optional[int] = None) -> float:
        count = self._round_purchases.get(int(seller_id), 0)
        return self.base_price + self.increment * count

    def note_purchase(self, seller_id: int, chunk_index: int, buyer_id: Optional[int]) -> None:
        seller_id = int(seller_id)
        self._round_purchases[seller_id] = self._round_purchases.get(seller_id, 0) + 1

    def reset_round(self) -> None:
        self._round_purchases.clear()

    def mean_price(self) -> float:
        return self.base_price + self.increment  # representative value after light use


class PoissonPricing(PricingScheme):
    """Per (seller, chunk) prices drawn from ``1 + Poisson(mean_price − 1)``.

    The paper's Fig. 1 case (1): "peers charge different credits for selling
    different chunks, which follow a Poisson distribution with an average of
    1 credit per chunk".  A plain Poisson with mean 1 would price ~37% of
    chunks at zero, which would make those transfers free and decouple the
    credit flow from the data flow; we therefore shift the distribution so
    prices are at least ``min_price`` while keeping the requested mean when
    possible.  Prices are memoised so a given seller quotes a stable price
    for a given chunk.
    """

    def __init__(
        self,
        mean_price: float = 1.0,
        min_price: float = 1.0,
        seed: Optional[int] = None,
    ) -> None:
        self.mean_price_target = check_positive(mean_price, "mean_price")
        self.min_price = check_non_negative(min_price, "min_price")
        if self.min_price > self.mean_price_target:
            # The mean cannot be below the minimum; degrade gracefully to the minimum.
            self._poisson_mean = 0.0
        else:
            self._poisson_mean = self.mean_price_target - self.min_price
        self._rng = make_rng(seed, "poisson-pricing")
        self._memo: Dict[tuple, float] = {}

    def price(self, seller_id: int, chunk_index: int, buyer_id: Optional[int] = None) -> float:
        key = (int(seller_id), int(chunk_index))
        if key not in self._memo:
            draw = float(self._rng.poisson(self._poisson_mean)) if self._poisson_mean > 0 else 0.0
            self._memo[key] = self.min_price + draw
        return self._memo[key]

    def mean_price(self) -> float:
        return self.min_price + self._poisson_mean

    def __repr__(self) -> str:
        return (
            f"PoissonPricing(mean_price={self.mean_price_target}, min_price={self.min_price})"
        )


class AuctionPricing(PricingScheme):
    """Sealed-bid second-price auction among a chunk's suppliers.

    Each supplier's private valuation (reservation price) is drawn once per
    seller from ``Uniform(low, high)``.  The posted price of a seller is its
    reservation price; when a purchase is settled with knowledge of the
    competing suppliers, the buyer pays the *second-lowest* reservation
    price (or the sole supplier's reservation price when there is no
    competition) — the procurement form of a Vickrey auction.
    """

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: Optional[int] = None) -> None:
        self.low = check_positive(low, "low")
        self.high = check_positive(high, "high")
        if self.high < self.low:
            raise ValueError("high must be at least low")
        self._rng = make_rng(seed, "auction-pricing")
        self._reservation: Dict[int, float] = {}

    def _reservation_price(self, seller_id: int) -> float:
        seller_id = int(seller_id)
        if seller_id not in self._reservation:
            self._reservation[seller_id] = float(self._rng.uniform(self.low, self.high))
        return self._reservation[seller_id]

    def price(self, seller_id: int, chunk_index: int, buyer_id: Optional[int] = None) -> float:
        return self._reservation_price(seller_id)

    def settle(
        self,
        seller_id: int,
        chunk_index: int,
        buyer_id: Optional[int] = None,
        competing_sellers: Optional[Sequence[int]] = None,
    ) -> float:
        winner_price = self._reservation_price(seller_id)
        if not competing_sellers:
            return winner_price
        other_prices = [
            self._reservation_price(other)
            for other in competing_sellers
            if int(other) != int(seller_id)
        ]
        if not other_prices:
            return winner_price
        second = min(other_prices)
        return max(winner_price, second)

    def mean_price(self) -> float:
        return (self.low + self.high) / 2.0
