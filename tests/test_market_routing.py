"""The market router's guess-and-check equals the global search, draw for draw.

:meth:`CreditMarketSimulator._route_credits_vectorized` guesses each
credit's edge from ``floor(u·d)`` inside its own row, accepts the guess
when two ``flat`` entries bracket the credit's key, and searches globally
only for the misses.  These tests compare its income vector byte for byte
with the global search it replaces — ``np.searchsorted(flat, u + 3r,
"right")`` clamped to the row's last edge — on draws placed on the
check's boundaries: ``u = 0``, ``u = 1 − 2⁻⁵³``, ``u = k/d``, and every
row's own CDF values with their neighbouring doubles.  The overlay has
degree-1 rows, a hub row of degree ≥ 4096 and an isolated peer ahead of
the row that owns edge 0, whose guess of edge 0 reads ``flat[-1]`` and
must fall back to the search.  Each pricing scheme in
:mod:`repro.core.pricing` is covered, zero-priced sellers (whose CDF
entries are near-duplicates after the ``1e-12`` clip) included.
"""

import numpy as np
import pytest

from repro.core.pricing import (
    AuctionPricing,
    LinearPricing,
    PerPeerFlatPricing,
    PoissonPricing,
    UniformPricing,
)
from repro.overlay.topology import OverlayTopology
from repro.p2psim import CreditMarketSimulator, MarketSimConfig, UtilizationMode

HUB_DEGREE = 4200
NUM_PEERS = 2 + HUB_DEGREE + 60

#: The global search, kept before any test wraps ``np.searchsorted``.
_searchsorted = np.searchsorted


def zero_priced_thirds():
    """Flat prices, zero for every third seller and varied elsewhere."""
    ids = np.arange(NUM_PEERS)
    prices = np.where(ids % 3 == 0, 0.0, 1.0 + (ids % 7) / 4.0)
    return PerPeerFlatPricing(dict(zip(ids.tolist(), prices.tolist())))


PRICINGS = {
    "uniform": UniformPricing,
    "per-peer-flat-with-zeros": zero_priced_thirds,
    "linear": LinearPricing,
    "poisson": lambda: PoissonPricing(mean_price=2.0, seed=5),
    "auction": lambda: AuctionPricing(seed=11),
}


def mixed_overlay():
    """Peer 0 isolated; hub 1 with ``HUB_DEGREE`` leaves; a ring of 60 peers.

    The hub's leaves are degree-1 rows, and the isolated peer puts the
    row that owns edge 0 (the hub's) at row 1, not row 0.  The ring
    peers each also meet a few others, for rows of a handful of edges.
    """
    leaves = np.arange(2, 2 + HUB_DEGREE)
    ring = np.arange(2 + HUB_DEGREE, NUM_PEERS)
    src = [np.ones(HUB_DEGREE, dtype=np.int64), ring, ring, ring[::3]]
    dst = [leaves, np.roll(ring, 1), np.roll(ring, 7), ring[::3] + 1]
    dst[-1][-1] = ring[0]
    return OverlayTopology.from_edge_arrays(NUM_PEERS, np.concatenate(src), np.concatenate(dst))


def market(pricing):
    config = MarketSimConfig(
        num_peers=NUM_PEERS,
        horizon=20.0,
        utilization=UtilizationMode.ASYMMETRIC,
        pricing=pricing,
        seed=3,
    )
    return CreditMarketSimulator(config, topology=mixed_overlay())


def global_search_income(simulator, pack, flat, spendable, draws):
    """The oracle: one global search, clamped to the row's last edge."""
    rows = np.repeat(np.arange(pack.alive_slots.size), spendable)
    hits = _searchsorted(flat, draws + 3.0 * rows, side="right")
    hits = np.minimum(hits, pack.row_start[rows + 1] - 1)
    return np.bincount(pack.edge_dst[hits], minlength=simulator._slots.capacity).astype(float)


def boundary_draws(simulator, pack):
    """Per-row draws on the guess's boundaries, concatenated in row order."""
    per_row = []
    for row, degree in enumerate(pack.degrees.tolist()):
        start = int(pack.row_start[row])
        cdf = simulator._edge_cdf[start : start + degree]
        draws = np.concatenate(
            [
                [0.0, 1.0 - 2.0**-53],
                np.arange(degree) / degree,
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 2.0),
            ]
        )
        per_row.append(draws[draws < 1.0] if degree else draws[:0])
    spendable = np.array([draws.size for draws in per_row], dtype=np.int64)
    return spendable, np.concatenate(per_row)


class SearchSpy:
    """Stands in for ``np.searchsorted`` and keeps every key it is asked for."""

    def __init__(self):
        self.keys = []

    def __call__(self, a, v, side="left", sorter=None):
        self.keys.append(np.array(v, dtype=float, copy=True))
        return _searchsorted(a, v, side=side, sorter=sorter)

    def searched(self):
        return np.concatenate(self.keys) if self.keys else np.empty(0)


@pytest.fixture
def spy_on_search(monkeypatch):
    """Install a :class:`SearchSpy` once the simulator under test is built."""

    def install():
        spy = SearchSpy()
        monkeypatch.setattr(np, "searchsorted", spy)
        return spy

    return install


def edge_zero_row(pack):
    return int(np.flatnonzero(pack.degrees)[0])


class TestGuessEqualsGlobalSearch:
    def test_overlay_has_the_rows_the_router_must_handle(self):
        pack, _ = market(UniformPricing())._routing_pack()
        assert pack.degrees[0] == 0
        assert edge_zero_row(pack) == 1
        assert pack.degrees[1] == HUB_DEGREE >= 4096
        assert np.count_nonzero(pack.degrees == 1) >= HUB_DEGREE - 60

    @pytest.mark.parametrize("name", sorted(PRICINGS))
    def test_boundary_draws_route_like_the_global_search(self, name, spy_on_search):
        simulator = market(PRICINGS[name]())
        pack, flat = simulator._routing_pack()
        spendable, draws = boundary_draws(simulator, pack)
        expected = global_search_income(simulator, pack, flat, spendable, draws)
        search_spy = spy_on_search()
        income = simulator._route_credits_vectorized(pack, flat, spendable, draws)
        assert income.tobytes() == expected.tobytes()
        # The edge-0 row's u = 0 draw guesses edge 0, reads flat[-1] and
        # must have gone to the search.
        assert 3.0 * edge_zero_row(pack) in search_spy.searched()

    def test_zero_priced_sellers_leave_duplicate_flat_entries(self):
        simulator = market(zero_priced_thirds())
        pack, flat = simulator._routing_pack()
        hub = slice(int(pack.row_start[1]), int(pack.row_start[2]))
        assert np.any(np.diff(flat[hub]) == 0.0)

    def test_uniform_prices_are_resolved_by_the_guess(self, spy_on_search):
        # Random draws on uniform prices miss only where the guess is
        # edge 0, which lies in the row that owns it.
        simulator = market(UniformPricing())
        pack, flat = simulator._routing_pack()
        rng = np.random.default_rng(17)
        spendable = np.where(pack.degrees > 0, rng.poisson(3.0, pack.degrees.size), 0)
        draws = rng.random(int(spendable.sum()))
        search_spy = spy_on_search()
        income = simulator._route_credits_vectorized(pack, flat, spendable, draws)
        assert income.tobytes() == global_search_income(simulator, pack, flat, spendable, draws).tobytes()
        row = edge_zero_row(pack)
        searched = search_spy.searched()
        assert np.all((searched >= 3.0 * row) & (searched < 3.0 * row + 1.0))

    def test_whole_uniform_run_searches_only_the_edge_zero_row(self, spy_on_search):
        simulator = CreditMarketSimulator(
            MarketSimConfig(num_peers=500, horizon=40.0, utilization=UtilizationMode.ASYMMETRIC, seed=9)
        )
        search_spy = spy_on_search()
        simulator.advance_rounds(40)
        assert simulator.total_transfers > 10_000
        row = edge_zero_row(simulator._slots.pack())
        searched = search_spy.searched()
        assert np.all((searched >= 3.0 * row) & (searched < 3.0 * row + 1.0))

    def test_unequal_prices_fall_back_to_the_search(self, spy_on_search):
        # Auction prices spread each row's CDF away from (j + 1) / d, so
        # a sizeable share of random draws miss their first guess.
        simulator = CreditMarketSimulator(
            MarketSimConfig(
                num_peers=2000,
                utilization=UtilizationMode.ASYMMETRIC,
                pricing=AuctionPricing(seed=11),
                seed=9,
            )
        )
        pack, flat = simulator._routing_pack()
        rng = np.random.default_rng(17)
        spendable = np.where(pack.degrees > 0, 2, 0)
        draws = rng.random(int(spendable.sum()))
        search_spy = spy_on_search()
        income = simulator._route_credits_vectorized(pack, flat, spendable, draws)
        assert income.tobytes() == global_search_income(simulator, pack, flat, spendable, draws).tobytes()
        assert search_spy.searched().size > draws.size // 10


def test_largest_draw_guesses_inside_every_row_up_to_degree_1e5():
    # For u < 1, fl(u·d) < d under round-to-nearest, so floor(u·d) is at
    # most d - 1 and the guess needs no clamp onto the row.
    degrees = np.arange(1, 100_001)
    largest = np.full(degrees.size, 1.0 - 2.0**-53)
    assert largest[0] == np.nextafter(1.0, 0.0)
    guesses = (largest * degrees).astype(np.int64)
    assert np.array_equal(guesses, degrees - 1)
