"""The market router's guess-and-check equals a search of each row's own CDF.

:meth:`CreditMarketSimulator._route_credits` guesses each credit's edge
from ``floor(u·d)`` inside its own row, accepts the guess when the row's
CDF brackets the credit's draw, and settles the misses with a search
bounded to the row.  These tests compare its income vector byte for byte
with the loop oracle's (:func:`kernel_oracles.route_credits_loop`), an
exact per-row search — ``np.searchsorted`` over the row's CDF,
``"right"``, clamped to its last edge — on draws placed
on the check's boundaries: ``u = 0``, ``u = 1 − 2⁻⁵³``, ``u = k/d``, and
every row's own CDF values with their neighbouring doubles.  The overlay
has degree-1 rows, a hub row of degree ≥ 4096 and an isolated peer ahead
of the row whose segment starts the buffer, where a ``j == 0`` guess has
no entry before it.  Uniform prices and per-seller flat prices are
covered: whole-credit Poisson draws, ``Uniform(0.5, 1.5)`` draws (which
send many draws past their first guess) and zero-priced sellers (whose
CDF entries are near-duplicates after the ``1e-12`` clip), both every
third seller and Fig. 1's ``Poisson(1)`` draws, whose seed-7 draw prices
the hub at zero, so every leaf's row holds clipped weights only.
"""

import numpy as np
import pytest

from repro.core.pricing import PerPeerFlatPricing, UniformPricing
from repro.overlay.topology import OverlayTopology
from repro.p2psim import CreditMarketSimulator, MarketSimConfig, UtilizationMode, market_sim
from repro.p2psim.market_sim import _search_rows
from drawn_prices import poisson_prices, uniform_prices
from kernel_oracles import route_credits_loop

HUB_DEGREE = 4200
NUM_PEERS = 2 + HUB_DEGREE + 60

def zero_priced_thirds():
    """Flat prices, zero for every third seller and varied elsewhere."""
    ids = np.arange(NUM_PEERS)
    prices = np.where(ids % 3 == 0, 0.0, 1.0 + (ids % 7) / 4.0)
    return PerPeerFlatPricing(dict(zip(ids.tolist(), prices.tolist())))


PRICINGS = {
    "uniform": UniformPricing,
    "per-peer-flat-with-zeros": zero_priced_thirds,
    "poisson-drawn": lambda: poisson_prices(2.0, seed=5, num_ids=NUM_PEERS),
    "fig1-poisson-drawn": lambda: poisson_prices(1.0, seed=7, num_ids=NUM_PEERS, min_price=0.0),
    "uniform-drawn": lambda: uniform_prices(seed=11, num_ids=NUM_PEERS),
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


def boundary_draws(simulator, rows):
    """Per-row draws on the guess's boundaries, concatenated in row order."""
    per_row = []
    for start, degree in zip(rows.row_start.tolist(), rows.degrees.tolist()):
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
    """Stands in for ``market_sim._search_rows`` and keeps every call's misses."""

    def __init__(self):
        self.calls = []

    def __call__(self, cdf, keys, guesses, first, last):
        found = _search_rows(cdf, keys, guesses.copy(), first, last)
        self.calls.append((keys.copy(), guesses.copy(), first.copy(), last.copy(), found.copy()))
        return found

    def misses(self):
        """``(keys, guesses, first, last, found)`` over every call."""
        if not self.calls:
            return tuple(np.empty(0) for _ in range(5))
        return tuple(np.concatenate(column) for column in zip(*self.calls))


@pytest.fixture
def spy_on_search(monkeypatch):
    """Install a :class:`SearchSpy` once the simulator under test is built."""

    def install():
        spy = SearchSpy()
        monkeypatch.setattr(market_sim, "_search_rows", spy)
        return spy

    return install


def edge_zero_row(rows):
    """The row whose segment starts the buffer: its ``j == 0`` guess has no entry before it."""
    return int(np.flatnonzero(rows.degrees)[0])


class TestGuessEqualsRowSearch:
    def test_overlay_has_the_rows_the_router_must_handle(self):
        rows = market(UniformPricing())._slots.rows()
        assert rows.degrees[0] == 0
        assert edge_zero_row(rows) == 1 and rows.row_start[1] == 0
        assert rows.degrees[1] == HUB_DEGREE >= 4096
        assert np.count_nonzero(rows.degrees == 1) >= HUB_DEGREE - 60

    @pytest.mark.parametrize("name", sorted(PRICINGS))
    def test_boundary_draws_route_like_a_row_search(self, name, spy_on_search):
        simulator = market(PRICINGS[name]())
        rows = simulator._slots.rows()
        spendable, draws = boundary_draws(simulator, rows)
        expected = route_credits_loop(simulator, rows, spendable, draws)
        search_spy = spy_on_search()
        income = simulator._route_credits(rows, spendable, draws)
        assert income.tobytes() == expected.tobytes()
        # Every row's u = 0 draw guesses its first edge, which the check
        # accepts without the entry before it: no u = 0 key is searched,
        # the edge-0 row's included.
        keys = search_spy.misses()[0]
        assert 0.0 in draws and not np.any(keys == 0.0)

    def test_zero_priced_sellers_leave_near_duplicate_cdf_entries(self):
        # A zero-priced seller's share is 1e-12 of the row's mass: its CDF
        # entry lies within a few ulps of the one before it.
        simulator = market(zero_priced_thirds())
        rows = simulator._slots.rows()
        hub = simulator._edge_cdf[rows.row_start[1] : rows.row_start[1] + rows.degrees[1]]
        assert np.any(np.diff(hub) <= 2 * np.spacing(hub[1:]))

    def test_uniform_prices_are_resolved_by_the_guess(self, spy_on_search):
        simulator = market(UniformPricing())
        rows = simulator._slots.rows()
        rng = np.random.default_rng(17)
        spendable = np.where(rows.degrees > 0, rng.poisson(3.0, rows.degrees.size), 0)
        draws = rng.random(int(spendable.sum()))
        search_spy = spy_on_search()
        income = simulator._route_credits(rows, spendable, draws)
        assert income.tobytes() == route_credits_loop(simulator, rows, spendable, draws).tobytes()
        assert not search_spy.calls

    def test_whole_uniform_run_never_searches(self, spy_on_search):
        simulator = CreditMarketSimulator(
            MarketSimConfig(num_peers=500, horizon=40.0, utilization=UtilizationMode.ASYMMETRIC, seed=9)
        )
        search_spy = spy_on_search()
        simulator.advance_rounds(40)
        assert simulator.total_transfers > 10_000
        assert not search_spy.calls

    def test_unequal_prices_fall_back_to_the_search(self, spy_on_search):
        # Per-seller prices from Uniform(0.5, 1.5) spread each row's CDF
        # away from (j + 1) / d, so a sizeable share of random draws miss
        # their first guess.
        simulator = CreditMarketSimulator(
            MarketSimConfig(
                num_peers=2000,
                utilization=UtilizationMode.ASYMMETRIC,
                pricing=uniform_prices(seed=11),
                seed=9,
            )
        )
        rows = simulator._slots.rows()
        rng = np.random.default_rng(17)
        spendable = np.where(rows.degrees > 0, 2, 0)
        draws = rng.random(int(spendable.sum()))
        search_spy = spy_on_search()
        income = simulator._route_credits(rows, spendable, draws)
        assert income.tobytes() == route_credits_loop(simulator, rows, spendable, draws).tobytes()
        assert search_spy.misses()[0].size > draws.size // 10

    def test_unequal_price_misses_reach_every_clause_of_the_row_search(self, spy_on_search):
        # Boundary draws under Uniform(0.5, 1.5) per-seller prices miss
        # towards both ends of their rows and, on the hub row, far from
        # the guess.  Each miss must settle where the row's own search does.
        simulator = market(uniform_prices(seed=11, num_ids=NUM_PEERS))
        rows = simulator._slots.rows()
        spendable, draws = boundary_draws(simulator, rows)
        search_spy = spy_on_search()
        income = simulator._route_credits(rows, spendable, draws)
        assert income.tobytes() == route_credits_loop(simulator, rows, spendable, draws).tobytes()
        keys, guesses, first, last, found = search_spy.misses()
        cdf = simulator._edge_cdf
        for key, lo, hi, edge in zip(keys, first, last, found):
            expected = lo + min(int(np.searchsorted(cdf[lo : hi + 1], key, "right")), hi - lo)
            assert edge == expected
        left, right = found < guesses, found > guesses
        assert np.any(left & (found == first)) and np.any(right & (found == last))
        assert np.any(left & (guesses - found > 1)) and np.any(right & (found - guesses > 1))
        assert np.any(left & (guesses - found == 1)) and np.any(right & (found - guesses == 1))


def test_search_clamps_onto_the_row_s_last_edge():
    # Routing CDFs end at exactly 1.0, above every draw; on a row whose
    # CDF ends lower, a key past its end settles on the last edge, as
    # the row's clamped searchsorted does.
    cdf = np.array([0.5, 1.0, 0.25, 0.5, 0.75, 0.9])
    keys = np.array([0.95, 0.95, 0.6, 0.1])
    guesses = np.array([5, 4, 3, 4])
    first, last = np.full(4, 2), np.full(4, 5)
    found = _search_rows(cdf, keys, guesses, first, last)
    expected = [2 + min(int(np.searchsorted(cdf[2:], key, "right")), 3) for key in keys]
    assert found.tolist() == expected == [5, 5, 4, 2]


def test_largest_draw_guesses_inside_every_row_up_to_degree_1e5():
    # For u < 1, fl(u·d) < d under round-to-nearest, so floor(u·d) is at
    # most d - 1 and the guess needs no clamp onto the row.
    degrees = np.arange(1, 100_001)
    largest = np.full(degrees.size, 1.0 - 2.0**-53)
    assert largest[0] == np.nextafter(1.0, 0.0)
    guesses = (largest * degrees).astype(np.int64)
    assert np.array_equal(guesses, degrees - 1)
