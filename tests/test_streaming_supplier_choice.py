"""Supplier choice of the vectorized streaming kernel, side by side.

``_candidate_cells`` marks the round's candidate cells in a column mask,
``_supply_columns`` gives each window column its cheaper side, and
``_choose_cells`` resolves the columns before the first supply column in
one demand-side batch and walks the rest, resolving only the rows that
can still request.  Both sides must pick exactly what the loop kernel
picks — ``eligible → ties → ties[pick]`` per cell — so these tests compare
the candidate mask, each side, the split between them and the purchases
against a brute-force reference on random undirected CSR overlays.
"""

import numpy as np
import pytest

from repro.p2psim import streaming_sim
from repro.p2psim.slots import SlotPack
from repro.p2psim.streaming_sim import (
    _EPS,
    _Holders,
    _Round,
    _candidate_cells,
    _choose_cells,
    _demand_side,
    _pick_ties,
    _supply_columns,
    _supply_side,
)

CHOICES = ["availability", "least-loaded", "cheapest"]


class Swarm:
    """Read-only kernel inputs over a random undirected overlay.

    ``density[c]`` is the chance that an alive slot holds column ``c``;
    ``hub`` links the first alive slot to every other alive slot.  Chunk
    availability is column-major, ``have[col, slot]``, and prices are
    per slot, ``price[slot]``, as the simulator keeps them.
    """

    def __init__(self, seed, density, capacity=48, window=5, degree=4.0, hub=False):
        rng = np.random.default_rng(seed)
        width = len(density)
        self.window = window
        self.alive_slots = np.sort(rng.choice(capacity, size=3 * capacity // 4, replace=False))
        count = self.alive_slots.size
        links = np.triu(rng.random((count, count)) < degree / count, k=1)
        if hub:
            links[0, 1:] = True
        links |= links.T
        rows = [self.alive_slots[np.flatnonzero(links[r])] for r in range(count)]
        degrees = np.array([row.size for row in rows], dtype=np.int64)
        row_start = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(degrees, out=row_start[1:])
        self.pack = SlotPack(self.alive_slots, degrees, row_start, np.concatenate(rows))

        alive = np.zeros(capacity, dtype=bool)
        alive[self.alive_slots] = True
        self.have = (rng.random((width, capacity)) < np.asarray(density)[:, None]) & alive
        # Few distinct prices and loads, so ties are common.
        self.price = rng.integers(1, 4, size=capacity).astype(float)
        self.uploads_total = rng.integers(0, 3, size=capacity).astype(float)

        self.first_col = rng.integers(-2, width - window + 2, size=count)
        self.uniforms = rng.random((count, window))
        # u = 1 makes u·count equal count: the pick must clamp to the last tie.
        self.uniforms[rng.random((count, window)) < 0.1] = 1.0
        self.lo, self.wanted = _candidate_cells(
            self.have, self.pack, self.first_col, window, width
        )

    def cells(self, columns=None):
        """The candidate cells of ``columns`` (all if None), column by column."""
        cols, rows = np.nonzero(self.wanted)
        cols = cols + self.lo
        if columns is None:
            return rows, cols
        keep = np.isin(cols, sorted(columns))
        return rows[keep], cols[keep]

    def round(self, choice):
        return _Round(
            self.have, self.price, self.uploads_total, self.pack,
            self.first_col, self.uniforms, choice,
        )

    def inputs(self, choice, columns=None):
        return (self.round(choice), *self.cells(columns))

    def candidates(self):
        """``{(row, col)}`` by the loop kernel's window walk."""
        width = self.have.shape[0]
        cells = set()
        for r, slot in enumerate(self.alive_slots.tolist()):
            if self.pack.degrees[r] == 0:
                continue
            for w in range(self.window):
                col = int(self.first_col[r]) + w
                if 0 <= col < width and not self.have[col, slot]:
                    cells.add((r, col))
        return cells

    def reference(self, choice, columns=None):
        """``{(row, col): supplier}`` by the loop kernel's per-cell rule."""
        chosen = {}
        pack = self.pack
        for r, col in sorted(self.candidates()):
            if columns is not None and col not in columns:
                continue
            neighbours = pack.edge_dst[pack.row_start[r] : pack.row_start[r + 1]]
            eligible = [int(s) for s in neighbours if self.have[col, s]]
            if not eligible:
                continue
            if choice == "least-loaded":
                scores = [float(self.uploads_total[s]) for s in eligible]
            elif choice == "cheapest":
                scores = [float(self.price[s]) for s in eligible]
            else:
                scores = [0.0] * len(eligible)
            best = min(scores)
            ties = [s for s, score in zip(eligible, scores) if score <= best + _EPS]
            u = float(self.uniforms[r, col - self.first_col[r]])
            chosen[(r, col)] = ties[min(int(u * len(ties)), len(ties) - 1)]
        return chosen

    def purchases(self, choice, budget, max_requests):
        """``([(row, col, seller)], budget)`` by the loop kernel's budget walk."""
        chosen = self.reference(choice)
        budget = budget.copy()
        picks = []
        for r in range(self.alive_slots.size):
            requests = 0
            for col in range(int(self.first_col[r]), int(self.first_col[r]) + self.window):
                if requests >= max_requests:
                    break
                if (r, col) not in chosen:
                    continue
                seller = chosen[(r, col)]
                price = float(self.price[seller])
                if price > budget[r] + _EPS:
                    continue
                budget[r] -= price
                requests += 1
                picks.append((r, col, seller))
        return picks, budget


def as_dict(rows, cols, sellers):
    result = {(int(r), int(c)): int(s) for r, c, s in zip(rows, cols, sellers)}
    assert len(result) == len(rows), "a cell was resolved twice"
    return result


def demand_only(swarm, choice, columns=None):
    return _demand_side(*swarm.inputs(choice, columns))


def supply_only(swarm, choice, columns=None, rows=None):
    """Each column's cells (of ``rows`` only, if given) through one ``_supply_side`` call each.

    One scratch serves every call, as in a tick, so each call must leave
    it as it found it.
    """
    round_ = swarm.round(choice)
    holders = _Holders.of(round_)
    all_rows, all_cols = swarm.cells(columns)
    parts = []
    for col in np.unique(all_cols).tolist():
        col_rows = all_rows[all_cols == col]
        if rows is not None:
            col_rows = np.intersect1d(col_rows, rows)
        found, sellers = _supply_side(round_, col_rows, col, holders)
        parts.append((found, np.full(found.size, col), sellers))
    assert (holders.cell_row == -1).all()
    return tuple(np.concatenate(arrays) for arrays in zip(*parts)) if parts else ([],) * 3


def choose_all(swarm, choice):
    """``_choose_cells`` with budgets and requests that never bind: every resolved cell."""
    rows, cols, sellers = _choose_cells(
        swarm.round(choice), swarm.lo, swarm.wanted,
        np.full(swarm.alive_slots.size, np.inf), swarm.window,
    )
    # The purchases come in (row, column) order.
    assert np.lexsort((cols, rows)).tolist() == list(range(rows.size))
    return rows, cols, sellers


@pytest.fixture
def sides(monkeypatch):
    """Record the work each side receives from ``_choose_cells``.

    These swarms are far too small to pay the supply side's fixed cost,
    so the overhead is zeroed: the split then follows the masses alone.
    """
    monkeypatch.setattr(streaming_sim, "_SUPPLY_OVERHEAD", 0)
    seen = {"demand_cells": 0, "supply_cols": []}
    demand, supply = streaming_sim._demand_side, streaming_sim._supply_side

    def demand_spy(*args):
        seen["demand_cells"] += args[1].size
        return demand(*args)

    def supply_spy(*args):
        seen["supply_cols"].append(args[2])
        return supply(*args)

    monkeypatch.setattr(streaming_sim, "_demand_side", demand_spy)
    monkeypatch.setattr(streaming_sim, "_supply_side", supply_spy)
    return seen


MIXED = [0.0, 0.03, 0.05, 0.6, 0.8, 0.1, 0.9, 0.0, 0.02, 0.7, 0.5, 0.04]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidate_mask_follows_the_window_walk(seed):
    swarm = Swarm(seed, MIXED)
    rows, cols = swarm.cells()
    assert set(zip(rows.tolist(), cols.tolist())) == swarm.candidates()
    assert swarm.wanted.shape[1] == swarm.alive_slots.size
    # The mask starts at the first live column of any window.
    assert swarm.lo == max(int(swarm.first_col.min()), 0)


def test_candidate_cells_stop_at_the_live_edge():
    swarm = Swarm(0, [0.2] * 10)
    live = 6
    lo, wanted = _candidate_cells(swarm.have, swarm.pack, swarm.first_col, swarm.window, live)
    assert lo + wanted.shape[0] <= live
    cols, rows = np.nonzero(wanted)
    expected = {(r, c) for r, c in swarm.candidates() if c < live}
    assert set(zip(rows.tolist(), (cols + lo).tolist())) == expected


@pytest.mark.parametrize("choice", CHOICES)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestEachSideMatchesTheReference:
    def test_demand_side(self, choice, seed):
        swarm = Swarm(seed, MIXED)
        assert as_dict(*demand_only(swarm, choice)) == swarm.reference(choice)

    def test_supply_side(self, choice, seed):
        swarm = Swarm(seed, MIXED)
        assert as_dict(*supply_only(swarm, choice)) == swarm.reference(choice)

    def test_supply_side_on_a_subset_of_columns(self, choice, seed):
        swarm = Swarm(seed, MIXED)
        columns = {1, 2, 5, 8}
        expected = swarm.reference(choice, columns=columns)
        assert as_dict(*supply_only(swarm, choice, columns)) == expected

    def test_supply_side_on_a_subset_of_rows(self, choice, seed):
        # A walked column resolves only the rows that can still request.
        swarm = Swarm(seed, MIXED)
        rows = np.arange(0, swarm.alive_slots.size, 3)
        expected = {cell: s for cell, s in swarm.reference(choice).items() if cell[0] in rows}
        assert expected
        assert as_dict(*supply_only(swarm, choice, rows=rows)) == expected


def test_side_rule_follows_the_masses():
    swarm = Swarm(3, MIXED)
    round_ = swarm.round("least-loaded")
    demand_mass = swarm.wanted.astype(np.int64) @ swarm.pack.degrees
    slot_degree = np.zeros(swarm.have.shape[1], dtype=np.int64)
    slot_degree[swarm.alive_slots] = swarm.pack.degrees
    supply_mass = swarm.have[swarm.lo : swarm.lo + len(swarm.wanted)].astype(np.int64) @ slot_degree
    saving = demand_mass - supply_mass
    assert 0 < saving[saving > 0].sum() <= streaming_sim._SUPPLY_OVERHEAD
    assert not _supply_columns(round_, swarm.lo, swarm.wanted).any()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streaming_sim, "_SUPPLY_OVERHEAD", 0)
        supply = _supply_columns(round_, swarm.lo, swarm.wanted)
    assert supply.tolist() == (saving > 0).tolist()
    assert supply.any() and not supply.all()


@pytest.mark.parametrize("choice", CHOICES)
class TestColumnSplit:
    def test_mixed_split(self, choice, sides):
        swarm = Swarm(3, MIXED)
        assert as_dict(*choose_all(swarm, choice)) == swarm.reference(choice)
        assert sides["demand_cells"] > 0 and sides["supply_cols"]

    def test_all_demand(self, choice, sides):
        swarm = Swarm(4, [0.9] * 8)
        assert as_dict(*choose_all(swarm, choice)) == swarm.reference(choice)
        assert sides["demand_cells"] > 0 and not sides["supply_cols"]

    def test_all_supply(self, choice, sides):
        swarm = Swarm(5, [0.04] * 8, capacity=120, degree=6.0)
        result = as_dict(*choose_all(swarm, choice))
        assert result and result == swarm.reference(choice)
        assert sides["demand_cells"] == 0 and sides["supply_cols"]

    def test_holderless_columns_stay_unresolved(self, choice, sides):
        density = [0.0, 0.8, 0.0, 0.0, 0.05, 0.0, 0.7, 0.0]
        swarm = Swarm(6, density)
        _, cols, _ = choose_all(swarm, choice)
        empty = {c for c, d in enumerate(density) if d == 0.0}
        assert not empty & set(cols.tolist())
        assert empty <= set(sides["supply_cols"])
        assert supply_only(swarm, choice, empty)[0].size == 0


def test_supply_side_waits_for_a_saving_above_its_overhead(sides, monkeypatch):
    swarm = Swarm(5, [0.04] * 8, capacity=120, degree=6.0)
    expected = swarm.reference("least-loaded")
    monkeypatch.setattr(streaming_sim, "_SUPPLY_OVERHEAD", 10**9)
    assert as_dict(*choose_all(swarm, "least-loaded")) == expected
    assert sides["demand_cells"] > 0 and not sides["supply_cols"]


@pytest.mark.parametrize("choice", CHOICES)
def test_hub_row_split_across_blocks(choice, monkeypatch):
    swarm = Swarm(7, MIXED, capacity=64, hub=True)
    expected = swarm.reference(choice)
    monkeypatch.setattr(streaming_sim, "_EDGE_BLOCK", 5)
    # The hub (row 0) is longer than a block: a block of its own when it
    # misses chunks (demand side) and when it holds them (supply side).
    assert swarm.pack.degrees[0] > 5
    assert swarm.wanted[:, 0].any() and swarm.have[:, swarm.alive_slots[0]].any()
    assert as_dict(*demand_only(swarm, choice)) == expected
    assert as_dict(*supply_only(swarm, choice)) == expected
    assert as_dict(*choose_all(swarm, choice)) == expected
    monkeypatch.setattr(streaming_sim, "_SUPPLY_OVERHEAD", 0)
    assert as_dict(*choose_all(swarm, choice)) == expected


@pytest.mark.parametrize("overhead", [0, None], ids=["both-sides", "demand-only"])
@pytest.mark.parametrize("choice", CHOICES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_purchases_follow_the_budget_walk(seed, choice, overhead, monkeypatch):
    # Budgets of one to six credits against prices of one to three: rows
    # skip cells they cannot afford, take cheaper ones after them, and
    # close after two purchases, in the batch and in the walk alike.
    if overhead is not None:
        monkeypatch.setattr(streaming_sim, "_SUPPLY_OVERHEAD", overhead)
    swarm = Swarm(seed, MIXED)
    rng = np.random.default_rng(seed + 20)
    budget = rng.integers(1, 7, size=swarm.alive_slots.size) + rng.random(swarm.alive_slots.size)
    expected, spent = swarm.purchases(choice, budget, max_requests=2)
    left = budget.copy()
    rows, cols, sellers = _choose_cells(swarm.round(choice), swarm.lo, swarm.wanted, left, 2)
    assert list(zip(rows.tolist(), cols.tolist(), sellers.tolist())) == expected
    assert left.tobytes() == spent.tobytes()


def test_pick_clamps_when_u_times_count_reaches_count():
    offers = np.array([7, 8, 9, 4, 5])
    cell = np.array([0, 0, 0, 1, 1])
    u = np.array([1.0, 0.0])
    assert _pick_ties(offers, cell, u, None).tolist() == [9, 4]
    # Only the offers of neighbours holding the chunk reach the tail: here
    # 7, 8 and 5 of the five, all equally loaded.
    offers, cell = np.array([7, 8, 5]), np.array([0, 0, 1])
    assert _pick_ties(offers, cell, u, np.zeros(3)).tolist() == [8, 5]


def test_near_ties_count_in_neighbour_order():
    # Scores within _EPS of the best tie without being equal to it; a pick
    # by sorted score would take the strictly cheapest offer instead.
    offers = np.array([11, 12, 13, 14, 21, 22, 23])
    cell = np.array([0, 0, 0, 0, 1, 1, 1])
    score = np.array(
        [1.0 + 0.6 * _EPS, 1.0, 1.0 + 0.9 * _EPS, 1.0 + 2 * _EPS, 3.0, 3.0 - 0.5 * _EPS, 3.5]
    )
    assert len(set(score.tolist())) == score.size
    assert _pick_ties(offers, cell, np.array([0.0, 0.0]), score).tolist() == [11, 21]
    assert _pick_ties(offers, cell, np.array([0.5, 0.99]), score).tolist() == [12, 22]
    assert _pick_ties(offers, cell, np.array([0.9, 0.5]), score).tolist() == [13, 22]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cheapest_near_ties_match_the_reference_on_both_sides(seed):
    swarm = Swarm(seed, MIXED)
    # Every integer price level splits into distinct per-slot prices less
    # than _EPS apart; the loop kernel treats each level as one tie.
    rng = np.random.default_rng(seed + 10)
    swarm.price = swarm.price + rng.random(swarm.price.shape) * 0.9 * _EPS
    expected = swarm.reference("cheapest")
    assert as_dict(*demand_only(swarm, "cheapest")) == expected
    assert as_dict(*supply_only(swarm, "cheapest")) == expected
