"""Supplier choice of the vectorized streaming kernel, side by side.

``_candidate_cells`` lists the round's candidate cells column by column,
and ``_choose_suppliers_for_cells`` expands each window column from its
cheaper side: the candidate cells' rows (demand) or the holders' rows
(supply).  Both sides must pick exactly what the loop kernel picks —
``eligible → ties → ties[pick]`` per cell — so these tests compare the
cell list, each side, and the split between them, against a brute-force
reference on random undirected CSR overlays.
"""

import numpy as np
import pytest

from repro.p2psim import streaming_sim
from repro.p2psim.slots import SlotPack
from repro.p2psim.streaming_sim import (
    _EPS,
    _Round,
    _candidate_cells,
    _choose_suppliers_for_cells,
    _demand_side,
    _pick_ties,
    _supply_side,
)

CHOICES = ["availability", "least-loaded", "cheapest"]


class Swarm:
    """Read-only kernel inputs over a random undirected overlay.

    ``density[c]`` is the chance that an alive slot holds column ``c``;
    ``hub`` links the first alive slot to every other alive slot.  Chunk
    availability and prices are column-major, ``have[col, slot]``, as the
    simulator keeps them.
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
        self.price_win = rng.integers(1, 4, size=(width, capacity)).astype(float)
        self.uploads_total = rng.integers(0, 3, size=capacity).astype(float)

        self.first_col = rng.integers(-2, width - window + 2, size=count)
        self.uniforms = rng.random((count, window))
        # u = 1 makes u·count equal count: the pick must clamp to the last tie.
        self.uniforms[rng.random((count, window)) < 0.1] = 1.0
        self.rows, self.cols = _candidate_cells(
            self.have, self.pack, self.first_col, window, width
        )

    def cells(self, columns=None):
        """The candidate cells of ``columns`` (all if None), column by column."""
        if columns is None:
            return self.rows, self.cols
        keep = np.isin(self.cols, sorted(columns))
        return self.rows[keep], self.cols[keep]

    def inputs(self, choice, columns=None):
        round_ = _Round(
            self.have, self.price_win, self.uploads_total, self.pack,
            self.first_col, self.uniforms, choice,
        )
        return (round_, *self.cells(columns))

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
                scores = [float(self.price_win[col, s]) for s in eligible]
            else:
                scores = [0.0] * len(eligible)
            best = min(scores)
            ties = [s for s, score in zip(eligible, scores) if score <= best + _EPS]
            u = float(self.uniforms[r, col - self.first_col[r]])
            chosen[(r, col)] = ties[min(int(u * len(ties)), len(ties) - 1)]
        return chosen


def as_dict(rows, cols, sellers):
    result = {(int(r), int(c)): int(s) for r, c, s in zip(rows, cols, sellers)}
    assert len(result) == len(rows), "a cell was resolved twice"
    return result


def demand_only(swarm, choice, columns=None):
    return _demand_side(*swarm.inputs(choice, columns))


def supply_only(swarm, choice, columns=None):
    return _supply_side(*swarm.inputs(choice, columns))


@pytest.fixture
def sides(monkeypatch):
    """Record the work each side receives from ``_choose_suppliers_for_cells``.

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
        seen["supply_cols"].extend(np.unique(args[2]).tolist())
        return supply(*args)

    monkeypatch.setattr(streaming_sim, "_demand_side", demand_spy)
    monkeypatch.setattr(streaming_sim, "_supply_side", supply_spy)
    return seen


MIXED = [0.0, 0.03, 0.05, 0.6, 0.8, 0.1, 0.9, 0.0, 0.02, 0.7, 0.5, 0.04]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidate_cells_follow_the_window_walk_column_by_column(seed):
    swarm = Swarm(seed, MIXED)
    rows, cols = swarm.cells()
    assert set(zip(rows.tolist(), cols.tolist())) == swarm.candidates()
    assert len(rows) == len(swarm.candidates())
    order = np.lexsort((rows, cols))
    assert order.tolist() == list(range(rows.size))


def test_candidate_cells_stop_at_the_live_edge():
    swarm = Swarm(0, [0.2] * 10)
    live = 6
    rows, cols = _candidate_cells(swarm.have, swarm.pack, swarm.first_col, swarm.window, live)
    expected = {(r, c) for r, c in swarm.candidates() if c < live}
    assert set(zip(rows.tolist(), cols.tolist())) == expected


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


@pytest.mark.parametrize("choice", CHOICES)
class TestColumnSplit:
    def test_mixed_split(self, choice, sides):
        swarm = Swarm(3, MIXED)
        result = as_dict(*_choose_suppliers_for_cells(*swarm.inputs(choice)))
        assert result == swarm.reference(choice)
        assert sides["demand_cells"] > 0 and sides["supply_cols"]

    def test_all_demand(self, choice, sides):
        swarm = Swarm(4, [0.9] * 8)
        result = as_dict(*_choose_suppliers_for_cells(*swarm.inputs(choice)))
        assert result == swarm.reference(choice)
        assert sides["demand_cells"] > 0 and not sides["supply_cols"]

    def test_all_supply(self, choice, sides):
        swarm = Swarm(5, [0.04] * 8, capacity=120, degree=6.0)
        result = as_dict(*_choose_suppliers_for_cells(*swarm.inputs(choice)))
        assert result and result == swarm.reference(choice)
        assert sides["demand_cells"] == 0 and sides["supply_cols"]

    def test_holderless_columns_stay_unresolved(self, choice, sides):
        density = [0.0, 0.8, 0.0, 0.0, 0.05, 0.0, 0.7, 0.0]
        swarm = Swarm(6, density)
        _, cols, _ = _choose_suppliers_for_cells(*swarm.inputs(choice))
        empty = {c for c, d in enumerate(density) if d == 0.0}
        assert not empty & set(cols.tolist())
        assert empty <= set(sides["supply_cols"])
        assert as_dict(*supply_only(swarm, choice, empty)) == {}


def test_supply_side_waits_for_a_saving_above_its_overhead(sides, monkeypatch):
    swarm = Swarm(5, [0.04] * 8, capacity=120, degree=6.0)
    expected = swarm.reference("least-loaded")
    monkeypatch.setattr(streaming_sim, "_SUPPLY_OVERHEAD", 10**9)
    assert as_dict(*_choose_suppliers_for_cells(*swarm.inputs("least-loaded"))) == expected
    assert sides["demand_cells"] > 0 and not sides["supply_cols"]


@pytest.mark.parametrize("choice", CHOICES)
def test_hub_row_split_across_blocks(choice, monkeypatch):
    swarm = Swarm(7, MIXED, capacity=64, hub=True)
    expected = swarm.reference(choice)
    monkeypatch.setattr(streaming_sim, "_EDGE_BLOCK", 5)
    # The hub (row 0) is longer than a block: a block of its own when it
    # misses chunks (demand side) and when it holds them (supply side).
    assert swarm.pack.degrees[0] > 5
    assert (swarm.rows == 0).any() and swarm.have[:, swarm.alive_slots[0]].any()
    assert as_dict(*demand_only(swarm, choice)) == expected
    assert as_dict(*supply_only(swarm, choice)) == expected
    assert as_dict(*_choose_suppliers_for_cells(*swarm.inputs(choice))) == expected


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
    # Every integer price level splits into distinct quotes less than
    # _EPS apart; the loop kernel treats each level as one tie.
    rng = np.random.default_rng(seed + 10)
    swarm.price_win = swarm.price_win + rng.random(swarm.price_win.shape) * 0.9 * _EPS
    expected = swarm.reference("cheapest")
    assert as_dict(*demand_only(swarm, "cheapest")) == expected
    assert as_dict(*supply_only(swarm, "cheapest")) == expected
