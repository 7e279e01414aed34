"""Supplier choice of the vectorized streaming kernel, side by side.

``_choose_suppliers_for_cells`` expands each window column from its
cheaper side: the candidate cells' rows (demand) or the holders' rows
(supply).  Both sides must pick exactly what the loop kernel picks —
``eligible → ties → ties[pick]`` per cell — so these tests compare each
side, and the split between them, against that brute-force reference on
random undirected CSR overlays.
"""

import numpy as np
import pytest

from repro.p2psim import streaming_sim
from repro.p2psim.slots import SlotPack
from repro.p2psim.streaming_sim import (
    _EPS,
    _choose_suppliers_for_cells,
    _demand_side,
    _pick_ties,
    _supply_side,
)

CHOICES = ["availability", "least-loaded", "cheapest"]


class Swarm:
    """Read-only kernel inputs over a random undirected overlay.

    ``density[c]`` is the chance that an alive slot holds column ``c``;
    ``hub`` links the first alive slot to every other alive slot.
    """

    def __init__(self, seed, density, capacity=48, window=5, degree=4.0, hub=False):
        rng = np.random.default_rng(seed)
        width = len(density)
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
        self.have = (rng.random((capacity, width)) < np.asarray(density)) & alive[:, None]
        # Few distinct prices and loads, so ties are common.
        self.price_win = rng.integers(1, 4, size=(capacity, width)).astype(float)
        self.uploads_total = rng.integers(0, 3, size=capacity).astype(float)

        self.first_col = rng.integers(-2, width - window + 2, size=count)
        cols = self.first_col[:, None] + np.arange(window)
        valid = (cols >= 0) & (cols < width)
        own = self.have[self.alive_slots[:, None], np.clip(cols, 0, width - 1)]
        self.candidate = valid & ~own & (degrees > 0)[:, None]
        self.uniforms = rng.random((count, window))
        # u = 1 makes u·count equal count: the pick must clamp to the last tie.
        self.uniforms[rng.random((count, window)) < 0.1] = 1.0

    def inputs(self, choice):
        return (
            self.have, self.price_win, self.uploads_total, self.pack,
            self.first_col, self.candidate, self.uniforms, choice,
        )

    def reference(self, choice, columns=None):
        """``{(row, w): supplier}`` by the loop kernel's per-cell rule."""
        chosen = {}
        pack = self.pack
        for r, w in zip(*np.nonzero(self.candidate)):
            col = int(self.first_col[r] + w)
            if columns is not None and col not in columns:
                continue
            neighbours = pack.edge_dst[pack.row_start[r] : pack.row_start[r + 1]]
            eligible = [int(s) for s in neighbours if self.have[s, col]]
            if not eligible:
                continue
            if choice == "least-loaded":
                scores = [float(self.uploads_total[s]) for s in eligible]
            elif choice == "cheapest":
                scores = [float(self.price_win[s, col]) for s in eligible]
            else:
                scores = [0.0] * len(eligible)
            best = min(scores)
            ties = [s for s, score in zip(eligible, scores) if score <= best + _EPS]
            pick = min(int(float(self.uniforms[r, w]) * len(ties)), len(ties) - 1)
            chosen[(int(r), int(w))] = ties[pick]
        return chosen


def as_dict(rows, ws, sellers):
    result = {(int(r), int(w)): int(s) for r, w, s in zip(rows, ws, sellers)}
    assert len(result) == len(rows), "a cell was resolved twice"
    return result


def demand_only(swarm, choice):
    rows, ws = np.nonzero(swarm.candidate)
    return _demand_side(
        swarm.have, swarm.price_win, swarm.uploads_total, swarm.pack,
        rows, ws, swarm.first_col[rows] + ws, swarm.uniforms, choice,
    )


def supply_only(swarm, choice, columns):
    slot_degree = np.zeros(swarm.have.shape[0], dtype=np.int64)
    slot_degree[swarm.pack.alive_slots] = swarm.pack.degrees
    return _supply_side(
        swarm.have, swarm.price_win, swarm.uploads_total, swarm.pack,
        swarm.first_col, swarm.candidate, swarm.uniforms,
        np.asarray(columns, dtype=np.int64), slot_degree, choice,
    )


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
        seen["demand_cells"] += args[4].size
        return demand(*args)

    def supply_spy(*args):
        seen["supply_cols"].extend(args[7].tolist())
        return supply(*args)

    monkeypatch.setattr(streaming_sim, "_demand_side", demand_spy)
    monkeypatch.setattr(streaming_sim, "_supply_side", supply_spy)
    return seen


MIXED = [0.0, 0.03, 0.05, 0.6, 0.8, 0.1, 0.9, 0.0, 0.02, 0.7, 0.5, 0.04]


@pytest.mark.parametrize("choice", CHOICES)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestEachSideMatchesTheReference:
    def test_demand_side(self, choice, seed):
        swarm = Swarm(seed, MIXED)
        assert as_dict(*demand_only(swarm, choice)) == swarm.reference(choice)

    def test_supply_side(self, choice, seed):
        swarm = Swarm(seed, MIXED)
        columns = range(len(MIXED))
        assert as_dict(*supply_only(swarm, choice, columns)) == swarm.reference(choice)

    def test_supply_side_on_a_subset_of_columns(self, choice, seed):
        swarm = Swarm(seed, MIXED)
        columns = {1, 2, 5, 8}
        expected = swarm.reference(choice, columns=columns)
        assert as_dict(*supply_only(swarm, choice, sorted(columns))) == expected


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
        rows, ws, _ = _choose_suppliers_for_cells(*swarm.inputs(choice))
        empty = {c for c, d in enumerate(density) if d == 0.0}
        assert not empty & set((swarm.first_col[rows] + ws).tolist())
        assert empty <= set(sides["supply_cols"])
        assert as_dict(*supply_only(swarm, choice, sorted(empty))) == {}


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
    # The hub (row 0) is longer than a block, misses chunks (demand side)
    # and holds chunks (supply side, where its row is split).
    assert swarm.pack.degrees[0] > 5
    assert swarm.candidate[0].any() and swarm.have[swarm.alive_slots[0]].any()
    assert as_dict(*demand_only(swarm, choice)) == expected
    assert as_dict(*supply_only(swarm, choice, range(len(MIXED)))) == expected
    assert as_dict(*_choose_suppliers_for_cells(*swarm.inputs(choice))) == expected


def test_pick_clamps_when_u_times_count_reaches_count():
    dst = np.array([7, 8, 9, 4, 5])
    seg = np.array([3, 2])
    u = np.array([1.0, 0.0])
    cols = np.zeros(5, dtype=np.int64)
    prices, loads = np.zeros((10, 1)), np.zeros(10)
    everyone = np.ones(5, dtype=bool)
    chosen, resolved = _pick_ties(dst, cols, everyone, seg, u, prices, loads, "availability")
    assert chosen.tolist() == [9, 4] and resolved.all()
    eligible = np.array([True, True, False, False, True])
    chosen, resolved = _pick_ties(dst, cols, eligible, seg, u, prices, loads, "least-loaded")
    assert chosen.tolist() == [8, 5] and resolved.all()
