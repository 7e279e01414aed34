"""The vectorized streaming kernel's column walk, against the loop oracle.

``_choose_cells`` resolves the window columns before the first supply
column in one demand-side batch and walks the later ones one at a time,
resolving only the cells of peers that can still request and paying
from the budgets the earlier columns left.  The 400-peer swarms here take
a supply column in every tick and hold 20-credit wallets against
per-seller whole-credit Poisson prices, so the walk meets what the batch
never does:

* a walked peer skips a cell it cannot afford and buys a later one;
* peers close before the last supply column, and none of their cells
  reaches ``_supply_side``;
* a supply column comes before a demand column, forced through the side
  rule (``_supply_columns``), so the walk also resolves demand columns.

Every run must end byte-identical to the loop oracle's.
"""

import numpy as np
import pytest

from repro.p2psim import StreamingSimConfig
from repro.p2psim import streaming_sim
from drawn_prices import poisson_prices
from kernel_oracles import STREAMING_KERNELS

CHOICES = ["availability", "least-loaded", "cheapest"]


def walk_config(choice):
    return StreamingSimConfig(
        num_peers=400,
        horizon=30.0,
        sample_interval=5.0,
        initial_credits=20.0,
        supplier_choice=choice,
        pricing=poisson_prices(2.0, seed=5),
        seed=5,
    )


def fingerprint(result):
    """Byte-level identity of everything a StreamingSimResult reports."""
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.continuity.tobytes(),
        result.chunks_delivered,
        tuple(result.extras["peer_order"]),
        tuple(result.recorder.gini_series.y),
    )


def run(choice, kernel):
    return STREAMING_KERNELS[kernel].run_config(walk_config(choice))


class Tick:
    """What one ``_choose_cells`` call saw and did."""

    def __init__(self, lo, wanted, max_requests):
        self.lo, self.wanted, self.max_requests = lo, wanted.copy(), max_requests
        self.supply = None
        self.demand_calls = []  # (rows, cols) passed; the first is the batch
        self.supply_calls = []  # (col, rows passed, rows resolved)
        self.walked = []  # (col, rows resolved) of every walked column
        self.picks = None

    def closing_col(self):
        """``{row: column of its last allowed purchase}`` for rows that closed."""
        rows, cols, _ = self.picks
        closed, count = {}, {}
        for row, col in zip(rows.tolist(), cols.tolist()):
            count[row] = count.get(row, 0) + 1
            if count[row] == self.max_requests:
                closed[row] = col
        return closed


@pytest.fixture
def ticks(monkeypatch):
    """Record every tick of the vectorized kernel through spies on its helpers."""
    seen = []
    choose = streaming_sim._choose_cells
    columns = streaming_sim._supply_columns
    demand, supply = streaming_sim._demand_side, streaming_sim._supply_side

    def choose_spy(round_, lo, wanted, budget, max_requests):
        seen.append(Tick(lo, wanted, max_requests))
        seen[-1].picks = choose(round_, lo, wanted, budget, max_requests)
        return seen[-1].picks

    def columns_spy(*args):
        seen[-1].supply = columns(*args)
        return seen[-1].supply

    def demand_spy(round_, rows, cols):
        tick = seen[-1]
        result = demand(round_, rows, cols)
        if tick.demand_calls and rows.size:
            tick.walked.append((int(cols[0]), result[0]))
        tick.demand_calls.append((rows, cols))
        return result

    def supply_spy(round_, rows, col, holders):
        result = supply(round_, rows, col, holders)
        seen[-1].supply_calls.append((col, rows, result[0]))
        seen[-1].walked.append((col, result[0]))
        return result

    monkeypatch.setattr(streaming_sim, "_choose_cells", choose_spy)
    monkeypatch.setattr(streaming_sim, "_supply_columns", columns_spy)
    monkeypatch.setattr(streaming_sim, "_demand_side", demand_spy)
    monkeypatch.setattr(streaming_sim, "_supply_side", supply_spy)
    return seen


@pytest.mark.parametrize("choice", CHOICES)
def test_walked_rows_skip_unaffordable_cells_and_buy_later_ones(choice, ticks):
    vectorized = run(choice, "vectorized")
    skipped_then_bought = 0
    for tick in ticks:
        rows, cols, _ = tick.picks
        bought = set(zip(rows.tolist(), cols.tolist()))
        # Purchases come in (row, column) order: the last one per row wins.
        last = dict(zip(rows.tolist(), cols.tolist()))
        for col, resolved in tick.walked:
            # A walked column resolves open rows only, so a resolved cell
            # it did not buy was one its row could not afford.
            for row in resolved.tolist():
                if (row, col) not in bought and last.get(row, -1) > col:
                    skipped_then_bought += 1
    assert skipped_then_bought > 0
    assert fingerprint(vectorized) == fingerprint(run(choice, "loop"))


@pytest.mark.parametrize("choice", CHOICES)
def test_rows_closed_before_a_supply_column_never_reach_it(choice, ticks):
    vectorized = run(choice, "vectorized")
    closed_and_wanting = 0
    for tick in ticks:
        closed = tick.closing_col()
        for col, passed, _ in tick.supply_calls:
            assert not any(closed.get(row, col) < col for row in passed.tolist())
        for i in np.flatnonzero(tick.supply).tolist():
            col = tick.lo + i
            closed_and_wanting += sum(
                1 for row in np.flatnonzero(tick.wanted[i]).tolist() if closed.get(row, col) < col
            )
    assert closed_and_wanting > 0
    assert fingerprint(vectorized) == fingerprint(run(choice, "loop"))


@pytest.mark.parametrize("pattern", ["first-supply", "alternating"])
@pytest.mark.parametrize("choice", CHOICES)
def test_demand_columns_walked_after_a_forced_supply_column(choice, pattern, ticks, monkeypatch):
    side_rule = streaming_sim._supply_columns

    def forced(round_, lo, wanted):
        # ``side_rule`` is the fixture's spy, which keeps this very array:
        # it records the forced sides.
        supply = side_rule(round_, lo, wanted)
        if pattern == "first-supply":
            supply[:1] = True
        else:
            supply[:] = np.arange(supply.size) % 2 == 0
        return supply

    monkeypatch.setattr(streaming_sim, "_supply_columns", forced)
    vectorized = run(choice, "vectorized")
    walked_demand = 0
    for tick in ticks:
        if not tick.supply.size:
            continue
        split = int(np.argmax(tick.supply))
        assert tick.supply[split]
        # The batch is empty: the first column is a supply column.
        assert split == 0 and tick.demand_calls[0][0].size == 0
        for rows, cols in tick.demand_calls[1:]:
            assert not tick.supply[int(cols[0]) - tick.lo]
            walked_demand += rows.size
    assert walked_demand > 0
    assert fingerprint(vectorized) == fingerprint(run(choice, "loop"))
