"""Shared round-based churn and taxation for the slot-array simulators.

Both :class:`~repro.p2psim.market_sim.CreditMarketSimulator` and
:class:`~repro.p2psim.streaming_sim.StreamingMarketSimulator` keep peer
state in slot-indexed numpy arrays behind an ``_alive`` mask, drive
membership through a :class:`~repro.overlay.membership.MembershipTracker`
and draw from a single ``_rng`` stream.  The per-round churn and
income-taxation steps are therefore identical up to the simulator-specific
admit/refresh hooks — this module holds the one copy both simulators call,
so a fix to either step can never silently diverge the two fidelity
levels.  Admitting a peer never derives a neighbour row: a churn round
first applies every departure and arrival, then refreshes each peer whose
neighbour set changed exactly once, so a hub touched by many joins in one
round is recomputed once rather than once per join.

The expected simulator attributes are ``config`` (with ``churn`` and
``tax_policy``), ``_rng``, ``_alive``, ``_balance``, ``_peer_of``,
``_tracker``, ``topology``, ``_tax_pool`` and the ``joins``/``leaves``
counters.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.core.taxation import NoTax, ThresholdIncomeTax

__all__ = ["apply_round_churn", "apply_income_taxation"]


def apply_round_churn(
    sim,
    dt: float,
    admit: Callable[[int], object],
    refresh_neighbor: Callable[[int], None],
) -> None:
    """Apply one round of Poisson arrivals and exponential departures.

    Each alive peer departs within ``dt`` with probability
    ``1 − exp(−dt/lifespan)`` (the discretised exponential lifetime — the
    distribution is memoryless, so peers present at start-up churn like
    everyone else) and a Poisson number of peers arrives, wired into the
    overlay by the tracker.  ``admit`` creates the simulator state of one
    joining peer without deriving any neighbour row.  After the last
    arrival, ``refresh_neighbor`` re-derives the cached row of every peer
    whose neighbour set changed — each leaver's former neighbours, each
    orphan's repair partner, each joiner and its neighbours — once, in the
    order they were first touched.  Peers that left later in the round are
    skipped by the hook.
    """
    churn = sim.config.churn
    if churn is None:
        return
    rng = sim._rng
    departure_probability = 1.0 - np.exp(-dt / churn.mean_lifespan)
    alive_slots = np.flatnonzero(sim._alive)
    departing = alive_slots[rng.random(alive_slots.size) < departure_probability]
    # Insertion-ordered set of the peers whose neighbour rows went stale.
    touched: Dict[int, None] = {}
    for slot in departing:
        if sim.topology.num_peers <= 2:
            break
        peer_id = sim._peer_of[int(slot)]
        departure = sim._tracker.leave(peer_id)
        sim._evict(peer_id)
        sim.leaves += 1
        touched.update(dict.fromkeys(departure.former_neighbors))
        # A repaired orphan is a former neighbour; its partner gained an
        # edge too and must start routing to it.
        touched.update(dict.fromkeys(partner for _, partner in departure.repairs))
    arrivals = rng.poisson(churn.arrival_rate * dt)
    for _ in range(int(arrivals)):
        peer_id = sim._tracker.join()
        admit(peer_id)
        sim.joins += 1
        touched[peer_id] = None
        touched.update(dict.fromkeys(sim.topology.neighbors(peer_id)))
    for peer_id in touched:
        refresh_neighbor(peer_id)


def apply_income_taxation(sim, income: np.ndarray, now: float) -> None:
    """Tax one round's per-slot income under the simulator's tax policy.

    :class:`~repro.core.taxation.ThresholdIncomeTax` — the paper's rule —
    runs as a vectorised fast path over the alive slots (collecting into
    ``sim._tax_pool`` and rebating whole units once the pool covers a
    round of rebates).  Custom policies fall back to a per-peer pass
    through a minimal ledger facade.
    """
    policy = sim.config.tax_policy
    if isinstance(policy, NoTax):
        return
    alive_slots = np.flatnonzero(sim._alive)
    if alive_slots.size == 0:
        return
    if isinstance(policy, ThresholdIncomeTax):
        balances = sim._balance[alive_slots]
        incomes = income[alive_slots]
        taxable = (balances > policy.threshold) & (incomes > 0)
        taxes = np.where(taxable, np.minimum(incomes * policy.rate, balances), 0.0)
        sim._balance[alive_slots] -= taxes
        collected = float(taxes.sum())
        sim._tax_pool += collected
        policy.total_collected += collected
        rebate_cost = policy.rebate_unit * alive_slots.size
        while rebate_cost > 0 and sim._tax_pool >= rebate_cost:
            sim._balance[alive_slots] += policy.rebate_unit
            sim._tax_pool -= rebate_cost
            policy.total_rebated += rebate_cost
            policy.rebate_rounds += 1
        return
    # Generic (slower) path for custom policies: apply per peer through a
    # minimal ledger facade.
    from repro.core.credits import CreditLedger

    ledger = CreditLedger(record_transactions=False)
    for slot in alive_slots:
        ledger.open_wallet(int(slot), float(sim._balance[slot]))
    population = [int(slot) for slot in alive_slots]
    for slot in alive_slots:
        if income[slot] > 0:
            policy.on_income(ledger, int(slot), float(income[slot]), now, population)
    for slot in alive_slots:
        sim._balance[slot] = ledger.wallet(int(slot)).balance
    sim._tax_pool += ledger.system_pool
