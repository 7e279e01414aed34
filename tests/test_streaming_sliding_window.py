"""The vectorized streaming kernel and its loop oracle agree after the window slides.

The availability window keeps ``max(4 × playback_window, …)`` columns,
column-major (``have[col, slot]``), and slides by whole column rows once
the live edge passes its end.  The swarms here run well past that, with
the supply side's fixed cost zeroed so that each run also takes both of
the vectorized kernel's supplier-choice sides; the 400-peer swarms of
``test_streaming_determinism`` never slide, and the golden cases never
take the supply side.  Each must end byte-identical under the kernel
and its oracle, and when run in 3 blocks with a pickle round-trip between them, including
a churned swarm whose peers depart with chunks still in flight after a
slide.
"""

import pytest

from repro.core.pricing import PerPeerFlatPricing
from repro.overlay import ChurnConfig
from repro.p2psim import StreamingMarketSimulator, StreamingSimConfig
from repro.p2psim import streaming_sim
from kernel_oracles import STREAMING_KERNELS
from roundtrip import run_round_tripped

NUM_PEERS = 80


def sliding_config(**overrides):
    """A swarm run for ten window widths past its first slide."""
    defaults = dict(
        num_peers=NUM_PEERS,
        initial_credits=30.0,
        horizon=70.0,
        playback_window=6,
        topology_mean_degree=5.0,
        sample_interval=10.0,
        seed=41,
    )
    defaults.update(overrides)
    return StreamingSimConfig(**defaults)


CONFIGS = {
    "availability": sliding_config(supplier_choice="availability"),
    "least-loaded": sliding_config(supplier_choice="least-loaded"),
    "cheapest": sliding_config(
        supplier_choice="cheapest",
        pricing=PerPeerFlatPricing({peer: float(1 + peer % 3) for peer in range(NUM_PEERS)}),
    ),
    # Chunks take three ticks to land, so departures catch some in flight.
    "churned": sliding_config(
        churn=ChurnConfig(arrival_rate=NUM_PEERS / 30.0, mean_lifespan=30.0),
        transfer_latency=2.5,
    ),
}


def fingerprint(result):
    """Byte-level identity of everything a StreamingSimResult reports."""
    return (
        result.final_wealths.tobytes(),
        result.spending_rates.tobytes(),
        result.earning_rates.tobytes(),
        result.continuity.tobytes(),
        result.chunks_delivered,
        result.joins,
        result.leaves,
        tuple(result.extras["peer_order"]),
        result.extras["source_chunks"],
        tuple(result.recorder.gini_series.y),
        tuple(result.recorder.population_series.y),
    )


def run(config, kernel):
    simulator = STREAMING_KERNELS[kernel](config)
    result = simulator.run()
    # The window slid: its first column is no longer chunk 0.
    assert simulator._win_base > simulator._win_width
    return result


@pytest.fixture
def sides(monkeypatch):
    """Zero the supply side's fixed cost and count the work of each side."""
    monkeypatch.setattr(streaming_sim, "_SUPPLY_OVERHEAD", 0)
    taken = {"demand": 0, "supply": 0}
    demand, supply = streaming_sim._demand_side, streaming_sim._supply_side

    def demand_spy(*args):
        taken["demand"] += args[1].size  # candidate cells
        return demand(*args)

    def supply_spy(*args):
        taken["supply"] += args[1].size  # one column's cells of open rows
        return supply(*args)

    monkeypatch.setattr(streaming_sim, "_demand_side", demand_spy)
    monkeypatch.setattr(streaming_sim, "_supply_side", supply_spy)
    return taken


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kernels_byte_identical_after_slides_with_both_sides(name, sides):
    vectorized = run(CONFIGS[name], "vectorized")
    assert sides["demand"] > 0 and sides["supply"] > 0
    loop = run(CONFIGS[name], "loop")
    assert fingerprint(vectorized) == fingerprint(loop)
    assert vectorized.chunks_delivered > 0


def test_departures_with_chunks_in_flight_after_a_slide(sides, monkeypatch):
    departures = []
    evict = StreamingMarketSimulator._evict

    def recording_evict(simulator, peer_ids):
        for slot in simulator._slots.slot_of[peer_ids].tolist():
            in_flight = sum(
                int((buyers == slot).sum())
                for batch in simulator._in_flight
                for buyers, _ in batch
            )
            departures.append((simulator._win_base, in_flight))
        evict(simulator, peer_ids)

    monkeypatch.setattr(StreamingMarketSimulator, "_evict", recording_evict)
    vectorized = run(CONFIGS["churned"], "vectorized")
    vectorized_departures = list(departures)
    assert vectorized.leaves == len(vectorized_departures) > 0
    assert any(base > 0 and in_flight > 0 for base, in_flight in vectorized_departures)
    departures.clear()
    loop = run(CONFIGS["churned"], "loop")
    assert departures == vectorized_departures
    assert fingerprint(vectorized) == fingerprint(loop)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_three_round_tripped_blocks_byte_identical_to_monolithic(name, sides):
    config = CONFIGS[name]
    monolithic = StreamingMarketSimulator.run_config(config)
    round_tripped = run_round_tripped(StreamingMarketSimulator(config), blocks=3)
    assert fingerprint(round_tripped) == fingerprint(monolithic)
