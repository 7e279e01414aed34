"""Benchmark: spending-kernel step throughput, loop vs vectorized.

Times ``advance_rounds`` (construction excluded) for the per-spender
**loop** oracle — the pre-vectorization hot path, run by
``LoopCreditMarketSimulator`` from ``tests/kernel_oracles.py`` — and the
batched **vectorized** kernel of ``CreditMarketSimulator`` at several
populations, verifies the two produce bit-identical end states, and
records the numbers to ``BENCH_simkernel.json`` at the repo root.  It is
a pytest module: run it with ``python -m pytest
benchmarks/bench_simkernel.py``.

Two profiles share one recording format:

* the default (full) profile measures 100 / 500 / 1000 peers — the
  paper's population range — with both kernels, plus a vectorized-only
  population-scaling axis at 10k / 100k / 1M peers (the segmented-CSR
  kernel's million-peer headroom; the loop kernel is Python-bound and
  skipped there) and is what the committed baseline holds;
* ``REPRO_BENCH_SIMKERNEL=smoke`` measures only the small populations
  with short horizons plus the 10k scaling cell; CI runs it on every PR
  and ``check_bench_regression.py`` compares the overlapping populations
  against the committed baseline (>30% throughput regression fails).

``REPRO_BENCH_SIMKERNEL_OUT`` redirects the output file (CI writes to a
scratch path so the committed baseline stays pristine).

``REPRO_BENCH_TELEMETRY=1`` times every run under an *enabled*
:class:`~repro.obs.emitter.MetricsEmitter` draining into a
:class:`~repro.obs.sinks.MemorySink` (fresh per repeat), with a paired
disabled-emitter run interleaved repeat-by-repeat in the same process
(so machine load drift cancels out of the comparison) and recorded as
``disabled_*_per_second`` next to the instrumented numbers; the paired
runs must also end bit-identical — telemetry is strictly observational.
CI feeds the resulting ``"telemetry": true`` recording to
``check_telemetry_overhead.py`` to bound the observation cost (>5%
throughput drop fails).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.obs import MemorySink, MetricsEmitter, use_emitter
from repro.p2psim import CreditMarketSimulator, MarketSimConfig, UtilizationMode

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_simkernel.json"

# The loop oracle lives with the tests.
sys.path.insert(0, str(REPO_ROOT / "tests"))
from kernel_oracles import MARKET_KERNELS  # noqa: E402

#: (num_peers, simulated rounds) per profile.  Rounds shrink with the
#: population so every measurement stays in wall-clock seconds.  The smoke
#: profile is a strict prefix of the full one — identical (peers, rounds)
#: pairs — so CI's smoke numbers compare like-for-like against the
#: committed full-profile baseline.
PROFILES = {
    "full": [(100, 400), (500, 120), (1000, 60)],
    "smoke": [(100, 400), (500, 120)],
}

#: Vectorized-only population-scaling cells ``(num_peers, rounds)``.  The
#: loop kernel walks spenders in Python and is skipped at these sizes;
#: cross-kernel identity is covered by the paired populations above.  The
#: smoke cell is identical to the full profile's, so CI smoke numbers
#: compare like-for-like against the committed baseline.
SCALING = {
    "full": [(10_000, 40), (100_000, 10), (1_000_000, 2)],
    "smoke": [(10_000, 40)],
}

KERNELS = ("loop", "vectorized")

#: Timing repeats per kernel (best-of): the gated vectorized kernel gets
#: extra repeats because its runs are cheap and CI runners are noisy.
REPEATS = {"loop": 1, "vectorized": 3}

#: Repeats floor in telemetry mode: the 5% paired overhead gate needs a
#: much tighter best-of estimate than the 30% cross-run baseline gate, so
#: both sides of every pair are measured at least this many times.
TELEMETRY_REPEATS = 7


def _config(num_peers: int, rounds: int) -> MarketSimConfig:
    return MarketSimConfig(
        num_peers=num_peers,
        initial_credits=100.0,
        horizon=float(rounds),
        step=1.0,
        utilization=UtilizationMode.ASYMMETRIC,
        sample_interval=float(rounds),  # one warm-up sample, one final
        seed=1,
    )


def _state_fingerprint(simulator: CreditMarketSimulator) -> tuple:
    return (
        simulator._balance.tobytes(),
        simulator._spent.tobytes(),
        simulator._earned.tobytes(),
        simulator.total_transfers,
    )


def _telemetry_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_TELEMETRY", "") not in ("", "0")


def _telemetry_scope():
    """Per-repeat emitter scope: enabled + fresh MemorySink, or a no-op."""
    if _telemetry_enabled():
        return use_emitter(MetricsEmitter(sinks=[MemorySink()]))
    return contextlib.nullcontext()


def _timed_run(num_peers: int, rounds: int, kernel: str, scope) -> dict:
    simulator = MARKET_KERNELS[kernel](_config(num_peers, rounds))
    with scope:
        started = time.perf_counter()
        simulator.advance_rounds(rounds)
        elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "steps_per_second": rounds / elapsed,
        "transfers": simulator.total_transfers,
        "fingerprint": _state_fingerprint(simulator),
    }


def _measure(num_peers: int, rounds: int, kernel: str) -> dict:
    """Best-of-``REPEATS[kernel]`` timing of one (population, kernel) cell.

    In telemetry mode every instrumented repeat is paired with a
    disabled-emitter repeat in the same process; the best disabled timing
    lands in ``disabled_steps_per_second`` and the paired end states are
    asserted bit-identical (enabling the emitter must observe the run,
    never steer it).
    """
    telemetry = _telemetry_enabled()
    repeats = max(REPEATS[kernel], TELEMETRY_REPEATS) if telemetry else REPEATS[kernel]
    best = None
    best_disabled = None
    for _ in range(repeats):
        if telemetry:
            run = _timed_run(num_peers, rounds, kernel, contextlib.nullcontext())
            if best_disabled is None or run["seconds"] < best_disabled["seconds"]:
                best_disabled = run
        run = _timed_run(num_peers, rounds, kernel, _telemetry_scope())
        if best is None or run["seconds"] < best["seconds"]:
            best = run
    if telemetry:
        assert best["fingerprint"] == best_disabled["fingerprint"], (
            f"telemetry changed the {kernel} kernel's end state at {num_peers} peers"
        )
        best["disabled_steps_per_second"] = best_disabled["steps_per_second"]
    return best


def test_simkernel_throughput():
    profile = os.environ.get("REPRO_BENCH_SIMKERNEL", "full")
    if profile not in PROFILES:
        raise SystemExit(
            f"unknown REPRO_BENCH_SIMKERNEL profile {profile!r}; "
            f"known: {', '.join(PROFILES)}"
        )
    populations = []
    for num_peers, rounds in PROFILES[profile]:
        measured = {kernel: _measure(num_peers, rounds, kernel) for kernel in KERNELS}
        # The two kernels must tell the same story before their timings are
        # comparable: identical balances, counters and transfer totals.
        assert (
            measured["loop"]["fingerprint"] == measured["vectorized"]["fingerprint"]
        ), f"kernels diverged at {num_peers} peers"
        entry = {
            "num_peers": num_peers,
            "rounds": rounds,
            "transfers": measured["vectorized"]["transfers"],
            "loop_steps_per_second": round(measured["loop"]["steps_per_second"], 2),
            "vectorized_steps_per_second": round(
                measured["vectorized"]["steps_per_second"], 2
            ),
            "speedup": round(
                measured["vectorized"]["steps_per_second"]
                / measured["loop"]["steps_per_second"],
                3,
            ),
        }
        if _telemetry_enabled():
            entry["disabled_loop_steps_per_second"] = round(
                measured["loop"]["disabled_steps_per_second"], 2
            )
            entry["disabled_vectorized_steps_per_second"] = round(
                measured["vectorized"]["disabled_steps_per_second"], 2
            )
        populations.append(entry)

    for num_peers, rounds in SCALING[profile]:
        # Single repeat at the million-peer cell: its construction alone
        # dominates the best-of budget and the 30% gate has headroom.
        repeats = 1 if num_peers >= 500_000 else REPEATS["vectorized"]
        best = None
        for _ in range(repeats):
            run = _timed_run(num_peers, rounds, "vectorized", contextlib.nullcontext())
            if best is None or run["seconds"] < best["seconds"]:
                best = run
        populations.append(
            {
                "num_peers": num_peers,
                "rounds": rounds,
                "transfers": best["transfers"],
                "vectorized_steps_per_second": round(best["steps_per_second"], 2),
            }
        )

    record = {
        "profile": profile,
        "telemetry": _telemetry_enabled(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_byte_identical": True,
        "populations": populations,
    }
    output = Path(os.environ.get("REPRO_BENCH_SIMKERNEL_OUT") or OUTPUT_PATH)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print()
    print(json.dumps(record, indent=2))
