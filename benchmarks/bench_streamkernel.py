"""Benchmark: streaming-kernel tick throughput, loop vs vectorized.

Times ``advance_rounds`` (construction excluded) for the per-peer
**loop** oracle — the per-peer/per-chunk scheduling walk that was the
pre-batching hot path, run by ``LoopStreamingMarketSimulator`` from
``tests/kernel_oracles.py`` — and the batched **vectorized** kernel of
``StreamingMarketSimulator`` at several populations, verifies the two
produce bit-identical end states, and records the numbers to
``BENCH_streamkernel.json`` at the repo root.  It is a pytest module: run
it with ``python -m pytest benchmarks/bench_streamkernel.py``; run as a
script it does nothing.

Two profiles share one recording format:

* the default (full) profile measures 100 / 500 / 1000 peers — the
  paper's population range — with both kernels, plus a vectorized-only
  population-scaling axis at 10k / 100k peers (the edge-segment kernel's
  large-swarm headroom; the loop kernel is Python-bound and skipped
  there) and is what the committed baseline holds;
* ``REPRO_BENCH_STREAMKERNEL=smoke`` measures only the small populations
  plus the 10k scaling cell; CI runs it on every PR and
  ``check_bench_regression.py`` compares the overlapping populations
  against the committed baseline (>30% throughput regression of *either*
  kernel fails).

``REPRO_BENCH_STREAMKERNEL_OUT`` redirects the output file (CI writes to
a scratch path so the committed baseline stays pristine).

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
from repro.p2psim import StreamingMarketSimulator, StreamingSimConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_streamkernel.json"

# The loop oracle lives with the tests.
sys.path.insert(0, str(REPO_ROOT / "tests"))
from kernel_oracles import STREAMING_KERNELS  # noqa: E402

#: (num_peers, simulated ticks) per profile.  Ticks shrink with the
#: population so every measurement stays in wall-clock seconds.  The smoke
#: profile is a strict prefix of the full one — identical (peers, ticks)
#: pairs — so CI's smoke numbers compare like-for-like against the
#: committed full-profile baseline.
PROFILES = {
    "full": [(100, 200), (500, 60), (1000, 30)],
    "smoke": [(100, 200), (500, 60)],
}

#: Vectorized-only population-scaling cells ``(num_peers, ticks)``.  The
#: loop kernel walks peers and window cells in Python and is skipped at
#: these sizes; cross-kernel identity is covered by the paired populations
#: above.  The smoke cell is identical to the full profile's, so CI smoke
#: numbers compare like-for-like against the committed baseline.
SCALING = {
    "full": [(10_000, 10), (100_000, 3)],
    "smoke": [(10_000, 10)],
}

KERNELS = ("loop", "vectorized")

#: Timing repeats per kernel (best-of): the gated vectorized kernel gets
#: extra repeats because its runs are cheap and CI runners are noisy.
REPEATS = {"loop": 2, "vectorized": 4}

#: Repeats floor in telemetry mode: the 5% paired overhead gate needs a
#: much tighter best-of estimate than the 30% cross-run baseline gate, so
#: both sides of every pair are measured at least this many times.
TELEMETRY_REPEATS = 5


def _config(num_peers: int, ticks: int) -> StreamingSimConfig:
    return StreamingSimConfig(
        num_peers=num_peers,
        initial_credits=100.0,
        horizon=float(ticks),
        sample_interval=float(ticks),  # one warm-up sample, one final
        seed=1,
    )


def _state_fingerprint(simulator: StreamingMarketSimulator) -> tuple:
    return (
        simulator._balance.tobytes(),
        simulator._spent_win.tobytes(),
        simulator._earned_win.tobytes(),
        simulator._uploads_total.tobytes(),
        simulator.chunks_delivered,
    )


def _telemetry_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_TELEMETRY", "") not in ("", "0")


def _telemetry_scope():
    """Per-repeat emitter scope: enabled + fresh MemorySink, or a no-op."""
    if _telemetry_enabled():
        return use_emitter(MetricsEmitter(sinks=[MemorySink()]))
    return contextlib.nullcontext()


def _timed_run(num_peers: int, ticks: int, kernel: str, scope) -> dict:
    simulator = STREAMING_KERNELS[kernel](_config(num_peers, ticks))
    with scope:
        started = time.perf_counter()
        simulator.advance_rounds(ticks)
        elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "ticks_per_second": ticks / elapsed,
        "chunks": simulator.chunks_delivered,
        "fingerprint": _state_fingerprint(simulator),
    }


def _measure(num_peers: int, ticks: int, kernel: str) -> dict:
    """Best-of-``REPEATS[kernel]`` timing of one (population, kernel) cell.

    In telemetry mode every instrumented repeat is paired with a
    disabled-emitter repeat in the same process; the best disabled timing
    lands in ``disabled_ticks_per_second`` and the paired end states are
    asserted bit-identical (enabling the emitter must observe the run,
    never steer it).
    """
    telemetry = _telemetry_enabled()
    repeats = max(REPEATS[kernel], TELEMETRY_REPEATS) if telemetry else REPEATS[kernel]
    best = None
    best_disabled = None
    for _ in range(repeats):
        if telemetry:
            run = _timed_run(num_peers, ticks, kernel, contextlib.nullcontext())
            if best_disabled is None or run["seconds"] < best_disabled["seconds"]:
                best_disabled = run
        run = _timed_run(num_peers, ticks, kernel, _telemetry_scope())
        if best is None or run["seconds"] < best["seconds"]:
            best = run
    if telemetry:
        assert best["fingerprint"] == best_disabled["fingerprint"], (
            f"telemetry changed the {kernel} kernel's end state at {num_peers} peers"
        )
        best["disabled_ticks_per_second"] = best_disabled["ticks_per_second"]
    return best


def test_streamkernel_throughput():
    profile = os.environ.get("REPRO_BENCH_STREAMKERNEL", "full")
    if profile not in PROFILES:
        raise SystemExit(
            f"unknown REPRO_BENCH_STREAMKERNEL profile {profile!r}; "
            f"known: {', '.join(PROFILES)}"
        )
    populations = []
    for num_peers, ticks in PROFILES[profile]:
        measured = {kernel: _measure(num_peers, ticks, kernel) for kernel in KERNELS}
        # The two kernels must tell the same story before their timings are
        # comparable: identical balances, counters and delivery totals.
        assert (
            measured["loop"]["fingerprint"] == measured["vectorized"]["fingerprint"]
        ), f"kernels diverged at {num_peers} peers"
        entry = {
            "num_peers": num_peers,
            "ticks": ticks,
            "chunks": measured["vectorized"]["chunks"],
            "loop_ticks_per_second": round(
                measured["loop"]["ticks_per_second"], 2
            ),
            "vectorized_ticks_per_second": round(
                measured["vectorized"]["ticks_per_second"], 2
            ),
            "speedup": round(
                measured["vectorized"]["ticks_per_second"]
                / measured["loop"]["ticks_per_second"],
                3,
            ),
        }
        if _telemetry_enabled():
            entry["disabled_loop_ticks_per_second"] = round(
                measured["loop"]["disabled_ticks_per_second"], 2
            )
            entry["disabled_vectorized_ticks_per_second"] = round(
                measured["vectorized"]["disabled_ticks_per_second"], 2
            )
        populations.append(entry)

    for num_peers, ticks in SCALING[profile]:
        best = None
        for _ in range(REPEATS["vectorized"]):
            run = _timed_run(num_peers, ticks, "vectorized", contextlib.nullcontext())
            if best is None or run["seconds"] < best["seconds"]:
                best = run
        populations.append(
            {
                "num_peers": num_peers,
                "ticks": ticks,
                "chunks": best["chunks"],
                "vectorized_ticks_per_second": round(best["ticks_per_second"], 2),
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
    output = Path(os.environ.get("REPRO_BENCH_STREAMKERNEL_OUT") or OUTPUT_PATH)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print()
    print(json.dumps(record, indent=2))
