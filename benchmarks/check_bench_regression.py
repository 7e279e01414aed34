"""Benchmark-regression gate: compare a fresh kernel benchmark to the baseline.

Usage::

    python benchmarks/check_bench_regression.py CURRENT.json [BASELINE.json]
        [--tolerance 0.30] [--metrics vectorized_steps_per_second,...]

Reads two kernel-benchmark recordings (``BENCH_simkernel.json`` or
``BENCH_streamkernel.json`` format; the baseline defaults to the committed
``BENCH_simkernel.json`` at the repo root) and compares each gated
throughput metric for every population the two recordings share.  By
default both the **vectorized** and the **loop** kernel baselines are
gated — a de-optimised loop baseline would silently inflate the reported
speedups — with metric names resolved against whichever of the two
recording formats is being compared.  A population whose current
throughput falls more than ``tolerance`` (default 30%,
``REPRO_BENCH_TOLERANCE`` env override) below the baseline for any gated
metric fails the gate with exit code 1.

The absolute numbers move with the hardware the gate runs on, which is
why the tolerance is wide: the gate exists to catch the order-of-magnitude
regressions (an accidentally de-vectorized hot path, a per-step rebuild of
the routing pack), not single-digit jitter.  As a hardware-independent
backstop the gate also checks the vectorized/loop ``speedup`` ratio (both
sides measured in the same run, so machine speed cancels): falling below
half the baseline ratio fails regardless of absolute throughput.  The
freshly measured JSON is uploaded as a CI artifact either way, so genuine
trends stay auditable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_simkernel.json"

#: Default gated metrics: both kernels of both recording formats
#: (``*_steps_per_second`` for the market benchmark,
#: ``*_ticks_per_second`` for the streaming one).  Metrics absent from the
#: recordings being compared are skipped, so the shared default covers
#: either format.
GATED_METRICS = (
    "vectorized_steps_per_second",
    "loop_steps_per_second",
    "vectorized_ticks_per_second",
    "loop_ticks_per_second",
)

#: The speedup ratio may drop to this fraction of the baseline before the
#: backstop fires.  Deliberately coarse: load skews the loop and vectorized
#: timings differently (±35% ratio swings observed on a busy single core),
#: while a de-vectorization regression collapses the ratio toward 1x.
SPEEDUP_FLOOR_FRACTION = 0.5


def _load(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot read benchmark recording {path}: {error}")


def _by_population(record: dict) -> dict:
    populations = record.get("populations") or []
    return {int(entry["num_peers"]): entry for entry in populations}


def compare(
    current: dict,
    baseline: dict,
    tolerance: float,
    metrics: tuple = GATED_METRICS,
) -> int:
    """Print the comparison table; return the number of regressions."""
    current_by_pop = _by_population(current)
    baseline_by_pop = _by_population(baseline)
    shared = sorted(set(current_by_pop) & set(baseline_by_pop))
    if not shared:
        raise SystemExit(
            "the two recordings share no populations — nothing to compare "
            f"(current: {sorted(current_by_pop)}, baseline: {sorted(baseline_by_pop)})"
        )
    gated = [
        metric
        for metric in metrics
        if any(metric in current_by_pop[pop] and metric in baseline_by_pop[pop] for pop in shared)
    ]
    if not gated:
        raise SystemExit(
            f"none of the gated metrics {list(metrics)} appear in both recordings"
        )
    regressions = 0
    print(
        f"benchmark-regression gate (tolerance {tolerance:.0%}, "
        f"metrics {', '.join(gated)})"
    )
    for num_peers in shared:
        for metric in gated:
            if metric not in current_by_pop[num_peers] or metric not in baseline_by_pop[num_peers]:
                continue
            measured = float(current_by_pop[num_peers][metric])
            reference = float(baseline_by_pop[num_peers][metric])
            floor = (1.0 - tolerance) * reference
            verdict = "ok" if measured >= floor else "REGRESSION"
            if measured < floor:
                regressions += 1
            unit = metric.rsplit("_per_second", 1)[0].split("_")[-1] + "/s"
            print(
                f"  {num_peers:>5} peers {metric.split('_')[0]:>10}: "
                f"{measured:>10.1f} {unit} "
                f"(baseline {reference:.1f}, floor {floor:.1f}) {verdict}"
            )
        speedup = float(current_by_pop[num_peers].get("speedup", 0.0))
        speedup_ref = float(baseline_by_pop[num_peers].get("speedup", 0.0))
        speedup_floor = SPEEDUP_FLOOR_FRACTION * speedup_ref
        if speedup_ref and speedup < speedup_floor:
            regressions += 1
            print(
                f"  {num_peers:>5} peers: speedup {speedup:.2f}x fell below "
                f"{speedup_floor:.2f}x (half of baseline {speedup_ref:.2f}x) REGRESSION"
            )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly measured recording")
    parser.add_argument(
        "baseline",
        type=Path,
        nargs="?",
        default=DEFAULT_BASELINE,
        help="committed baseline recording (default: %(default)s)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.30")),
        help="allowed fractional throughput drop (default: %(default)s)",
    )
    parser.add_argument(
        "--metrics",
        default=",".join(GATED_METRICS),
        help=(
            "comma-separated per-population metrics to gate; metrics absent "
            "from the recordings are skipped (default: %(default)s)"
        ),
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("tolerance must be in [0, 1)")
    metrics = tuple(name.strip() for name in args.metrics.split(",") if name.strip())
    if not metrics:
        parser.error("--metrics must name at least one metric")
    regressions = compare(
        _load(args.current), _load(args.baseline), args.tolerance, metrics
    )
    if regressions:
        print(f"{regressions} population(s) regressed beyond tolerance", file=sys.stderr)
        return 1
    print("throughput within tolerance of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
