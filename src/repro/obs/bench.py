"""Aggregate the committed ``BENCH_*.json`` recordings into one view.

The repo commits one benchmark recording per simulation kernel
(`BENCH_simkernel`, `BENCH_streamkernel`) as the CI regression baselines; this
module is their first *consumer*: :func:`load_bench_history` reads every
``BENCH_*.json`` under a root directory and condenses the kernel-format
recordings (the ones with a ``populations`` table) into per-population
throughput rows, which the ``repro serve`` daemon exposes at ``/bench`` as
a dashboard-ready perf-trajectory view.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["default_bench_root", "load_bench_history"]


def default_bench_root() -> Path:
    """The repo root for a source checkout (``BENCH_*.json`` live there).

    Resolves relative to the installed ``repro`` package
    (``<root>/src/repro`` in the source layout); callers running against
    an installed wheel should pass an explicit root instead.
    """
    import repro

    return Path(repro.__file__).resolve().parents[2]


def _throughput_rows(record: Dict[str, object]) -> List[Dict[str, object]]:
    """Per-population throughput/speedup rows of one kernel-format recording."""
    rows: List[Dict[str, object]] = []
    for population in record.get("populations", []):  # type: ignore[union-attr]
        if not isinstance(population, dict):
            continue
        row: Dict[str, object] = {}
        if "num_peers" in population:
            row["num_peers"] = population["num_peers"]
        for key, value in population.items():
            if key.endswith("_per_second") or key == "speedup":
                row[key] = value
        if row:
            rows.append(row)
    return rows


def load_bench_history(root: Optional[Path] = None) -> Dict[str, object]:
    """Read every ``BENCH_*.json`` under ``root`` into one aggregate dict.

    Returns ``{"root", "files", "benchmarks", "kernels"}``: ``benchmarks``
    holds every raw recording keyed by file name (unparseable files get an
    ``{"error": ...}`` placeholder instead of failing the whole view), and
    ``kernels`` the condensed throughput rows of the kernel-format
    recordings — the numbers the CI bench gate also regresses against.
    """
    root = Path(root) if root is not None else default_bench_root()
    files = sorted(root.glob("BENCH_*.json"))
    benchmarks: Dict[str, object] = {}
    kernels: Dict[str, object] = {}
    for path in files:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            benchmarks[path.name] = {"error": f"{type(error).__name__}: {error}"}
            continue
        benchmarks[path.name] = record
        if isinstance(record, dict) and record.get("populations"):
            rows = _throughput_rows(record)
            if rows:
                kernels[path.name] = {
                    "profile": record.get("profile"),
                    "rows": rows,
                }
    return {
        "root": str(root),
        "files": [path.name for path in files],
        "benchmarks": benchmarks,
        "kernels": kernels,
    }
