"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload market-static --seed 1 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs the same workload untraced in a child process,
then again with every layer's public functions wrapped in spans, checks
that both passes produced the same counts, and reports the per-layer
metrics.  Every metric is printed by name with its unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (seed, versions, counts,
checks) is written under ``.perfbench/`` in the checkout, and the traced
run writes its spans there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
#: Seconds the untraced child of a traced run may take.
CHILD_RUN_TIMEOUT_S = 150


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True, help="workload input seed")
    parser.add_argument(
        "--seconds", type=int, required=True, help="length of the timed round phase"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def record_path(workload: str, seed: int, trace: int) -> Path:
    """Where a run of ``workload`` with ``seed`` writes its record."""
    return OUTPUT / f"{workload}-seed{seed}-trace{trace}.json"


def environment(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def untraced(pw, workload, args, workdir: Path):
    if isinstance(workload, pw.CliWorkload):
        return workload.run(args.seed, args.seconds, workdir)
    return workload.run(args.seed, args.seconds)


def traced(pw, workload, args, workdir: Path, record: Dict[str, object]):
    """Untraced child run, then the traced pass; returns the traced outcome."""
    from perf_trace import Tracer

    child_record = record_path(args.workload, args.seed, trace=0)
    child_record.unlink(missing_ok=True)
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        timeout=CHILD_RUN_TIMEOUT_S,
    )
    if proc.returncode != 0 or not child_record.is_file():
        raise RuntimeError(f"untraced run exited {proc.returncode}: {proc.stderr.strip()}")
    reference = json.loads(child_record.read_text())
    untraced_outcome = pw.Outcome(
        layers=reference["layers"], counts=reference["counts"]
    )
    tracer = Tracer(args.workload)
    if isinstance(workload, pw.CliWorkload):
        # The CLI's untraced reference for overhead is the same in-process
        # pass without wrappers: the child's figures include interpreter
        # start-up, which the in-process pass does not pay.
        baseline = workload.run_in_process(args.seed, workdir)
        with pw.wrappers_installed(tracer):
            outcome = workload.run_in_process(args.seed, workdir, tracer)
        overhead_s = outcome.metrics["wall_s"] - baseline.metrics["wall_s"]
        outcome.operation(baseline.problems)
    else:
        with pw.wrappers_installed(tracer):
            outcome = workload.run(args.seed, args.seconds, tracer)
        overhead_s = outcome.metrics["wall_s"] - reference["metrics"]["wall_s"]["value"]
    spans_path = OUTPUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
    tracer.write(spans_path, seed=args.seed, seconds=args.seconds)
    mismatched = sorted(
        name
        for name in set(outcome.counts) | set(reference["counts"])
        if outcome.counts.get(name) != reference["counts"].get(name)
    )
    outcome.operation([f"traced count {name} differs from untraced" for name in mismatched])
    outcome.attempted += reference["attempted"]
    outcome.failed += reference["failed"]
    outcome.problems.extend(reference["problems"])
    record["untraced"] = reference
    record["spans"] = str(spans_path.relative_to(ROOT))
    metrics = pw.per_layer_metrics(tracer.spans, outcome, untraced_outcome, overhead_s)
    return outcome, metrics


def main(argv: Optional[List[str]] = None) -> int:
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCES), os.environ.get("PYTHONPATH")])
    )
    import perf_workloads as pw

    args = parse_args(argv, list(pw.WORKLOADS))
    workload = pw.WORKLOADS[args.workload]
    workdir = OUTPUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = str(workdir)
    record: Dict[str, object] = {"workload": args.workload, "seconds": args.seconds}
    record.update(environment(args.seed))
    record["trace"] = args.trace
    started = time.perf_counter()
    try:
        if args.trace:
            outcome, values = traced(pw, workload, args, workdir, record)
            units = pw.PER_LAYER
        else:
            outcome = untraced(pw, workload, args, workdir)
            values, units = outcome.metrics, pw.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = outcome.failed == 0 and not outcome.problems
    record.update(
        correct=correct,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        counts=outcome.counts,
        layers=outcome.layers,
        samples=outcome.samples,
        metrics=metrics,
        run_s=time.perf_counter() - started,
    )
    path = record_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str))

    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload:<14} {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
