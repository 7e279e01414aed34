"""Command-line interface for running the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig3 --scale default --seed 7
    python -m repro.cli run fig9 --scale smoke --csv /tmp/fig9.csv
    python -m repro.cli run fig11 --reps 8 --jobs 4
    python -m repro.cli sweep fig9-taxation-grid --reps 4 --jobs 4
    python -m repro.cli sweep fig11 --param mean_lifespan=500,1000 \
        --param rate_factor=1,2 --reps 4 --jobs 4 --cache-dir .repro-cache
    python -m repro.cli sweep fig1 --param initial_credits=12,200 \
        --param pricing_model=uniform,poisson-seller --scale smoke
    python -m repro.cli sweep fig7-paper --reps 4 --jobs 0 --cache-dir .repro-cache

``list`` prints every registered experiment with its paper section, the
sweep axes each experiment's point runner accepts, and the named scenario
bundles (including one ``figN-paper`` bundle per figure at the paper's
populations and horizons); ``run`` executes one experiment — with
``--reps > 1`` it replicates the whole experiment over independent seeds
through the ``repro.runner`` orchestrator and prints the
cross-replication aggregate (``--jobs``/``--cache-dir`` route a single
run through the orchestrator too, printing the experiment's own tables);
``sweep`` runs a parameter grid (a named scenario bundle or ad-hoc
``--param`` axes, validated against the experiment's declared axes before
anything executes) sharded over worker processes, with optional artifact
caching so interrupted or repeated sweeps skip completed shards.  One
shard is one ``(config × replication)``; each runs its simulations to
completion in one worker.  Every run uses the simulators' default
(vectorized) kernel and their one numeric representation (float64 state,
int64 peer ids)::

    python -m repro.cli sweep fig5_6 --param simulator=market,streaming --scale smoke

``serve`` starts a resident sweep daemon (stdlib HTTP, JSON API): POST a
sweep job to ``/runs``, poll its status at ``/runs/<id>``, stream its live
per-round telemetry (Gini/bankruptcy series, kernel span timings, cache
counters) from ``/runs/<id>/metrics``, fetch the finished shard payloads
from ``/runs/<id>/result``, and read the committed benchmark history from
``/bench``.  Jobs run through the same orchestrator and artifact cache as
``sweep``, so daemon-run sweeps are byte-identical to CLI-run ones::

    python -m repro.cli serve --port 8765 --cache-dir .repro-cache

``analyze`` runs the determinism static analyzer
(:mod:`repro.analysis`) over the given paths and exits non-zero on any
finding that no allowed context in :mod:`repro.analysis.config` covers —
the blocking CI gate::

    python -m repro.cli analyze src tests benchmarks --json report.json
    python -m repro.cli analyze --list-rules
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import describe_experiments, run_experiment
from repro.experiments.common import Scale

__all__ = ["build_parser", "main"]


def _print_error(error: Exception) -> int:
    # KeyError stringifies to its repr ("'message'"); unwrap for clean stderr.
    message = error.args[0] if error.args else str(error)
    print(message, file=sys.stderr)
    return 2


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--reps", type=int, default=1, help="independent replications per configuration"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU; default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory; completed shards are reused across runs",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Exploring the Sustainability of Credit-incentivized "
            "Peer-to-Peer Content Distribution' (ICDCSW 2012): run the paper's "
            "figure experiments."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments and sweep scenarios")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its tables")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig3 (see `list`)")
    run_parser.add_argument(
        "--scale",
        choices=[scale.value for scale in Scale],
        default=Scale.DEFAULT.value,
        help="reproduction scale (default: %(default)s)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    run_parser.add_argument(
        "--csv",
        default=None,
        help="optional path to write the first result table as CSV",
    )
    _add_sweep_options(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a parameter sweep (named scenario or experiment id with --param axes)",
    )
    sweep_parser.add_argument(
        "target",
        help="scenario name (e.g. fig9-taxation-grid) or sweepable experiment id",
    )
    sweep_parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=V1,V2",
        help="grid axis, repeatable; e.g. --param tax_rate=0.1,0.2",
    )
    sweep_parser.add_argument(
        "--scale",
        choices=[scale.value for scale in Scale],
        default=None,
        help=(
            "reproduction scale; a named scenario keeps its pinned scale "
            "(e.g. figN-paper bundles run at paper scale) unless this is "
            "given, ad-hoc sweeps default to 'default'"
        ),
    )
    sweep_parser.add_argument("--seed", type=int, default=0, help="sweep base seed")
    sweep_parser.add_argument(
        "--csv", default=None, help="optional path to write the aggregate table as CSV"
    )
    _add_sweep_options(sweep_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the resident sweep daemon (JSON API with live per-round metrics)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="bind port, 0 = ephemeral (default: %(default)s)"
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory shared by all submitted sweeps",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes per sweep job; 1 (the default) runs shards "
            "in-process so simulator metrics stream live"
        ),
    )
    serve_parser.add_argument(
        "--bench-root",
        default=None,
        help="directory scanned for BENCH_*.json by /bench (default: repo root)",
    )

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="run the determinism static analyzer",
    )
    analyze_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze_parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the machine-readable report (CI uploads this as an artifact)",
    )
    analyze_parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="run only the named rules (default: all registered rules)",
    )
    analyze_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its contract and exit",
    )
    return parser


def _command_list() -> int:
    from repro.experiments import SWEEPS, sweep_params
    from repro.runner import SCENARIOS

    rows = describe_experiments()
    width = max(len(row["id"]) for row in rows)
    for row in rows:
        print(f"{row['id']:<{width}}  [Sec. {row['section']}]  {row['title']}")
    print("\nsweep axes (use with `sweep <id> --param NAME=V1,V2`):")
    for experiment_id in sorted(SWEEPS):
        axes = ", ".join(sweep_params(experiment_id))
        print(f"  {experiment_id:<{width}}  {axes}")
    print("\nsweep scenarios:")
    for name in sorted(SCENARIOS):
        print(f"  {name}  ({SCENARIOS[name]().describe()})")
    return 0


def _emit_result(result, csv_path: Optional[str]) -> int:
    """Print an experiment/aggregate result and optionally write its CSV."""
    print(result.format())
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(result.table().to_csv())
        print(f"\nwrote {csv_path}")
    return 0


def _run_orchestrated(
    experiment: str,
    scale: str,
    seed: int,
    reps: int,
    jobs: int,
    cache_dir: Optional[str],
    csv_path: Optional[str],
) -> int:
    from repro.runner import ArtifactCache, SweepSpec, aggregate_report, run_sweep

    cache = ArtifactCache(cache_dir) if cache_dir else None
    try:
        spec = SweepSpec(experiment, replications=reps, base_seed=seed, scale=scale)
        report = run_sweep(spec, jobs=jobs, cache=cache, progress=print)
        print(report.describe())
        print(report.summary_line())
        print()
        if reps == 1:
            # A single replication is a plain run (with caching/workers);
            # print the experiment's own tables rather than a degenerate
            # aggregate.
            return _emit_result(report.shards[0].result(), csv_path)
        # Aggregation can reject a sweep too (ragged replications), so it
        # stays inside the try: clean stderr + exit 2, not a traceback.
        return _emit_result(aggregate_report(report), csv_path)
    except (KeyError, ValueError) as error:
        return _print_error(error)


def _command_run(args: argparse.Namespace) -> int:
    # Any --reps other than 1 goes through the orchestrator, whose
    # SweepSpec rejects a non-positive count with exit 2.
    if args.reps != 1 or args.jobs != 1 or args.cache_dir:
        return _run_orchestrated(
            args.experiment, args.scale, args.seed, args.reps, args.jobs,
            args.cache_dir, args.csv,
        )
    try:
        result = run_experiment(args.experiment, scale=args.scale, seed=args.seed)
    except KeyError as error:
        return _print_error(error)
    return _emit_result(result, args.csv)


def _build_sweep_spec(args: argparse.Namespace):
    """Build (and validate) the SweepSpec for a parsed ``sweep`` invocation.

    Raises ``KeyError``/``ValueError`` for unknown targets, malformed or
    unknown ``--param`` axes.  ``--scale`` is tri-state: ``None`` keeps a
    named scenario's pinned scale (the figN-paper bundles pin ``paper``)
    and means ``default`` for ad-hoc experiment-id sweeps.
    """
    from repro.runner import ParamGrid, build_spec

    return build_spec(
        args.target,
        grid=ParamGrid.parse(args.param) if args.param else None,
        replications=args.reps,
        base_seed=args.seed,
        scale=args.scale,
    )


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.runner import ArtifactCache, aggregate_report, run_sweep

    try:
        spec = _build_sweep_spec(args)
    except (KeyError, ValueError) as error:
        return _print_error(error)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    try:
        report = run_sweep(spec, jobs=args.jobs, cache=cache, progress=print)
        print(report.describe())
        print(report.summary_line())
        print()
        # Aggregation can reject a sweep too (ragged replications), so it
        # stays inside the try: clean stderr + exit 2, not a traceback.
        return _emit_result(aggregate_report(report), args.csv)
    except (KeyError, ValueError) as error:
        return _print_error(error)


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        analyze_paths,
        all_rules,
        render_human,
        select_rules,
        write_json,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<10} {rule.severity.value:<8} {rule.summary}")
        return 0
    try:
        rules = select_rules(args.rules.split(",")) if args.rules else None
    except KeyError as error:
        return _print_error(error)
    try:
        report = analyze_paths(args.paths, rules=rules)
    except (FileNotFoundError, ValueError) as error:
        return _print_error(error)
    print(render_human(report))
    if args.json_path:
        write_json(report, args.json_path)
        print(f"wrote {args.json_path}")
    return 1 if report.findings else 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.obs.server import serve

    serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        bench_root=args.bench_root,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "analyze":
        return _command_analyze(args)
    return _command_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via `python -m repro.cli`
    sys.exit(main())
