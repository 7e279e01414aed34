"""The benchmark's workloads, their output checks and their metrics.

Each workload builds its inputs from a seed, drives the program through
its public API (or its CLI) and returns an :class:`Outcome`: end-to-end
metrics, per-layer values measured without tracing, the counts a traced
pass must reproduce exactly, and how many operations were attempted and
failed.  An operation is one timed block of rounds plus its check, or one
CLI command plus its check.

Sizes are fixed per workload; ``seconds`` scales the number of timed
rounds so that the round phase lasts about that long on a 2-core x86-64
box.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from perf_trace import Tracer, span_totals

#: End-to-end metrics (measured with tracing off) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (reported by the traced run) and their units.
PER_LAYER: Dict[str, str] = {
    "overlay.topology_s": "s",
    "overlay.topology_rss_mb": "MB",
    "overlay.edges": "count",
    "overlay.join_calls": "count",
    "overlay.join_s": "s",
    "overlay.leave_calls": "count",
    "overlay.leave_s": "s",
    "overlay.select_neighbors_calls": "count",
    "overlay.select_neighbors_s": "s",
    "p2psim.state_s": "s",
    "p2psim.state_rss_mb": "MB",
    "p2psim.advance_self_s": "s",
    "p2psim.churn_s": "s",
    "p2psim.churn_self_s": "s",
    "p2psim.tax_s": "s",
    "p2psim.record_s": "s",
    "p2psim.finalize_s": "s",
    "p2psim.transfers_per_round": "count/round",
    "p2psim.joins": "count",
    "p2psim.leaves": "count",
    "p2psim.startup_ticks_per_s": "ticks/s",
    "p2psim.steady_ticks_per_s": "ticks/s",
    "p2psim.startup_chunks_per_tick": "count/tick",
    "p2psim.steady_chunks_per_tick": "count/tick",
    "core.price_array_calls": "count",
    "core.price_array_s": "s",
    "core.rate_vector_s": "s",
    "queueing.traffic_s": "s",
    "experiments.run_s": "s",
    "runner.sweep_s": "s",
    "runner.cache_store_calls": "count",
    "runner.cache_store_s": "s",
    "runner.cache_load_calls": "count",
    "runner.cache_load_s": "s",
    "runner.fingerprint_s": "s",
    "runner.cache_hits": "count",
    "runner.shards_executed": "count",
    "cli.modules_loaded": "count",
    "cli.main_self_s": "s",
    "cli.fig_run_s": "s",
    "cli.sweep_cold_s": "s",
    "cli.sweep_warm_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Per-layer values taken from the untraced run.  Set-up times are its
#: medians over several set-ups, free of wrapper overhead; the traced
#: pass's single set-up stays in its spans.
UNTRACED_LAYERS = (
    "overlay.topology_s",
    "p2psim.state_s",
    "overlay.topology_rss_mb",
    "p2psim.state_rss_mb",
    "p2psim.startup_ticks_per_s",
    "p2psim.steady_ticks_per_s",
    "runner.cache_hits",
    "runner.shards_executed",
    "cli.modules_loaded",
    "cli.fig_run_s",
    "cli.sweep_cold_s",
    "cli.sweep_warm_s",
)

#: Per-layer values of the traced pass that do not come from spans.
TRACED_LAYERS = ("p2psim.startup_chunks_per_tick", "p2psim.steady_chunks_per_tick")

#: Seconds any one child process may take before it is killed.
CHILD_TIMEOUT_S = 120


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident set size in MB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, object] = field(default_factory=dict)
    #: Raw timings behind the metrics, for the run record.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def operation(self, problems: List[str]) -> None:
        """Account one operation whose check reported ``problems``."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------- checks


def check_market_static(result, num_peers: int, initial_credits: float) -> List[str]:
    """Credits are conserved: balances plus the tax pool equal N × c."""
    issued = num_peers * initial_credits
    held = float(np.sum(result.final_wealths)) + float(result.extras["tax_pool"])
    problems = []
    if abs(held - issued) > 1e-9 * issued:
        problems.append(f"credits not conserved: {held!r} held, {issued!r} issued")
    if result.total_transfers <= 0:
        problems.append("no credit was transferred")
    return problems


def check_market_churn(result, num_peers: int) -> List[str]:
    """Balances stay non-negative, peers both join and leave, and the
    population stays within 5% of its Little's-law mean (arrival rate ×
    lifespan, which the churn config sets to ``num_peers``)."""
    problems = []
    lowest = float(np.min(result.final_wealths)) if result.final_wealths.size else 0.0
    if lowest < 0:
        problems.append(f"negative balance {lowest!r}")
    if result.joins <= 0 or result.leaves <= 0:
        problems.append(f"churn did not happen: {result.joins} joins, {result.leaves} leaves")
    population = int(result.extras["final_population"])
    if abs(population - num_peers) > 0.05 * num_peers:
        problems.append(f"population {population} left the band around {num_peers}")
    return problems


def check_stream(sim, chunks_before: int) -> List[str]:
    """The swarm conserves credits and never loses delivered chunks."""
    problems = []
    try:
        sim.verify_conservation()
    except AssertionError as error:
        problems.append(str(error))
    if sim.chunks_delivered < chunks_before:
        problems.append(f"chunk count fell from {chunks_before} to {sim.chunks_delivered}")
    return problems


_SUMMARY = re.compile(r"summary: .*?(\d+) cache hits? \| (\d+) shards? executed")


def parse_summary(stdout: str) -> Optional[Tuple[int, int]]:
    """``(cache hits, shards executed)`` from a sweep's ``summary:`` line."""
    match = _SUMMARY.search(stdout)
    return (int(match.group(1)), int(match.group(2))) if match else None


def check_cli(runs: Dict[str, Dict[str, object]], shards: int) -> Dict[str, List[str]]:
    """Problems per command of the CLI workload.

    ``runs`` maps ``fig``, ``cold`` and ``warm`` to their ``returncode``,
    ``stdout`` and, for the sweeps, the ``csv`` bytes of the aggregate
    table.  Every command must exit 0, the cold sweep must execute every
    shard, and the warm sweep must restore every shard from the cache and
    write a byte-identical aggregate table.
    """
    problems: Dict[str, List[str]] = {label: [] for label in runs}
    for label, run in runs.items():
        if run["returncode"] != 0:
            problems[label].append(f"{label}: exit code {run['returncode']}")
    if not str(runs["fig"]["stdout"]).strip():
        problems["fig"].append("fig: printed no table")
    for label, expected in (("cold", (0, shards)), ("warm", (shards, 0))):
        summary = parse_summary(str(runs[label]["stdout"]))
        if summary != expected:
            problems[label].append(
                f"{label}: (cache hits, shards executed) = {summary}, expected {expected}"
            )
    if not runs["cold"]["csv"]:
        problems["cold"].append("cold: wrote no aggregate table")
    if runs["warm"]["csv"] != runs["cold"]["csv"]:
        problems["warm"].append("warm: aggregate table differs from the cold sweep's")
    return problems


# ---------------------------------------------------------------------- simulators


@dataclass
class _Setup:
    topology: object
    sim: object
    topology_s: float
    state_s: float
    topology_rss_mb: float
    state_rss_mb: float


class _SimulatorWorkload:
    """Run loop shared by the market and streaming workloads.

    A run builds the overlay with ``scale_free_topology`` and hands it to
    the simulator as ``topology=``, so set-up splits into topology and
    state.  It then advances the simulator in timed blocks, checking after
    each, finalizes and checks the result.  Untraced runs then set up
    ``setups - 1`` more times from the same seed and report the median
    set-up time.
    """

    name: str
    num_peers: int
    setups: int
    #: Name of the count :meth:`progress` reads (credit transfers, chunks).
    progress_name: str

    # Subclass hooks.
    def blocks(self, seconds: float) -> List[Tuple[str, int]]:
        raise NotImplementedError

    def make_simulator(self, topology, seed: int, rounds: int):
        raise NotImplementedError

    def progress(self, sim) -> int:
        raise NotImplementedError

    def block_problems(self, sim, progress_before: int) -> List[str]:
        raise NotImplementedError

    def result_problems(self, result) -> List[str]:
        raise NotImplementedError

    def phase_layers(
        self, seconds: Dict[str, float], work: Dict[str, int], blocks
    ) -> Dict[str, float]:
        return {}

    def setup(self, seed: int, rounds: int, tracer: Optional[Tracer] = None) -> _Setup:
        from repro.overlay.generators import scale_free_topology

        rss_start = peak_rss_mb()
        started = time.perf_counter()
        with _span(tracer, "overlay.topology"):
            topology = scale_free_topology(self.num_peers, seed=seed)
        built = time.perf_counter()
        rss_topology = peak_rss_mb()
        with _span(tracer, "p2psim.state"):
            sim = self.make_simulator(topology, seed, rounds)
        return _Setup(
            topology,
            sim,
            built - started,
            time.perf_counter() - built,
            rss_topology - rss_start,
            peak_rss_mb() - rss_topology,
        )

    def run(self, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
        # Load the whole program first, so that no timed section pays for a
        # first import, traced or not.
        import repro.cli  # noqa: F401

        out = Outcome()
        blocks = self.blocks(seconds)
        rounds = sum(count for _, count in blocks)
        started = time.perf_counter()
        first = self.setup(seed, rounds, tracer)
        sim = first.sim
        edges = first.topology.num_edges
        phase_s: Dict[str, float] = {}
        phase_work: Dict[str, int] = {}
        block_s = []
        for phase, count in blocks:
            before = self.progress(sim)
            tick = time.perf_counter()
            with _span(tracer, "p2psim.advance"):
                sim.advance_rounds(count)
            block_s.append(time.perf_counter() - tick)
            phase_s[phase] = phase_s.get(phase, 0.0) + block_s[-1]
            phase_work[phase] = phase_work.get(phase, 0) + self.progress(sim) - before
            out.operation(self.block_problems(sim, before))
        with _span(tracer, "p2psim.finalize"):
            result = sim.finalize()
        out.operation(self.result_problems(result))
        wall_s = time.perf_counter() - started
        out.counts = {
            "edges": edges,
            "rounds": rounds,
            self.progress_name: self.progress(sim),
            "phase_progress": phase_work,
            "joins": int(result.joins),
            "leaves": int(result.leaves),
            "final_population": int(result.extras["final_population"]),
        }
        out.layers = {
            "overlay.topology_rss_mb": first.topology_rss_mb,
            "p2psim.state_rss_mb": first.state_rss_mb,
            **self.phase_layers(phase_s, phase_work, blocks),
        }
        times = [(first.topology_s, first.state_s)]
        del first, sim, result
        if tracer is None:
            for _ in range(self.setups - 1):
                gc.collect()
                again = self.setup(seed, rounds)
                times.append((again.topology_s, again.state_s))
                del again
        out.samples = {"block_s": block_s, "setup_s": [t + s for t, s in times]}
        out.layers["overlay.topology_s"] = statistics.median(t for t, _ in times)
        out.layers["p2psim.state_s"] = statistics.median(s for _, s in times)
        out.metrics = {
            "setup_s": statistics.median(out.samples["setup_s"]),
            "steps_per_s": rounds / sum(phase_s.values()),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        return out


@dataclass(frozen=True)
class MarketWorkload(_SimulatorWorkload):
    """A credit market on a scale-free overlay with asymmetric utilization."""

    name: str
    num_peers: int
    #: Timed rounds per ``--seconds``.
    rounds_per_second: float
    block_rounds: int
    churn_lifespan: Optional[float] = None
    tax: bool = False
    setups: int = 3
    initial_credits: float = 100.0
    progress_name = "transfers"

    def blocks(self, seconds: float) -> List[Tuple[str, int]]:
        rounds = max(self.block_rounds, int(round(seconds * self.rounds_per_second)))
        return _split("rounds", rounds, self.block_rounds)

    def make_simulator(self, topology, seed: int, rounds: int):
        from repro.core.taxation import NoTax, ThresholdIncomeTax
        from repro.overlay.churn import ChurnConfig
        from repro.p2psim.config import MarketSimConfig, UtilizationMode
        from repro.p2psim.market_sim import CreditMarketSimulator

        churn = None
        if self.churn_lifespan is not None:
            churn = ChurnConfig.for_population(self.num_peers, self.churn_lifespan)
        config = MarketSimConfig(
            num_peers=self.num_peers,
            initial_credits=self.initial_credits,
            horizon=float(rounds),
            utilization=UtilizationMode.ASYMMETRIC,
            tax_policy=ThresholdIncomeTax(rate=0.1, threshold=120) if self.tax else NoTax(),
            churn=churn,
            seed=seed,
        )
        return CreditMarketSimulator(config, topology=topology)

    def progress(self, sim) -> int:
        return int(sim.total_transfers)

    def block_problems(self, sim, progress_before: int) -> List[str]:
        if sim.total_transfers <= progress_before:
            return [f"a block of rounds moved no credit (total {sim.total_transfers})"]
        return []

    def result_problems(self, result) -> List[str]:
        if self.churn_lifespan is None:
            return check_market_static(result, self.num_peers, self.initial_credits)
        return check_market_churn(result, self.num_peers)


@dataclass(frozen=True)
class StreamWorkload(_SimulatorWorkload):
    """A streaming swarm run through start-up, ramp and steady state.

    With the default ``StreamingSimConfig`` the swarm delivers a few
    hundred to a few thousand chunks per tick in ticks 0–3, ramps over
    ticks 4–7 and holds its plateau from tick 8 on, so the phases split
    there; the ramp is timed but belongs to neither phase metric.
    """

    name: str
    num_peers: int
    startup_ticks: int = 4
    ramp_ticks: int = 4
    #: Steady ticks per ``--seconds``.
    steady_ticks_per_second: float = 1.0
    block_ticks: int = 2
    setups: int = 3
    progress_name = "chunks"

    def blocks(self, seconds: float) -> List[Tuple[str, int]]:
        steady = max(self.block_ticks, int(round(seconds * self.steady_ticks_per_second)))
        return [("startup", self.startup_ticks), ("ramp", self.ramp_ticks)] + _split(
            "steady", steady, self.block_ticks
        )

    def make_simulator(self, topology, seed: int, rounds: int):
        from repro.p2psim.config import StreamingSimConfig
        from repro.p2psim.streaming_sim import StreamingMarketSimulator

        config = StreamingSimConfig(num_peers=self.num_peers, horizon=float(rounds), seed=seed)
        return StreamingMarketSimulator(config, topology=topology)

    def progress(self, sim) -> int:
        return int(sim.chunks_delivered)

    def block_problems(self, sim, progress_before: int) -> List[str]:
        return check_stream(sim, progress_before)

    def result_problems(self, result) -> List[str]:
        return [] if result.chunks_delivered > 0 else ["the swarm delivered no chunks"]

    def phase_layers(self, seconds, work, blocks) -> Dict[str, float]:
        ticks = {phase: 0 for phase in seconds}
        for phase, count in blocks:
            ticks[phase] += count
        return {
            "p2psim.startup_ticks_per_s": ticks["startup"] / seconds["startup"],
            "p2psim.steady_ticks_per_s": ticks["steady"] / seconds["steady"],
            "p2psim.startup_chunks_per_tick": work["startup"] / ticks["startup"],
            "p2psim.steady_chunks_per_tick": work["steady"] / ticks["steady"],
        }


def _split(phase: str, total: int, block: int) -> List[Tuple[str, int]]:
    blocks = [(phase, block)] * (total // block)
    if total % block:
        blocks.append((phase, total % block))
    return blocks


# ---------------------------------------------------------------------- CLI


@dataclass(frozen=True)
class CliWorkload:
    """``repro run`` of one figure, then a sweep into an empty cache and
    the same sweep against the filled cache, each in a fresh interpreter.

    One sequence of the three commands takes about 6 s; an untraced run
    repeats it ``seconds`` × ``sequences_per_second`` times, each sweep
    pair with its own empty cache, and reports medians.
    """

    name: str
    fig: Tuple[str, ...] = ("run", "fig7")
    sweep: Tuple[str, ...] = ("sweep", "fig9-taxation-grid", "--jobs", "1")
    #: Shards the sweep consists of.
    shards: int = 5
    sequences_per_second: float = 0.4
    setups: int = 3

    def commands(self, seed: int, workdir: Path, tag: str) -> Dict[str, List[str]]:
        seeded = ["--seed", str(seed)]
        cache = ["--cache-dir", str(workdir / f"{tag}-cache")]
        return {
            "fig": [*self.fig, *seeded],
            "cold": [*self.sweep, *seeded, *cache, "--csv", str(workdir / f"{tag}-cold.csv")],
            "warm": [*self.sweep, *seeded, *cache, "--csv", str(workdir / f"{tag}-warm.csv")],
        }

    def _account(self, out: Outcome, runs: Dict[str, Dict[str, object]]) -> None:
        """Check one sequence; its counts must equal every earlier sequence's."""
        problems = check_cli(runs, self.shards)
        for label in runs:
            out.operation(problems[label])
        summaries = [
            parse_summary(str(runs[label]["stdout"])) or (0, 0) for label in ("cold", "warm")
        ]
        counts = {
            "cache_hits": sum(hits for hits, _ in summaries),
            "shards_executed": sum(executed for _, executed in summaries),
            "fig_sha256": hashlib.sha256(str(runs["fig"]["stdout"]).encode()).hexdigest(),
            "table_sha256": hashlib.sha256(bytes(runs["cold"]["csv"])).hexdigest(),
        }
        if out.counts and counts != out.counts:
            out.problems.append(f"a repeated sequence gave other results: {counts}")
        out.counts = out.counts or counts

    def run(self, seed: int, seconds: float, workdir: Path) -> Outcome:
        """Untraced: every command in its own interpreter."""
        out = Outcome()
        python = sys.executable
        _check_call([python, "-c", "import repro.cli"])  # byte-compiles on a fresh checkout
        setup_times, modules = [], set()
        for _ in range(self.setups):
            started = time.perf_counter()
            stdout = _check_call([python, "-c", "import sys, repro.cli; print(len(sys.modules))"])
            setup_times.append(time.perf_counter() - started)
            modules.add(int(stdout))
        if len(modules) != 1:
            out.problems.append(f"import loaded a varying number of modules: {sorted(modules)}")
        command_s: Dict[str, List[float]] = {"fig": [], "cold": [], "warm": []}
        sequence_s = []
        for sequence in range(max(1, round(seconds * self.sequences_per_second))):
            runs: Dict[str, Dict[str, object]] = {}
            started = time.perf_counter()
            for label, argv in self.commands(seed, workdir, f"subprocess{sequence}").items():
                tick = time.perf_counter()
                proc = subprocess.run(
                    [python, "-m", "repro.cli", *argv],
                    capture_output=True,
                    text=True,
                    timeout=CHILD_TIMEOUT_S,
                )
                command_s[label].append(time.perf_counter() - tick)
                runs[label] = {
                    "returncode": proc.returncode,
                    "stdout": proc.stdout,
                    "csv": _read_csv(argv),
                }
            self._account(out, runs)
            sequence_s.append(time.perf_counter() - started)
        out.samples = {"setup_s": setup_times, "sequence_s": sequence_s, **command_s}
        out.layers = {
            "runner.cache_hits": out.counts["cache_hits"],
            "runner.shards_executed": out.counts["shards_executed"],
            "cli.modules_loaded": max(modules),
            "cli.fig_run_s": statistics.median(command_s["fig"]),
            "cli.sweep_cold_s": statistics.median(command_s["cold"]),
            "cli.sweep_warm_s": statistics.median(command_s["warm"]),
        }
        out.metrics = {
            "setup_s": statistics.median(setup_times),
            "steps_per_s": sum(map(len, command_s.values())) / sum(map(sum, command_s.values())),
            "wall_s": statistics.median(sequence_s),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
        return out

    def run_in_process(self, seed: int, workdir: Path, tracer: Optional[Tracer] = None) -> Outcome:
        """One sequence through ``repro.cli.main`` in this process.

        The code fingerprint is memoised per process, so its cache is
        cleared before each command, as a fresh interpreter would have it.
        """
        import repro.cli
        import repro.runner.cache

        fingerprint = repro.runner.cache.code_fingerprint
        while not hasattr(fingerprint, "cache_clear"):
            fingerprint = fingerprint.__wrapped__
        main = repro.cli.main if tracer is None else tracer.wrap("cli.main", repro.cli.main)
        out = Outcome()
        runs: Dict[str, Dict[str, object]] = {}
        started = time.perf_counter()
        tag = "traced" if tracer is not None else "in-process"
        for label, argv in self.commands(seed, workdir, tag).items():
            fingerprint.cache_clear()
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            runs[label] = {"returncode": code, "stdout": buffer.getvalue(), "csv": _read_csv(argv)}
        self._account(out, runs)
        out.metrics = {"wall_s": time.perf_counter() - started}
        return out


def _check_call(argv: List[str]) -> str:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _read_csv(argv: List[str]) -> bytes:
    if "--csv" not in argv:
        return b""
    path = Path(argv[argv.index("--csv") + 1])
    return path.read_bytes() if path.is_file() else b""


# ---------------------------------------------------------------------- tracing


@contextlib.contextmanager
def wrappers_installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the public functions of every layer for the ``with`` body."""
    import repro.cli  # noqa: F401 - binds run_experiment by name; patched below
    from repro.core.pricing import PricingScheme
    from repro.core.spending import SpendingPolicy
    from repro.experiments.registry import run_experiment, run_sweep_point
    from repro.overlay.membership import MembershipTracker
    from repro.p2psim.recorder import WealthRecorder
    from repro.p2psim.slots import apply_income_taxation, apply_round_churn
    from repro.queueing.traffic import solve_traffic_equations
    from repro.runner.cache import ArtifactCache, code_fingerprint
    from repro.runner.executor import run_sweep

    try:
        tracer.patch_method("overlay.join", MembershipTracker, "join")
        tracer.patch_method("overlay.leave", MembershipTracker, "leave")
        tracer.patch_method("overlay.select_neighbors", MembershipTracker, "select_neighbors")
        tracer.patch_function("p2psim.churn", apply_round_churn)
        tracer.patch_function("p2psim.tax", apply_income_taxation)
        tracer.patch_method("p2psim.record", WealthRecorder, "record")
        tracer.patch_method("core.price_array", PricingScheme, "price_array")
        tracer.patch_method("core.rate_vector", SpendingPolicy, "effective_rate_vector")
        tracer.patch_function("queueing.traffic", solve_traffic_equations)
        tracer.patch_function("experiments.run", run_experiment)
        tracer.patch_function("experiments.run", run_sweep_point)
        tracer.patch_function("runner.sweep", run_sweep)
        tracer.patch_method("runner.cache_store", ArtifactCache, "store")
        tracer.patch_method("runner.cache_load", ArtifactCache, "load")
        tracer.patch_function("runner.fingerprint", code_fingerprint)
        yield tracer
    finally:
        tracer.restore()


def per_layer_metrics(
    spans: List[list],
    traced: Outcome,
    untraced: Outcome,
    overhead_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one workload; 0 where it has no such layer."""
    totals = span_totals(spans)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def total(name: str) -> float:
        return float(totals.get(name, {}).get("total_s", 0.0))

    def own(name: str) -> float:
        return float(totals.get(name, {}).get("self_s", 0.0))

    counts = traced.counts
    rounds = int(counts.get("rounds", 0))
    transfers = int(counts.get("transfers", 0))
    metrics: Dict[str, float] = {name: 0 for name in PER_LAYER}
    metrics.update(
        {
            "overlay.edges": int(counts.get("edges", 0)),
            "overlay.join_calls": calls("overlay.join"),
            "overlay.join_s": total("overlay.join"),
            "overlay.leave_calls": calls("overlay.leave"),
            "overlay.leave_s": total("overlay.leave"),
            "overlay.select_neighbors_calls": calls("overlay.select_neighbors"),
            "overlay.select_neighbors_s": total("overlay.select_neighbors"),
            "p2psim.advance_self_s": own("p2psim.advance"),
            "p2psim.churn_s": total("p2psim.churn"),
            # Churn minus the tracker's join and leave: admit, evict and
            # routing-row refresh (including their price lookups).
            "p2psim.churn_self_s": total("p2psim.churn")
            - total("overlay.join")
            - total("overlay.leave"),
            "p2psim.tax_s": total("p2psim.tax"),
            "p2psim.record_s": total("p2psim.record"),
            "p2psim.finalize_s": total("p2psim.finalize"),
            "p2psim.transfers_per_round": transfers / rounds if rounds else 0,
            "p2psim.joins": int(counts.get("joins", 0)),
            "p2psim.leaves": int(counts.get("leaves", 0)),
            "core.price_array_calls": calls("core.price_array"),
            "core.price_array_s": total("core.price_array"),
            "core.rate_vector_s": total("core.rate_vector"),
            "queueing.traffic_s": total("queueing.traffic"),
            "experiments.run_s": total("experiments.run"),
            "runner.sweep_s": total("runner.sweep"),
            "runner.cache_store_calls": calls("runner.cache_store"),
            "runner.cache_store_s": total("runner.cache_store"),
            "runner.cache_load_calls": calls("runner.cache_load"),
            "runner.cache_load_s": total("runner.cache_load"),
            "runner.fingerprint_s": total("runner.fingerprint"),
            "cli.main_self_s": own("cli.main"),
            "trace.overhead_s": overhead_s,
            "trace.spans": len(spans),
        }
    )
    for name in TRACED_LAYERS:
        metrics[name] = traced.layers.get(name, 0)
    for name in UNTRACED_LAYERS:
        metrics[name] = untraced.layers.get(name, 0)
    return metrics


WORKLOADS = {
    workload.name: workload
    for workload in (
        MarketWorkload(
            "market-static", 100_000, rounds_per_second=50.0, block_rounds=25, tax=True
        ),
        MarketWorkload(
            "market-churn", 20_000, rounds_per_second=5.0, block_rounds=5, churn_lifespan=500.0
        ),
        StreamWorkload("stream-swarm", 50_000),
        CliWorkload("cli-paper"),
    )
}
