"""Process-pool execution of sweep shards with artifact caching.

:func:`run_sweep` expands a :class:`~repro.runner.grid.SweepSpec` into
``(config × replication)`` shards, skips every shard already present in
the :class:`~repro.runner.cache.ArtifactCache`, executes the remainder —
in-process at ``jobs=1``, on a ``ProcessPoolExecutor`` otherwise — and
returns the shards in deterministic ``(config_index, replication)`` order.

With ``intra_jobs > 1`` each shard additionally executes as a *chain* of
round-block invocations (see :mod:`repro.runner.partition`): every pool
task advances one checkpointed block of one shard's market simulation, so
blocks of different shards pipeline across the workers and an interrupted
paper-scale run resumes from its last completed block.  Partitioned and
monolithic execution produce byte-identical shard payloads and share the
same artifact-cache keys.

Determinism contract
--------------------
* Shard seeds come from the spec (``derive_seed`` chain over the config
  content), so the randomness a shard consumes is fixed before any worker
  is chosen; worker count and completion order cannot perturb it.
* Every shard result — fresh or cached, serial or parallel, monolithic or
  round-block partitioned — passes through the same JSON payload
  round-trip (:func:`~repro.runner.cache.result_to_payload`), so
  downstream aggregation sees exactly the same values in every execution
  mode.
* Results are re-ordered by task index before being returned; completion
  order never leaks into the report.

Interrupted sweeps resume for free: completed shards were committed to
the cache atomically, so a re-run executes only the missing ones.
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import run_sweep_point
from repro.obs import get_emitter
from repro.runner.cache import ArtifactCache, code_fingerprint, payload_to_result, result_to_payload, task_key
from repro.runner.grid import SweepSpec, SweepTask
from repro.runner.partition import BlockContext, CheckpointStore, OutOfBlockBudget

__all__ = ["ShardResult", "SweepReport", "run_sweep", "default_jobs"]


def default_jobs() -> int:
    """Default worker count: the machine's CPU count (at least 1)."""
    return max(1, os.cpu_count() or 1)


@dataclass
class ShardResult:
    """One executed (or cache-restored) shard of a sweep."""

    task: SweepTask
    payload: Dict[str, object]
    from_cache: bool = False

    def result(self) -> ExperimentResult:
        """Deserialise the shard's payload into an :class:`ExperimentResult`."""
        return payload_to_result(self.payload)


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` produced, in deterministic shard order.

    Attributes
    ----------
    spec:
        The sweep specification that was executed.
    shards:
        Shard results ordered by ``(config_index, replication)``.
    executed / cached:
        How many shards ran vs. were restored from the artifact cache.
    jobs:
        Worker count used for the executed shards.
    intra_jobs:
        Round-blocks each shard's market simulations were split into
        (``1`` = monolithic shards).
    duration:
        Wall-clock seconds spent inside :func:`run_sweep`.
    cache_stats:
        The artifact cache's ``hits``/``misses``/``stores`` counters as
        observed at the end of the sweep (``None`` when no cache was
        given).
    """

    spec: SweepSpec
    shards: List[ShardResult] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    jobs: int = 1
    intra_jobs: int = 1
    duration: float = 0.0
    cache_stats: Optional[Dict[str, int]] = None

    def results(self) -> List[ExperimentResult]:
        """Deserialised results in shard order."""
        return [shard.result() for shard in self.shards]

    def by_config(self) -> Dict[int, List[ShardResult]]:
        """Group shards by ``config_index`` (replication-ordered within each)."""
        grouped: Dict[int, List[ShardResult]] = {}
        for shard in self.shards:
            grouped.setdefault(shard.task.config_index, []).append(shard)
        return grouped

    def describe(self) -> str:
        """One-line human summary of what ran and what was reused."""
        intra = f", intra_jobs={self.intra_jobs}" if self.intra_jobs > 1 else ""
        return (
            f"{self.spec.describe()} — {self.executed} executed, "
            f"{self.cached} from cache, jobs={self.jobs}{intra}, "
            f"{self.duration:.2f}s"
        )

    def summary_line(self) -> str:
        """Per-sweep accounting summary: configs / cache hits / shards / wall time.

        Cache hits come from the cache's own counters when a cache was in
        play (they equal the restored-shard count for a plain sweep) so
        the line surfaces exactly what the instrumentation recorded.
        """
        configs = len(self.spec.configs())
        hits = self.cache_stats["hits"] if self.cache_stats else self.cached
        return (
            f"summary: {configs} config{'s' if configs != 1 else ''} | "
            f"{hits} cache hit{'s' if hits != 1 else ''} | "
            f"{self.executed} shard{'s' if self.executed != 1 else ''} executed | "
            f"{self.duration:.2f}s wall"
        )


def _execute_task(payload: Mapping[str, object]) -> Dict[str, object]:
    """Worker entry point: run one shard and return its JSON-safe payload.

    Module-level so it pickles cleanly into pool workers; takes and
    returns plain dicts so no library object crosses the process
    boundary.
    """
    task = SweepTask.from_payload(payload)
    result = run_sweep_point(
        task.experiment_id, dict(task.config), scale=task.scale, seed=task.seed
    )
    return result_to_payload(result)


def _execute_chain_step(
    payload: Mapping[str, object],
    blocks: int,
    store_root: str,
    budget: Optional[int] = 1,
) -> Optional[Dict[str, object]]:
    """Worker entry point for one round-block invocation of a shard chain.

    Installs a :class:`BlockContext` with a budget of ``budget`` new
    blocks and re-enters the shard's point runner: completed simulations
    restore from their checkpoints for free, unfinished ones advance up
    to the budget (checkpointing each block), and the invocation either
    finishes the experiment (returning its payload) or runs out of budget
    (returning ``None`` so the scheduler re-submits the chain).
    ``budget=None`` is unlimited — the whole shard completes in one
    invocation, still checkpointing every block boundary.
    """
    task = SweepTask.from_payload(payload)
    store = CheckpointStore(store_root)
    context = BlockContext(store, blocks=blocks, scope=task_key(task), budget=budget)
    try:
        with context:
            result = run_sweep_point(
                task.experiment_id, dict(task.config), scale=task.scale, seed=task.seed
            )
    except OutOfBlockBudget:
        return None
    return result_to_payload(result)


def _run_chains(
    tasks: List[SweepTask],
    pending: List[int],
    jobs: int,
    intra_jobs: int,
    store_root: str,
    commit: Callable[[int, Dict[str, object], int], None],
) -> None:
    """Drive every pending shard through its round-block invocation chain.

    Blocks of one shard are sequential (each needs the previous one's
    checkpoint); blocks of different shards interleave freely across the
    pool, which is what pipelines a multi-replication paper-scale sweep.
    With a single worker there is nothing to pipeline, so each shard runs
    its whole chain in one unlimited-budget invocation — identical
    checkpoints and payload, none of the per-block re-entry overhead.
    """
    if jobs == 1 or len(pending) == 1:
        for count, index in enumerate(pending, start=1):
            payload = _execute_chain_step(
                tasks[index].to_payload(), intra_jobs, store_root, budget=None
            )
            assert payload is not None  # unlimited budget always completes
            commit(index, payload, count)
        return

    first_error: Optional[BaseException] = None
    count = 0
    queue = deque(pending)
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        inflight: Dict[object, int] = {}

        def submit(index: int) -> None:
            future = pool.submit(
                _execute_chain_step, tasks[index].to_payload(), intra_jobs, store_root
            )
            inflight[future] = index

        while queue and len(inflight) < min(jobs, len(pending)):
            submit(queue.popleft())
        while inflight:
            completed, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
            for future in completed:
                index = inflight.pop(future)
                try:
                    payload = future.result()
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = error
                    if queue:
                        submit(queue.popleft())
                    continue
                if payload is None:
                    submit(index)  # next block of the same shard
                else:
                    count += 1
                    commit(index, payload, count)
                    if queue:
                        submit(queue.popleft())
    if first_error is not None:
        raise first_error


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    intra_jobs: int = 1,
) -> SweepReport:
    """Execute every shard of ``spec``, reusing cached artifacts.

    Parameters
    ----------
    spec:
        The sweep to run.
    jobs:
        Worker processes.  ``1`` executes in-process (no pool); higher
        values shard the pending tasks over a ``ProcessPoolExecutor``.
        ``0``/negative selects :func:`default_jobs`.
    cache:
        Optional artifact cache; cached shards are restored without
        executing, and freshly executed shards are committed atomically
        so an interrupted sweep resumes where it stopped.
    progress:
        Optional callable receiving human-readable progress lines.
    intra_jobs:
        Round-blocks each shard's market simulations are split into.
        ``1`` (default) runs shards monolithically; higher values execute
        each shard as a chain of checkpointed block invocations that
        pipeline across the worker pool and — with a persistent cache —
        resume interrupted paper-scale runs at block granularity.  Shard
        payloads and cache keys are identical in both modes.
    """
    started = time.perf_counter()
    if jobs <= 0:
        jobs = default_jobs()
    if intra_jobs < 1:
        raise ValueError("intra_jobs must be at least 1")
    tasks = spec.tasks()
    say = progress or (lambda message: None)
    say(spec.describe())
    emitter = get_emitter()
    emitter.mark(
        "runner.sweep.start",
        experiment_id=spec.experiment_id,
        shards=len(tasks),
        jobs=jobs,
        intra_jobs=intra_jobs,
    )

    ordered: List[Optional[ShardResult]] = [None] * len(tasks)
    pending: List[int] = []
    keys: Dict[int, str] = {}
    if cache is not None:
        code_version = code_fingerprint()
        for index, task in enumerate(tasks):
            key = task_key(task, code_version)
            keys[index] = key
            payload = cache.load(key)
            if payload is not None:
                ordered[index] = ShardResult(task=task, payload=payload, from_cache=True)
            else:
                pending.append(index)
        if len(pending) < len(tasks):
            say(f"cache: restored {len(tasks) - len(pending)}/{len(tasks)} shards")
            emitter.counter("runner.shard.cached", len(tasks) - len(pending))
    else:
        pending = list(range(len(tasks)))

    def commit(index: int, payload: Dict[str, object], count: int) -> None:
        # Committing each shard as it lands (not at sweep end) is what makes
        # an interrupted sweep resumable from its last completed shard.
        ordered[index] = ShardResult(task=tasks[index], payload=payload)
        if cache is not None:
            cache.store(keys[index], payload)
            # The result artifact supersedes any round-block checkpoints of
            # this shard — including ones left by an interrupted partitioned
            # run that this (possibly monolithic) execution just completed.
            checkpoint_root = cache.root / "checkpoints"
            if checkpoint_root.is_dir():
                CheckpointStore(checkpoint_root).prune_scope(keys[index])
        say(f"executed shard {count}/{len(pending)}")
        emitter.counter("runner.shard.executed")
        emitter.mark(
            "runner.shard.committed",
            config_index=tasks[index].config_index,
            replication=tasks[index].replication,
        )

    if pending:
        if intra_jobs > 1:
            # Round-block chains: checkpoints live next to the result
            # artifacts when a cache is given (making interrupted runs
            # resumable across processes), in a throwaway directory
            # otherwise (workers still need a shared medium for state).
            if cache is not None:
                # Week-old scopes are unreachable leftovers (interrupted
                # runs whose code fingerprint has since changed) — collect
                # them before adding new ones.
                CheckpointStore(cache.root / "checkpoints").prune_stale()
                _run_chains(
                    tasks, pending, jobs, intra_jobs, str(cache.root / "checkpoints"), commit
                )
            else:
                with tempfile.TemporaryDirectory(prefix="repro-intra-") as tmp:
                    _run_chains(tasks, pending, jobs, intra_jobs, tmp, commit)
        elif jobs == 1 or len(pending) == 1:
            for count, index in enumerate(pending, start=1):
                commit(index, _execute_task(tasks[index].to_payload()), count)
        else:
            # Commit in completion order (not submission order): a slow early
            # shard must not delay persisting the shards finishing behind it.
            # A failing shard must not abort the loop either — every shard
            # that completes is committed before the first error is re-raised,
            # so a partially failing sweep still resumes from its successes.
            first_error: Optional[BaseException] = None
            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                futures = {
                    pool.submit(_execute_task, tasks[index].to_payload()): index
                    for index in pending
                }
                count = 0
                for future in as_completed(futures):
                    try:
                        payload = future.result()
                    except BaseException as error:  # noqa: BLE001 - re-raised below
                        if first_error is None:
                            first_error = error
                        continue
                    count += 1
                    commit(futures[future], payload, count)
            if first_error is not None:
                raise first_error

    shards = [shard for shard in ordered if shard is not None]
    duration = time.perf_counter() - started
    emitter.gauge("runner.sweep.duration", duration)
    emitter.mark(
        "runner.sweep.done",
        experiment_id=spec.experiment_id,
        executed=len(pending),
        cached=len(tasks) - len(pending),
    )
    return SweepReport(
        spec=spec,
        shards=shards,
        executed=len(pending),
        cached=len(tasks) - len(pending),
        jobs=jobs,
        intra_jobs=intra_jobs,
        duration=duration,
        cache_stats=cache.stats() if cache is not None else None,
    )
