"""Process-pool execution of sweep shards with artifact caching.

:func:`run_sweep` expands a :class:`~repro.runner.grid.SweepSpec` into
``(config × replication)`` shards, skips every shard already present in
the :class:`~repro.runner.cache.ArtifactCache`, executes the remainder —
in-process at ``jobs=1``, on a ``ProcessPoolExecutor`` otherwise — and
returns the shards in deterministic ``(config_index, replication)`` order.

Each pool worker pins the bundled OpenBLAS to one thread
(:func:`_single_blas_thread`): ``jobs`` workers that each start a
machine-wide BLAS thread pool oversubscribe the cores, and make pooled
sweeps of points that solve dense traffic equations (fig3) several times
slower than serial ones.

Determinism contract
--------------------
* Shard seeds come from the spec (``derive_seed`` chain over the config
  content), so the randomness a shard consumes is fixed before any worker
  is chosen; worker count and completion order cannot perturb it.
* Every shard result — fresh or cached, serial or parallel — passes
  through the same JSON payload round-trip
  (:func:`~repro.runner.cache.result_to_payload`), so downstream
  aggregation sees exactly the same values in every execution mode.
* Results are re-ordered by task index before being returned; completion
  order never leaks into the report.

Interrupted sweeps resume for free: completed shards were committed to
the cache atomically, so a re-run executes only the missing ones.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import run_sweep_point
from repro.obs import get_emitter
from repro.runner.cache import ArtifactCache, code_fingerprint, payload_to_result, result_to_payload, task_key
from repro.runner.grid import SweepSpec, SweepTask

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
        return (
            f"{self.spec.describe()} — {self.executed} executed, "
            f"{self.cached} from cache, jobs={self.jobs}, "
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


def _openblas_symbol(names: Sequence[str]) -> Optional[Callable[..., int]]:
    """The first of ``names`` that numpy's bundled OpenBLAS exports, or ``None``.

    numpy wheels bundle OpenBLAS in ``numpy.libs``; its thread-count
    functions are ``scipy_openblas_*64_`` on scipy-openblas builds and
    ``openblas_*`` on plain ones.
    """
    import ctypes
    import glob

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            symbol = getattr(library, name, None)
            if symbol is not None:
                return symbol
    return None


def _single_blas_thread() -> None:
    """Pool initializer: pin numpy's bundled OpenBLAS to one thread.

    Does nothing when no bundled OpenBLAS is found.  Serial sweeps keep
    the default thread count, and their payloads must equal pooled ones
    byte for byte; the serial-versus-pooled sweep tests check that.
    """
    setter = _openblas_symbol(("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"))
    if setter is not None:
        setter(1)


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Execute every shard of ``spec``, reusing cached artifacts.

    Parameters
    ----------
    spec:
        The sweep to run.
    jobs:
        Worker processes.  ``1`` executes in-process (no pool); higher
        values shard the pending tasks over a ``ProcessPoolExecutor``
        whose workers each use one BLAS thread.  ``0``/negative selects
        :func:`default_jobs`.
    cache:
        Optional artifact cache; cached shards are restored without
        executing, and freshly executed shards are committed atomically
        so an interrupted sweep resumes where it stopped.
    progress:
        Optional callable receiving human-readable progress lines.
    """
    started = time.perf_counter()
    if jobs <= 0:
        jobs = default_jobs()
    tasks = spec.tasks()
    say = progress or (lambda message: None)
    say(spec.describe())
    emitter = get_emitter()
    emitter.mark(
        "runner.sweep.start",
        experiment_id=spec.experiment_id,
        shards=len(tasks),
        jobs=jobs,
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
        say(f"executed shard {count}/{len(pending)}")
        emitter.counter("runner.shard.executed")
        emitter.mark(
            "runner.shard.committed",
            config_index=tasks[index].config_index,
            replication=tasks[index].replication,
        )

    if jobs == 1 or len(pending) == 1:
        for count, index in enumerate(pending, start=1):
            commit(index, _execute_task(tasks[index].to_payload()), count)
    elif pending:
        # Commit in completion order (not submission order): a slow early
        # shard must not delay persisting the shards finishing behind it.
        # A failing shard must not abort the loop either — every shard
        # that completes is committed before the first error is re-raised,
        # so a partially failing sweep still resumes from its successes.
        first_error: Optional[BaseException] = None
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)), initializer=_single_blas_thread
        ) as pool:
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
        duration=duration,
        cache_stats=cache.stats() if cache is not None else None,
    )
