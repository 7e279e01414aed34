"""Intra-run parallelism: checkpointed round-blocks for long simulations.

``repro.runner`` shards sweeps at ``(config × replication)`` granularity,
which leaves a paper-scale *single* configuration running on one core for
its whole horizon.  This module splits one such run into contiguous
**round-blocks**: the simulator advances a block of rounds, pickles its
complete state (arrays, RNG, recorder, membership, churn-event counters —
everything the monolithic loop would carry into the next round) into a
:class:`CheckpointStore`, and the next block resumes from that state —
possibly in a different worker process, possibly in a later process after
an interruption.

Because a block boundary is nothing but a pickle round-trip of the exact
in-memory state, a partitioned run is **bit-identical** to the monolithic
run of the same configuration: same draws, same floats, same artifacts.
The executor therefore stores partitioned shard results under the *same*
artifact-cache keys as monolithic ones — ``--intra-jobs`` changes how a
shard executes, never what it produces.

Scheduling model
----------------
Blocks of one run are inherently sequential (block ``b`` needs block
``b-1``'s state), so intra-run partitioning does not speed up a single
replication by itself.  Its wins are:

* **pipelining** — with several replications/configurations in flight the
  executor interleaves different shards' blocks across the worker pool,
  so a few long shards no longer serialise the tail of a sweep;
* **resumability** — with a persistent cache, an interrupted paper-scale
  run resumes from its last completed *block* instead of restarting the
  whole horizon.

The context intercepts both :class:`~repro.p2psim.market_sim.\
CreditMarketSimulator` and :class:`~repro.p2psim.streaming_sim.\
StreamingMarketSimulator` runs — any simulator exposing the
``total_rounds()`` / ``advance_rounds(n)`` / ``finalize()`` round-block
protocol partitions the same way; other computations inside an experiment
execute monolithically within their invocation.

Checkpoint artifacts are raw pickles keyed — like the result artifacts —
by a content hash that includes the repo's code fingerprint, so stale
states can never leak across code versions.  They are trusted local
files: only point a checkpoint store at directories you write yourself.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import pickle
import shutil
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, cast

from repro.obs import get_emitter

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.p2psim import Simulator

__all__ = [
    "BlockContext",
    "CheckpointStore",
    "OutOfBlockBudget",
    "active_context",
    "round_blocks",
]

_ACTIVE: Optional["BlockContext"] = None


def active_context() -> Optional["BlockContext"]:
    """The installed :class:`BlockContext`, or ``None`` outside one."""
    return _ACTIVE


def round_blocks(total_rounds: int, blocks: int) -> List[int]:
    """Split ``total_rounds`` into ``blocks`` contiguous block lengths.

    Earlier blocks take the remainder, so lengths differ by at most one
    and always sum to ``total_rounds``.

    >>> round_blocks(10, 3)
    [4, 3, 3]
    >>> round_blocks(2, 4)
    [1, 1, 0, 0]
    """
    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if total_rounds < 0:
        raise ValueError("total_rounds must be non-negative")
    base, extra = divmod(total_rounds, blocks)
    return [base + (1 if index < extra else 0) for index in range(blocks)]


class OutOfBlockBudget(Exception):
    """Raised when an invocation's block budget is exhausted mid-experiment.

    The executor catches it: the experiment has checkpointed everything it
    advanced so far, and the next invocation of the same shard resumes
    from those checkpoints.
    """


class CheckpointStore:
    """Pickle store for block-boundary simulator states, sharded by scope.

    Files live at ``root/<scope-digest>/<key>.pkl``: every checkpoint of
    one shard sits in one directory, so a finished (or superseded) shard's
    states are pruned with a single directory removal — by any execution
    mode, without knowing how many simulations or blocks the shard ran.
    Writes are atomic (temp file + ``os.replace``) so interrupted runs
    leave only complete checkpoints behind.  Keys hash the scope, the
    simulation's ordinal position inside the experiment, the block index,
    the partition width and the code fingerprint — any code edit orphans
    old states instead of resuming from them.
    """

    def __init__(self, root: os.PathLike | str) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    @staticmethod
    def key(scope: str, ordinal: int, block: int, blocks: int) -> str:
        """Checkpoint key for ``block`` completed blocks of one simulation."""
        from repro.runner.cache import code_fingerprint

        payload = repr(
            (
                "intra-checkpoint",
                str(scope),
                int(ordinal),
                int(block),
                int(blocks),
                code_fingerprint(),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _scope_dir(self, scope: str) -> Path:
        digest = hashlib.sha256(f"scope:{scope}".encode("utf-8")).hexdigest()
        return self._root / digest[:16]

    def _path(self, scope: str, ordinal: int, block: int, blocks: int) -> Path:
        return self._scope_dir(scope) / f"{self.key(scope, ordinal, block, blocks)}.pkl"

    def contains(self, scope: str, ordinal: int, block: int, blocks: int) -> bool:
        """Return whether the addressed checkpoint is stored."""
        return self._path(scope, ordinal, block, blocks).is_file()

    def load(self, scope: str, ordinal: int, block: int, blocks: int) -> Optional[object]:
        """Unpickle the addressed state (``None`` on a miss).

        A corrupt checkpoint counts as a miss and is removed, so the block
        that produced it simply re-executes.
        """
        path = self._path(scope, ordinal, block, blocks)
        emitter = get_emitter()
        started = time.perf_counter() if emitter.enabled else 0.0
        try:
            with open(path, "rb") as handle:
                state = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError, OSError):
            path.unlink(missing_ok=True)
            return None
        # Only successful restores are timed: the restore scan probes
        # blocks newest-first and the misses are pure stat calls.
        emitter.timing("checkpoint.restore", time.perf_counter() - started)
        return state

    def store(
        self, scope: str, ordinal: int, block: int, blocks: int, state: object
    ) -> Path:
        """Atomically pickle ``state`` under its address and return the path."""
        path = self._path(scope, ordinal, block, blocks)
        path.parent.mkdir(parents=True, exist_ok=True)
        emitter = get_emitter()
        started = time.perf_counter() if emitter.enabled else 0.0
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise
        emitter.timing("checkpoint.save", time.perf_counter() - started)
        return path

    def discard(self, scope: str, ordinal: int, block: int, blocks: int) -> bool:
        """Remove the addressed checkpoint; returns whether one existed."""
        path = self._path(scope, ordinal, block, blocks)
        if path.is_file():
            path.unlink()
            return True
        return False

    def prune_scope(self, scope: str) -> int:
        """Drop every checkpoint of a scope; returns how many existed.

        Called once a shard's result artifact is committed — regardless of
        which mode committed it — because the states can never be needed
        again.
        """
        directory = self._scope_dir(scope)
        if not directory.is_dir():
            return 0
        removed = sum(1 for _ in directory.glob("*.pkl"))
        shutil.rmtree(directory, ignore_errors=True)
        return removed

    #: Age after which an untouched checkpoint scope is garbage-collected.
    STALE_AFTER_SECONDS = 7 * 24 * 3600.0

    def prune_stale(self, max_age_seconds: Optional[float] = None) -> int:
        """Drop scope directories untouched for ``max_age_seconds``.

        Scope names embed the code fingerprint, so checkpoints orphaned by
        an interrupted run followed by a source edit are unreachable by
        any future `prune_scope` call — without this GC a long-lived cache
        would accumulate full simulator-state pickles across code
        revisions.  The executor calls it once per partitioned sweep
        against a persistent cache; the week-long default keeps any
        plausibly resumable run alive.
        """
        if max_age_seconds is None:
            max_age_seconds = self.STALE_AFTER_SECONDS
        cutoff = time.time() - max_age_seconds
        removed = 0
        for directory in self._root.iterdir():
            if not directory.is_dir():
                continue
            try:
                newest = max(
                    (entry.stat().st_mtime for entry in directory.iterdir()),
                    default=directory.stat().st_mtime,
                )
            except OSError:
                continue
            if newest < cutoff:
                shutil.rmtree(directory, ignore_errors=True)
                removed += 1
        return removed


class BlockContext:
    """Execution context that turns market runs into checkpointed blocks.

    Parameters
    ----------
    store:
        Where block-boundary states are persisted (shared between the
        invocations of one shard, across processes).
    blocks:
        How many round-blocks each market simulation is split into.
    scope:
        Identity of the owning shard (the executor passes the shard's
        artifact-cache key); checkpoints of different shards never
        collide.  Resumption across processes requires a stable scope.
    budget:
        How many *new* blocks this invocation may advance before raising
        :class:`OutOfBlockBudget`.  Restoring existing checkpoints is
        free.  The executor uses ``budget=1`` so every pool task does one
        block of work; :func:`repro.runner.plan.execute` uses an unlimited
        budget to run a whole simulation in-process.

    Installed via ``with context:`` — both simulators'
    ``run_config`` classmethods consult :func:`active_context` and route
    through :meth:`run_simulation` while one is installed.  Contexts do
    not nest.
    """

    def __init__(
        self, store: CheckpointStore, blocks: int, scope: str, budget: Optional[int] = None
    ) -> None:
        if blocks < 1:
            raise ValueError("blocks must be at least 1")
        self.store = store
        self.blocks = int(blocks)
        self.scope = str(scope)
        self.budget = None if budget is None else int(budget)
        self.ordinals = 0

    def __enter__(self) -> "BlockContext":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a BlockContext is already active; contexts do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = None

    def _spend_budget(self) -> None:
        if self.budget is not None:
            if self.budget <= 0:
                raise OutOfBlockBudget(
                    f"block budget exhausted in scope {self.scope[:12]}…"
                )
            self.budget -= 1

    def run_simulation(
        self,
        sim_cls: "Callable[..., Simulator]",
        config: object,
        topology: object = None,
        snapshot_times: Optional[Sequence[float]] = None,
    ) -> object:
        """Run one round-block-capable simulation as checkpointed blocks.

        ``sim_cls`` is a :class:`~repro.p2psim.Simulator` factory —
        typically one of the simulator classes themselves; anything
        satisfying the protocol (including its picklable-state
        requirement) partitions identically.

        Restores the newest checkpoint of this simulation (identified by
        its ordinal position within the experiment), advances as many new
        blocks as the budget allows — checkpointing after each — and
        returns the finalised result once the last block is done.  The
        finalised result is itself stored (under block ``blocks + 1``), so
        re-entrant invocations of a multi-simulation experiment restore a
        completed simulation's lightweight result instead of unpickling
        and re-finalising its full state.
        """
        ordinal = self.ordinals
        self.ordinals += 1
        blocks = self.blocks

        finalised = self._load(ordinal, blocks + 1)
        if finalised is not None:
            self._sync_config_state(config, getattr(finalised, "config", None))
            return finalised

        completed = 0
        simulator: Optional["Simulator"] = None
        for block in range(blocks, 0, -1):
            state = self._load(ordinal, block)
            if state is not None:
                completed, simulator = block, cast("Simulator", state)
                break
        if simulator is None:
            if self.budget is not None and self.budget <= 0:
                # Don't pay for construction (topology generation, traffic
                # equations) in an invocation that could not advance anyway.
                raise OutOfBlockBudget(
                    f"block budget exhausted in scope {self.scope[:12]}…"
                )
            simulator = sim_cls(config, topology=topology, snapshot_times=snapshot_times)

        sizes = round_blocks(simulator.total_rounds(), blocks)
        while completed < blocks:
            if sizes[completed] == 0:
                # round_blocks only pads the tail with zero-length blocks
                # (more blocks than rounds); they cannot change state, so
                # they cost neither budget nor a checkpoint write.
                completed += 1
                continue
            self._spend_budget()
            simulator.advance_rounds(sizes[completed])
            completed += 1
            self.store.store(self.scope, ordinal, completed, blocks, simulator)
        result = simulator.finalize()
        self.store.store(self.scope, ordinal, blocks + 1, blocks, result)
        self._sync_config_state(config, simulator.config)
        return result

    def _load(self, ordinal: int, block: int) -> Optional[object]:
        return self.store.load(self.scope, ordinal, block, self.blocks)

    @staticmethod
    def _sync_config_state(config: object, restored_config: object) -> None:
        """Copy run-accumulated state from a restored config onto the caller's.

        A monolithic run mutates the very objects the experiment
        constructed — e.g. :class:`ThresholdIncomeTax` accumulates
        ``total_collected``/``total_rebated`` counters the fig9 runner
        reads back after the run.  A restored checkpoint carries *pickle
        copies* of those objects, so without this sync the caller's
        instances would stay at their initial state and partitioned runs
        would report different (zeroed) policy totals than monolithic
        ones — under the same artifact-cache key.  The sync walks every
        dataclass field generically, so a future stateful config object
        is covered without editing an allowlist; pickle-canonical
        singletons (enum members) restore to the identical object and are
        skipped by the identity check.
        """
        if restored_config is None or restored_config is config:
            return
        if not dataclasses.is_dataclass(config) or type(config) is not type(
            restored_config
        ):
            return
        for field in dataclasses.fields(config):
            caller = getattr(config, field.name, None)
            restored = getattr(restored_config, field.name, None)
            if caller is None or restored is None or caller is restored:
                continue
            if type(caller) is type(restored) and hasattr(caller, "__dict__"):
                caller.__dict__.clear()
                caller.__dict__.update(copy.deepcopy(restored.__dict__))

