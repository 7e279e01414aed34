"""Parallel sweep & replication orchestration for the paper's experiments.

The ``repro.runner`` subsystem turns single-configuration experiment runners
into declarative, cache-aware, parallel parameter sweeps:

* :mod:`repro.runner.grid` — :class:`ParamGrid` / :class:`SweepSpec`
  expand cartesian products and named scenario bundles into experiment
  configurations and ``(config, replication)`` shard tasks;
* :mod:`repro.runner.executor` — :func:`run_sweep` shards the tasks across
  a process pool, with per-shard seeds derived through the same
  ``derive_seed`` chain as the in-library :class:`SeedSequenceFactory`, so
  results are bit-identical regardless of worker count or ordering;
* :mod:`repro.runner.cache` — :class:`ArtifactCache`, a content-addressed
  on-disk artifact store keyed by experiment id, configuration, seed and
  code version, making interrupted sweeps resumable;
* :mod:`repro.runner.aggregate` — cross-replication aggregation (mean,
  std, Student-t and bootstrap confidence intervals) feeding the existing
  :class:`~repro.utils.records.ResultTable` containers.

Determinism contract
--------------------
Every shard's seed is ``derive_seed(base_seed, "sweep", experiment_id,
canonical_config_json, replication)``.  The derivation depends only on the
*content* of the configuration and the replication index — never on the
position of the configuration inside the grid, the number of worker
processes, or the order in which shards happen to finish.  Aggregation
sorts shards by ``(config_index, replication)`` before reducing, and the
bootstrap resampling RNG is itself seeded through the same chain, so a
sweep's aggregate table is byte-identical at ``--jobs 1`` and ``--jobs N``
and across cold/warm cache runs.
"""

from repro.runner.aggregate import aggregate_report, aggregate_sweep, bootstrap_ci
from repro.runner.cache import (
    ArtifactCache,
    code_fingerprint,
    payload_to_result,
    result_to_payload,
    task_key,
)
from repro.runner.executor import ShardResult, SweepReport, default_jobs, run_sweep
from repro.runner.grid import (
    SCENARIOS,
    ParamGrid,
    SweepSpec,
    SweepTask,
    build_spec,
    canonical_config,
    scenario,
)

__all__ = [
    "ArtifactCache",
    "ParamGrid",
    "SCENARIOS",
    "ShardResult",
    "SweepReport",
    "SweepSpec",
    "SweepTask",
    "aggregate_report",
    "aggregate_sweep",
    "bootstrap_ci",
    "build_spec",
    "canonical_config",
    "code_fingerprint",
    "default_jobs",
    "payload_to_result",
    "result_to_payload",
    "run_sweep",
    "scenario",
    "task_key",
]
