"""Cross-replication aggregation of sweep results.

:func:`aggregate_sweep` reduces the per-shard
:class:`~repro.experiments.common.ExperimentResult` tables of a
:class:`~repro.runner.executor.SweepReport` into one long-format
:class:`~repro.utils.records.ResultTable`: one row per (configuration,
table row, numeric metric) with the mean, standard deviation, a
Student-t confidence interval and a bootstrap percentile
confidence interval across replications.

Determinism contract
--------------------
Shards are reduced in ``(config_index, replication)`` order and the
bootstrap resampling RNG is seeded via ``derive_seed(base_seed,
"bootstrap", config_key, row_index, metric)`` — a pure function of the
sweep's content.  The aggregate table is therefore byte-identical
regardless of worker count, shard completion order, or whether shards
came from the cache.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.runner.executor import SweepReport
from repro.utils.records import ResultTable
from repro.utils.rng import derive_seed
from repro.utils.stats import confidence_interval

__all__ = ["aggregate_report", "aggregate_sweep", "bootstrap_ci"]


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    num_resamples: int = 1000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean of ``samples``.

    Resampling is driven by ``numpy.random.default_rng(seed)``, so the
    interval is a deterministic function of ``(samples, confidence,
    num_resamples, seed)``.  With fewer than two samples the interval
    degenerates to ``(mean, mean)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if num_resamples < 1:
        raise ValueError("num_resamples must be at least 1")
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if arr.size < 2 or np.all(arr == arr[0]):
        # Constant samples: every resample mean equals the constant, so the
        # interval is degenerate — skip the resampling work.
        mean = float(arr.mean())
        return (mean, mean)
    rng = np.random.default_rng(int(seed))
    draws = rng.integers(0, arr.size, size=(int(num_resamples), arr.size))
    means = arr[draws].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return (float(low), float(high))


def _numeric(value: object) -> Optional[float]:
    """Return ``value`` as float when it is a (non-bool) number, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def aggregate_sweep(
    report: SweepReport,
    confidence: float = 0.95,
    num_resamples: int = 1000,
) -> ResultTable:
    """Reduce a sweep report to one long-format cross-replication table.

    For every configuration, the first table of each replication's result
    is read row by row; every numeric column becomes a metric row with
    ``mean``/``std``/``ci_low``/``ci_high`` (Student-t) and
    ``boot_low``/``boot_high`` (percentile bootstrap).  Non-numeric cells
    of the underlying row (e.g. a ``setting`` label) are carried through
    from the first replication as identifying columns.

    Replications of one configuration must agree on their table row count;
    ragged replications raise ``ValueError`` instead of being silently
    truncated to the shortest table.  Configurations whose replications all
    produced no tables are recorded under the aggregate's
    ``configs_without_tables`` metadata key.
    """
    spec = report.spec
    configs = spec.configs()
    table = ResultTable(
        title=f"Sweep aggregate — {spec.name or spec.experiment_id} "
        f"({spec.replications} replications, {confidence:.0%} CI)",
        metadata={
            "experiment_id": spec.experiment_id,
            "replications": spec.replications,
            "base_seed": spec.base_seed,
            "scale": str(spec.scale),
            "confidence": confidence,
        },
    )
    grouped = report.by_config()
    for config_index, config in enumerate(configs):
        shards = grouped.get(config_index, [])
        if not shards:
            continue
        shards = sorted(shards, key=lambda shard: shard.task.replication)
        results = [shard.result() for shard in shards]
        config_key = shards[0].task.config_key()
        first_tables = [result.tables[0] if result.tables else None for result in results]
        # Ragged replications are a bug upstream (a point runner whose row
        # count depends on the seed); truncating to the first replication's
        # rows would silently bias the aggregate, so refuse instead.
        row_counts = [None if t is None else len(t.rows) for t in first_tables]
        distinct = set(row_counts)
        if len(distinct) > 1:
            detail = ", ".join(
                f"replication {shard.task.replication}: "
                + ("no tables" if count is None else f"{count} rows")
                for shard, count in zip(shards, row_counts)
            )
            raise ValueError(
                f"ragged replications for config {config_key} of "
                f"{spec.experiment_id!r}: table row counts differ across "
                f"replications ({detail})"
            )
        reference = first_tables[0]
        if reference is None:
            # Every replication of this config produced no tables; note it in
            # the aggregate's metadata instead of dropping the config silently.
            table.metadata.setdefault("configs_without_tables", []).append(config_key)
            continue
        for row_index, reference_row in enumerate(reference.rows):
            labels = {
                name: value
                for name, value in reference_row.as_dict().items()
                if _numeric(value) is None and name not in config
            }
            for column in reference.columns():
                if column in config:
                    # The column just echoes a swept parameter; a mean/CI of
                    # a constant is noise (and a wasted bootstrap).
                    continue
                values: List[float] = []
                for shard_table in first_tables:
                    # Row counts were validated equal above, so every
                    # replication has this row.
                    value = _numeric(shard_table.rows[row_index].get(column))
                    if value is not None:
                        values.append(value)
                if not values:
                    continue
                arr = np.asarray(values, dtype=float)
                ci_low, ci_high = confidence_interval(values, confidence)
                boot_low, boot_high = bootstrap_ci(
                    values,
                    confidence=confidence,
                    num_resamples=num_resamples,
                    seed=derive_seed(
                        spec.base_seed, "bootstrap", config_key, row_index, column
                    ),
                )
                table.add_row(
                    **config,
                    **labels,
                    metric=column,
                    mean=float(arr.mean()),
                    std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    boot_low=boot_low,
                    boot_high=boot_high,
                    replications=len(values),
                )
    return table


def aggregate_report(
    report: SweepReport,
    confidence: float = 0.95,
    num_resamples: int = 1000,
) -> ExperimentResult:
    """Wrap :func:`aggregate_sweep` in an :class:`ExperimentResult`.

    Execution statistics (worker count, duration, cache reuse) go into
    the result's *metadata* only — never into the table — so the table
    bytes stay identical across execution modes.
    """
    table = aggregate_sweep(report, confidence=confidence, num_resamples=num_resamples)
    spec = report.spec
    return ExperimentResult(
        experiment_id=spec.experiment_id,
        title=table.title,
        tables=[table],
        series=[],
        metadata={
            "sweep": spec.describe(),
            "executed": report.executed,
            "cached": report.cached,
            "jobs": report.jobs,
            "duration": report.duration,
        },
    )
