"""Tests for the sweep executor: determinism, caching, and resumption.

The determinism tests pin the subsystem's core contract: a sweep's
aggregate table is byte-identical no matter how many workers execute it
and whether shards come from the cache or from fresh runs.
"""

import pytest

from repro.runner import (
    ArtifactCache,
    ParamGrid,
    SweepSpec,
    aggregate_sweep,
    code_fingerprint,
    run_sweep,
    task_key,
)
from repro.runner.executor import _openblas_symbol, _single_blas_thread, default_jobs

# Two configs x three replications of the cheap fig3 point runner: the whole
# sweep takes well under a second even including pool startup.
SPEC = SweepSpec(
    "fig3",
    grid=ParamGrid({"num_peers": [30, 40], "num_samples": [2]}),
    replications=3,
    base_seed=11,
    scale="smoke",
)


def test_serial_and_parallel_results_bit_identical():
    serial = run_sweep(SPEC, jobs=1)
    parallel = run_sweep(SPEC, jobs=3)
    assert serial.executed == parallel.executed == 6
    assert [s.payload for s in serial.shards] == [s.payload for s in parallel.shards]
    assert aggregate_sweep(serial).to_csv() == aggregate_sweep(parallel).to_csv()


def test_shards_ordered_by_config_and_replication():
    report = run_sweep(SPEC, jobs=2)
    observed = [(s.task.config_index, s.task.replication) for s in report.shards]
    assert observed == sorted(observed)


def test_replications_differ_but_configs_reproduce():
    report = run_sweep(SPEC, jobs=1)
    by_config = report.by_config()
    ginis = [shard.result().tables[0].rows[0]["gini"] for shard in by_config[0]]
    assert len(set(ginis)) == len(ginis)  # distinct seeds -> distinct draws
    again = run_sweep(SPEC, jobs=1)
    assert [s.payload for s in again.shards] == [s.payload for s in report.shards]


def test_warm_cache_executes_zero_shards(tmp_path):
    cache = ArtifactCache(tmp_path)
    cold = run_sweep(SPEC, jobs=1, cache=cache)
    assert (cold.executed, cold.cached) == (6, 0)
    warm = run_sweep(SPEC, jobs=2, cache=cache)
    assert (warm.executed, warm.cached) == (0, 6)
    assert aggregate_sweep(warm).to_csv() == aggregate_sweep(cold).to_csv()


def test_interrupted_sweep_resumes_missing_shards_only(tmp_path):
    cache = ArtifactCache(tmp_path)
    reference = run_sweep(SPEC, jobs=1)

    # Simulate an interrupted run: execute the full sweep, then discard the
    # artifacts of the last config (as if the run was killed mid-grid; the
    # executor commits each shard atomically as it completes).
    run_sweep(SPEC, jobs=1, cache=cache)
    code = code_fingerprint()
    dropped = 0
    for task in SPEC.tasks():
        if task.config_index == 1:
            assert cache.discard(task_key(task, code))
            dropped += 1
    assert dropped == 3

    resumed = run_sweep(SPEC, jobs=1, cache=cache)
    assert (resumed.executed, resumed.cached) == (3, 3)
    assert [s.payload for s in resumed.shards] == [s.payload for s in reference.shards]
    assert aggregate_sweep(resumed).to_csv() == aggregate_sweep(reference).to_csv()


def test_partial_prepopulation_resumes(tmp_path):
    # A 1-replication run warms the cache for replication 0 of every config;
    # the 3-replication run then only executes replications 1 and 2.
    cache = ArtifactCache(tmp_path)
    sub = SweepSpec(
        "fig3", grid=SPEC.grid, replications=1, base_seed=SPEC.base_seed, scale=SPEC.scale
    )
    run_sweep(sub, jobs=1, cache=cache)
    full = run_sweep(SPEC, jobs=1, cache=cache)
    assert (full.executed, full.cached) == (4, 2)
    assert aggregate_sweep(full).to_csv() == aggregate_sweep(run_sweep(SPEC, jobs=1)).to_csv()


def test_empty_config_falls_back_to_registry_runner():
    spec = SweepSpec("fig4", replications=2, base_seed=1, scale="smoke")
    report = run_sweep(spec, jobs=1)
    assert report.executed == 2
    assert report.shards[0].result().experiment_id == "fig4"


def test_empty_config_replicates_whole_experiment_not_point_runner():
    # `run fig9 --reps N` must replicate the full figure (all policies),
    # not the point runner's single default grid point.
    spec = SweepSpec("fig9", replications=1, base_seed=0, scale="smoke")
    report = run_sweep(spec, jobs=1)
    assert len(report.shards[0].result().tables[0]) >= 2


def test_failing_shard_does_not_lose_completed_shards(tmp_path):
    cache = ArtifactCache(tmp_path)
    spec = SweepSpec(
        "fig3",
        grid=[{"num_peers": 30, "num_samples": 2}, {"bogus_param": 1}],
        replications=1,
        scale="smoke",
    )
    with pytest.raises(KeyError, match="bogus_param"):
        run_sweep(spec, jobs=2, cache=cache)
    # The valid shard completed and was committed despite the failure, so a
    # corrected re-run resumes from it.
    assert len(cache) == 1


def test_unknown_sweep_parameter_rejected():
    spec = SweepSpec("fig3", grid=[{"bogus_param": 1}], replications=1, scale="smoke")
    with pytest.raises(KeyError, match="bogus_param"):
        run_sweep(spec, jobs=1)


def test_unsweepable_experiment_with_params_rejected():
    # Every registered experiment is sweepable now, so only an unknown id
    # can hit the "not sweepable" path.
    spec = SweepSpec("fig99", grid=[{"x": 1}], replications=1, scale="smoke")
    with pytest.raises(KeyError, match="not sweepable"):
        run_sweep(spec, jobs=1)


def test_progress_callback_reports_execution(tmp_path):
    lines = []
    run_sweep(SPEC, jobs=1, cache=ArtifactCache(tmp_path), progress=lines.append)
    assert any("6 shards" in line for line in lines)
    assert any("executed shard 6/6" in line for line in lines)


BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads():
    """Threads numpy's bundled OpenBLAS uses in this process (``None``: not found)."""
    getter = _openblas_symbol(BLAS_THREAD_GETTERS)
    return None if getter is None else getter()


def test_pool_workers_use_one_blas_thread():
    from concurrent.futures import ProcessPoolExecutor

    if _blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
    with ProcessPoolExecutor(max_workers=1, initializer=_single_blas_thread) as pool:
        assert pool.submit(_blas_threads).result() == 1


def test_blas_pin_is_a_no_op_without_a_bundled_openblas(tmp_path, monkeypatch):
    import numpy

    (tmp_path / "numpy.libs").mkdir()
    monkeypatch.setattr(numpy, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert _blas_threads() is None
    assert _single_blas_thread() is None


def test_warm_sweep_and_single_shard_start_no_pool(tmp_path, monkeypatch):
    from repro.runner import executor

    def no_pool(*args, **kwargs):
        raise AssertionError("no process pool should start")

    cache = ArtifactCache(tmp_path)
    run_sweep(SPEC, jobs=1, cache=cache)
    monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
    assert run_sweep(SPEC, jobs=4, cache=cache).cached == 6
    single = SweepSpec("fig3", grid=ParamGrid({"num_peers": [30], "num_samples": [2]}), scale="smoke")
    assert run_sweep(single, jobs=4).executed == 1


def test_run_sweep_has_no_round_block_knob():
    with pytest.raises(TypeError, match="intra_jobs"):
        run_sweep(SPEC, jobs=1, intra_jobs=2)


def test_default_jobs_is_the_cpu_count_and_at_least_one(monkeypatch):
    monkeypatch.setattr("repro.runner.executor.os.cpu_count", lambda: 3)
    assert default_jobs() == 3
    monkeypatch.setattr("repro.runner.executor.os.cpu_count", lambda: None)
    assert default_jobs() == 1
