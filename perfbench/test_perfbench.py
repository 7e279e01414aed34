"""Tests of the benchmark itself, at toy sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root of
the repository.  They show that every metric the benchmark declares is
emitted with a unit, that each output check fails on a corrupted result,
and that a traced pass reproduces the untraced pass's counts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import perf_workloads as pw
from perf_trace import Tracer, span_totals

ROOT = Path(__file__).resolve().parent.parent

TOY_SIMULATIONS = [
    pw.MarketWorkload(
        "toy-static", 300, rounds_per_second=10.0, block_rounds=5, tax=True, setups=2
    ),
    pw.MarketWorkload(
        "toy-churn", 300, rounds_per_second=10.0, block_rounds=5, churn_lifespan=50.0, setups=2
    ),
    pw.StreamWorkload("toy-stream", 200, steady_ticks_per_second=2.0, setups=2),
]

TOY_CLI = pw.CliWorkload(
    "toy-cli",
    fig=("run", "fig4", "--scale", "smoke"),
    sweep=(
        "sweep", "fig3", "--param", "num_peers=30,40", "--param", "num_samples=2",
        "--scale", "smoke", "--jobs", "1",
    ),
    shards=2,
    sequences_per_second=1.0,
    setups=1,
)


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == pw.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == pw.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(pw.WORKLOADS)


@pytest.mark.parametrize("workload", TOY_SIMULATIONS, ids=lambda w: w.name)
def test_simulator_workload_metrics_and_traced_counts(workload):
    untraced = workload.run(seed=3, seconds=1)
    assert untraced.problems == [] and untraced.failed == 0
    assert untraced.attempted == len(workload.blocks(1)) + 1
    assert set(untraced.metrics) == set(pw.END_TO_END)
    assert all(value > 0 for value in untraced.metrics.values())
    assert len(untraced.samples["setup_s"]) == workload.setups

    tracer = Tracer(workload.name)
    with pw.wrappers_installed(tracer):
        traced = workload.run(seed=3, seconds=1, tracer=tracer)
    assert traced.problems == []
    assert traced.counts == untraced.counts
    layers = pw.per_layer_metrics(tracer.spans, traced, untraced, overhead_s=0.0)
    assert set(layers) == set(pw.PER_LAYER)
    assert layers["overlay.edges"] == untraced.counts["edges"] > 0
    # Set-up times are the untraced medians, not the traced pass's one set-up.
    for name in ("overlay.topology_s", "p2psim.state_s"):
        assert layers[name] == untraced.layers[name] > 0
    assert layers["p2psim.joins"] == untraced.counts["joins"]
    assert layers["overlay.join_calls"] == untraced.counts["joins"]
    assert layers["overlay.leave_calls"] == untraced.counts["leaves"]
    assert layers["p2psim.advance_self_s"] > 0 and layers["p2psim.record_s"] > 0
    if workload.name == "toy-churn":
        assert untraced.counts["joins"] > 0 and layers["overlay.select_neighbors_calls"] > 0
    # Wrappers are gone once the traced pass ends.
    from repro.overlay.membership import MembershipTracker

    assert not hasattr(MembershipTracker.join, "__wrapped__")


def _finished(workload, rounds=10):
    setup = workload.setup(seed=5, rounds=rounds)
    setup.sim.advance_rounds(rounds)
    return setup.sim, setup.sim.finalize()


def test_market_static_check_fails_on_a_perturbed_balance():
    workload = TOY_SIMULATIONS[0]
    _, result = _finished(workload)
    assert workload.result_problems(result) == []
    result.final_wealths[0] += 1.0
    assert workload.result_problems(result)


def test_market_churn_check_fails_on_corrupted_results():
    workload = TOY_SIMULATIONS[1]
    _, result = _finished(workload)
    assert workload.result_problems(result) == []
    negative = result.final_wealths.copy()
    negative[0] = -1.0
    result.final_wealths, kept = negative, result.final_wealths
    assert workload.result_problems(result)
    result.final_wealths = kept
    result.extras["final_population"] = 2 * workload.num_peers
    assert workload.result_problems(result)


def test_stream_check_fails_when_credits_appear():
    workload = TOY_SIMULATIONS[2]
    sim, _ = _finished(workload)
    assert pw.check_stream(sim, 0) == []
    assert pw.check_stream(sim, sim.chunks_delivered + 1)
    # Corrupt one balance: conservation no longer holds.
    sim._balance[sim._alive.nonzero()[0][0]] += 1.0
    assert pw.check_stream(sim, 0)


def _cli_runs(shards=2):
    return {
        "fig": {"returncode": 0, "stdout": "table\n", "csv": b""},
        "cold": {
            "returncode": 0,
            "stdout": f"summary: 2 configs | 0 cache hits | {shards} shards executed | 1s wall",
            "csv": b"a,b\n1,2\n",
        },
        "warm": {
            "returncode": 0,
            "stdout": f"summary: 2 configs | {shards} cache hits | 0 shards executed | 1s wall",
            "csv": b"a,b\n1,2\n",
        },
    }


def test_cli_check_fails_on_corrupted_outputs():
    assert pw.check_cli(_cli_runs(), 2) == {"fig": [], "cold": [], "warm": []}
    runs = _cli_runs()
    runs["warm"]["csv"] = b"a,b\n1,3\n"
    assert pw.check_cli(runs, 2)["warm"]
    runs = _cli_runs()
    runs["warm"]["stdout"] = "summary: 2 configs | 1 cache hit | 1 shard executed | 1s wall"
    assert pw.check_cli(runs, 2)["warm"]
    runs = _cli_runs()
    runs["fig"]["returncode"] = 2
    assert pw.check_cli(runs, 2)["fig"]


def test_cli_workload_metrics_and_traced_counts(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    untraced = TOY_CLI.run(seed=1, seconds=1, workdir=tmp_path)
    assert untraced.problems == [] and untraced.attempted == 3
    assert set(untraced.metrics) == set(pw.END_TO_END)
    assert all(value > 0 for value in untraced.metrics.values())
    assert untraced.counts["cache_hits"] == untraced.counts["shards_executed"] == 2
    tracer = Tracer(TOY_CLI.name)
    with pw.wrappers_installed(tracer):
        traced = TOY_CLI.run_in_process(seed=1, workdir=tmp_path, tracer=tracer)
    assert traced.problems == []
    assert traced.counts == untraced.counts
    layers = pw.per_layer_metrics(tracer.spans, traced, untraced, overhead_s=0.0)
    assert set(layers) == set(pw.PER_LAYER)
    assert layers["runner.cache_store_calls"] == 2
    assert layers["runner.cache_load_calls"] == 4
    assert layers["runner.cache_hits"] == 2 and layers["cli.modules_loaded"] > 0
    assert layers["cli.main_self_s"] > 0 and layers["runner.sweep_s"] > 0


def test_span_totals_subtract_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 6.0, 0],
        ["outer", 7.0, 8.0, 0],
    ]
    totals = span_totals(spans)
    assert totals["outer"] == {"calls": 2, "total_s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert totals["leaf"]["self_s"] == 1.0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "market-static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
