"""Tests for the ``repro.obs`` telemetry subsystem.

Covers the emitter/sink core (aggregation, span nesting, JSONL
round-trips, the disabled no-op contract) and the two integration
properties the instrumentation must uphold: telemetry is *strictly
observational* (instrumented simulator runs are byte-identical to
uninstrumented ones) and the runner and cache layers emit their
lifecycle events through the active emitter.
"""

import json
import pickle

import numpy as np
import pytest

from repro.obs import (
    DISABLED,
    CallbackSink,
    JSONLSink,
    MemorySink,
    MetricsEmitter,
    get_emitter,
    use_emitter,
)
from repro.p2psim import (
    CreditMarketSimulator,
    MarketSimConfig,
    StreamingMarketSimulator,
    StreamingSimConfig,
    UtilizationMode,
)
from repro.runner import ArtifactCache, ParamGrid, SweepSpec, run_sweep


def _market_config(rounds=40):
    return MarketSimConfig(
        num_peers=30,
        initial_credits=50.0,
        horizon=float(rounds),
        step=1.0,
        utilization=UtilizationMode.ASYMMETRIC,
        sample_interval=5.0,
        seed=7,
    )


def _streaming_config(ticks=30):
    return StreamingSimConfig(
        num_peers=30,
        initial_credits=80.0,
        horizon=float(ticks),
        sample_interval=5.0,
        seed=7,
    )


class TestEmitterAggregation:
    def test_counters_sum_by_name(self):
        sink = MemorySink()
        emitter = MetricsEmitter(sinks=[sink])
        emitter.counter("cache.hit")
        emitter.counter("cache.hit", 2)
        emitter.counter("cache.miss")
        assert sink.counters() == {"cache.hit": 3.0, "cache.miss": 1.0}

    def test_gauges_keep_last_value(self):
        sink = MemorySink()
        emitter = MetricsEmitter(sinks=[sink])
        emitter.gauge("steps_per_second", 100.0)
        emitter.gauge("steps_per_second", 250.0)
        assert sink.gauges() == {"steps_per_second": 250.0}

    def test_points_build_series_in_order(self):
        sink = MemorySink()
        emitter = MetricsEmitter(sinks=[sink])
        emitter.point("gini", 0.0, 0.1)
        emitter.point("gini", 1.0, 0.2)
        assert sink.series() == {"gini": {"x": [0.0, 1.0], "y": [0.1, 0.2]}}

    def test_marks_carry_fields(self):
        sink = MemorySink()
        emitter = MetricsEmitter(sinks=[sink])
        emitter.mark("sweep.start", shards=4)
        (mark,) = sink.marks()
        assert mark["name"] == "sweep.start"
        assert mark["fields"] == {"shards": 4}

    def test_add_sink_returns_sink(self):
        emitter = MetricsEmitter()
        sink = emitter.add_sink(MemorySink())
        emitter.counter("x")
        assert sink.counters() == {"x": 1.0}


class TestSpans:
    def test_nested_spans_record_depth_and_parent(self):
        sink = MemorySink()
        emitter = MetricsEmitter(sinks=[sink])
        with emitter.span("outer"):
            with emitter.span("inner"):
                pass
        inner, outer = sink.span_events()  # exit order: inner first
        assert (inner["name"], inner["depth"], inner["parent"]) == ("inner", 1, "outer")
        assert (outer["name"], outer["depth"], outer["parent"]) == ("outer", 0, None)
        assert 0.0 <= inner["duration"] <= outer["duration"]

    def test_timing_uses_current_stack(self):
        sink = MemorySink()
        emitter = MetricsEmitter(sinks=[sink])
        with emitter.span("outer"):
            emitter.timing("manual", 0.125)
        manual = sink.span_events()[0]
        assert (manual["name"], manual["depth"], manual["parent"]) == ("manual", 1, "outer")
        assert manual["duration"] == 0.125
        assert sink.spans()["manual"] == {
            "count": 1.0, "total": 0.125, "max": 0.125, "mean": 0.125,
        }


class TestDisabledNoop:
    def test_disabled_emitter_emits_nothing_even_with_sinks(self):
        sink = MemorySink()
        emitter = MetricsEmitter(sinks=[sink], enabled=False)
        emitter.counter("a")
        emitter.gauge("b", 1.0)
        emitter.point("c", 0.0, 0.0)
        emitter.mark("d")
        emitter.timing("e", 1.0)
        with emitter.span("f"):
            pass
        assert sink.events == []

    def test_disabled_span_is_the_shared_noop(self):
        assert DISABLED.span("a") is DISABLED.span("b")

    def test_default_active_emitter_is_disabled(self):
        assert get_emitter() is DISABLED
        assert not get_emitter().enabled

    def test_use_emitter_scopes_installation(self):
        emitter = MetricsEmitter(sinks=[MemorySink()])
        with use_emitter(emitter):
            assert get_emitter() is emitter
        assert get_emitter() is DISABLED


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        memory = MemorySink()
        with JSONLSink(path) as jsonl:
            emitter = MetricsEmitter(sinks=[memory, jsonl])
            emitter.counter("hits", 2)
            emitter.gauge("rate", 3.5)
            emitter.point("gini", 1.0, 0.25)
            emitter.mark("start", jobs=1)
            with emitter.span("work"):
                pass
        assert JSONLSink.read(path) == memory.events

    def test_callback_sink_forwards_every_event(self):
        seen = []
        emitter = MetricsEmitter(sinks=[CallbackSink(seen.append)])
        emitter.counter("x")
        emitter.mark("y")
        assert [event["type"] for event in seen] == ["counter", "mark"]


class TestSimulatorTelemetry:
    def test_market_run_is_byte_identical_under_telemetry(self):
        plain = CreditMarketSimulator(_market_config())
        plain.advance_rounds(40)

        sink = MemorySink()
        observed = CreditMarketSimulator(_market_config())
        with use_emitter(MetricsEmitter(sinks=[sink])):
            observed.advance_rounds(40)

        assert observed._balance.tobytes() == plain._balance.tobytes()
        assert observed.recorder.gini_series.y == plain.recorder.gini_series.y
        # The sink's live series mirror the recorder exactly.
        series = sink.series()
        assert series["market.gini"]["x"] == observed.recorder.gini_series.x
        assert series["market.gini"]["y"] == observed.recorder.gini_series.y
        assert series["market.population"]["y"] == observed.recorder.population_series.y
        assert sink.gauges()["market.steps_per_second"] > 0.0
        kernel = sink.spans()["market.kernel.vectorized"]
        assert 1 <= kernel["count"] <= 40

    def test_streaming_run_is_byte_identical_under_telemetry(self):
        plain = StreamingMarketSimulator(_streaming_config())
        plain.advance_rounds(30)

        sink = MemorySink()
        observed = StreamingMarketSimulator(_streaming_config())
        with use_emitter(MetricsEmitter(sinks=[sink])):
            observed.advance_rounds(30)

        assert observed._balance.tobytes() == plain._balance.tobytes()
        assert observed.chunks_delivered == plain.chunks_delivered
        assert observed.recorder.gini_series.y == plain.recorder.gini_series.y
        series = sink.series()
        assert series["streaming.gini"]["x"] == observed.recorder.gini_series.x
        assert series["streaming.gini"]["y"] == observed.recorder.gini_series.y
        assert sink.gauges()["streaming.ticks_per_second"] > 0.0
        assert sink.spans()["streaming.tick"]["count"] == 30

    def test_streaming_kernel_span_nests_inside_tick_span(self):
        sink = MemorySink()
        simulator = StreamingMarketSimulator(_streaming_config(ticks=10))
        with use_emitter(MetricsEmitter(sinks=[sink])):
            simulator.advance_rounds(10)
        kernel_events = [
            e for e in sink.span_events() if e["name"] == "streaming.kernel.vectorized"
        ]
        tick_events = [e for e in sink.span_events() if e["name"] == "streaming.tick"]
        assert len(kernel_events) == len(tick_events) == 10
        for kernel, tick in zip(kernel_events, tick_events):
            assert (kernel["depth"], kernel["parent"]) == (1, "streaming.tick")
            assert (tick["depth"], tick["parent"]) == (0, None)
            assert 0.0 <= kernel["duration"] <= tick["duration"]


    @pytest.mark.parametrize(
        "simulator_cls, make_config, prefix",
        [
            (CreditMarketSimulator, _market_config, "market"),
            (StreamingMarketSimulator, _streaming_config, "streaming"),
        ],
        ids=["market", "streaming"],
    )
    def test_pickled_run_reports_to_the_emitter_where_it_resumes(
        self, simulator_cls, make_config, prefix, tmp_path
    ):
        plain = simulator_cls(make_config())
        plain.advance_rounds(30)

        before, after = MemorySink(), MemorySink()
        simulator = simulator_cls(make_config())
        with JSONLSink(tmp_path / "events.jsonl") as handle_sink:
            with use_emitter(MetricsEmitter(sinks=[handle_sink, before])):
                simulator.advance_rounds(15)
                # The open JSONL handle is only reachable through the
                # active emitter, never from the simulator.
                resumed = pickle.loads(pickle.dumps(simulator))
        with use_emitter(MetricsEmitter(sinks=[after])):
            resumed.advance_rounds(15)

        assert resumed._balance.tobytes() == plain._balance.tobytes()
        gini = prefix + ".gini"
        assert before.series()[gini]["x"] + after.series()[gini]["x"] == (
            resumed.recorder.gini_series.x
        )
        assert resumed.recorder.gini_series.y == plain.recorder.gini_series.y


class TestRunnerTelemetry:
    SPEC = SweepSpec(
        "fig7",
        grid=ParamGrid({"average_wealth": [8]}),
        replications=1,
        base_seed=3,
        scale="smoke",
    )

    def test_sweep_emits_lifecycle_cache_and_simulator_events(self, tmp_path):
        cold_sink = MemorySink()
        with use_emitter(MetricsEmitter(sinks=[cold_sink])):
            run_sweep(self.SPEC, jobs=1, cache=ArtifactCache(tmp_path))
        counters = cold_sink.counters()
        assert counters["runner.shard.executed"] == 1.0
        assert counters["cache.miss"] == 1.0
        assert counters["cache.store"] == 1.0
        assert "cache.hit" not in counters
        mark_names = [mark["name"] for mark in cold_sink.marks()]
        assert mark_names[0] == "runner.sweep.start"
        assert cold_sink.marks()[0]["fields"] == {
            "experiment_id": "fig7", "shards": 1, "jobs": 1
        }
        assert "runner.shard.committed" in mark_names
        assert mark_names[-1] == "runner.sweep.done"
        assert cold_sink.gauges()["runner.sweep.duration"] > 0.0
        # jobs=1 executes the shard in-process: simulator series stream too.
        assert len(cold_sink.series()["market.gini"]["x"]) > 0

        warm_sink = MemorySink()
        with use_emitter(MetricsEmitter(sinks=[warm_sink])):
            run_sweep(self.SPEC, jobs=1, cache=ArtifactCache(tmp_path))
        warm = warm_sink.counters()
        assert warm["cache.hit"] == 1.0
        assert warm["runner.shard.cached"] == 1.0
        assert "runner.shard.executed" not in warm


class TestRecorderNdarrayInput:
    def test_ndarray_samples_are_never_iterated(self):
        # Regression guard: `record` used to round-trip every sample
        # through list(), iterating the array element-by-element on the
        # simulators' hot sampling path.
        class NoIterArray(np.ndarray):
            def __iter__(self):
                raise AssertionError("record() iterated the wealth array")

        from repro.p2psim import WealthRecorder

        sample = np.array([1.0, 2.0, 3.0]).view(NoIterArray)
        recorder = WealthRecorder()
        recorder.record(0.0, sample)
        assert recorder.gini_series.x == [0.0]
        assert recorder.mean_wealth_series.y[0] == 2.0

    def test_list_and_ndarray_samples_record_identically(self):
        from repro.p2psim import WealthRecorder

        values = [3.0, 1.0, 0.0, 4.0]
        from_list = WealthRecorder()
        from_list.record(1.0, values)
        from_array = WealthRecorder()
        from_array.record(1.0, np.array(values))
        assert from_list.gini_series.y == from_array.gini_series.y
        assert from_list.bankrupt_series.y == from_array.bankrupt_series.y
        assert from_list.mean_wealth_series.y == from_array.mean_wealth_series.y


class TestBenchHistory:
    def test_default_root_is_the_source_checkout(self):
        from repro.obs.bench import default_bench_root

        assert (default_bench_root() / "src" / "repro" / "__init__.py").is_file()

    def test_unreadable_recordings_get_an_error_placeholder(self, tmp_path):
        from repro.obs.bench import load_bench_history

        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (tmp_path / "BENCH_plain.json").write_text(json.dumps({"wall_s": 1.5}))
        (tmp_path / "other.json").write_text("{}")
        history = load_bench_history(tmp_path)
        assert history["root"] == str(tmp_path)
        assert history["files"] == ["BENCH_bad.json", "BENCH_plain.json"]
        assert history["benchmarks"]["BENCH_bad.json"]["error"].startswith("JSONDecodeError")
        assert history["benchmarks"]["BENCH_plain.json"] == {"wall_s": 1.5}
        assert history["kernels"] == {}

    def test_kernel_rows_keep_only_population_and_rates(self, tmp_path):
        from repro.obs.bench import load_bench_history

        record = {
            "profile": "smoke",
            "populations": [
                {"num_peers": 10, "steps_per_second": 4.0, "speedup": 2.0, "wall_s": 9.0},
                "not a population",
                {"wall_s": 1.0},
            ],
        }
        (tmp_path / "BENCH_kernel.json").write_text(json.dumps(record))
        kernels = load_bench_history(tmp_path)["kernels"]
        assert kernels == {
            "BENCH_kernel.json": {
                "profile": "smoke",
                "rows": [{"num_peers": 10, "steps_per_second": 4.0, "speedup": 2.0}],
            }
        }
