"""Tests for the ``repro serve`` sweep daemon (``repro.obs.server``).

The end-to-end test pins the daemon's headline contract: a sweep
submitted over HTTP runs through the same executor + artifact cache as
``repro sweep`` and therefore produces **byte-identical** cache
artifacts — same keys, same bytes — while its per-round telemetry
streams from the ``/runs/<id>/metrics`` endpoint.
"""

import http.client
import json
import threading
import time

import pytest

from repro.cli import main
from repro.obs.server import ReproServer, SweepJob, SweepService, spec_from_request

SWEEP_REQUEST = {
    "target": "fig7",
    "params": {"average_wealth": [8]},
    "scale": "smoke",
    "seed": 3,
}


def _request(server, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _poll_until_done(server, job_id, deadline=120.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, job = _request(server, "GET", f"/runs/{job_id}")
        assert status == 200
        if job["status"] == "failed":
            raise AssertionError(f"daemon job failed: {job.get('error')}")
        if job["status"] == "done":
            return job
        time.sleep(0.05)
    raise AssertionError(f"daemon job {job_id} did not finish within {deadline}s")


def _cache_files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def server(tmp_path):
    instance = ReproServer(port=0, cache_dir=str(tmp_path / "daemon-cache"))
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


class TestSpecFromRequest:
    def test_scalar_params_are_wrapped(self):
        spec = spec_from_request({"target": "fig7", "params": {"average_wealth": 8}})
        assert spec.grid.axes["average_wealth"] == [8]

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError):
            spec_from_request({"params": {"average_wealth": [8]}})


class TestSubmissionValidation:
    """Bad requests fail in ``submit`` and never register a job."""

    @staticmethod
    def _rejected(payload, exception, match):
        service = SweepService()
        with pytest.raises(exception, match=match):
            service.submit(payload)
        assert service.list() == []

    def test_non_numeric_jobs(self):
        self._rejected({"target": "fig7", "jobs": "two"}, ValueError, "two")

    # Removed sharding and round-block knobs and misspellings are named,
    # not ignored.
    @pytest.mark.parametrize(
        "key", ["shards", "partitioner", "shard_backend", "intra_jobs", "intra-jobs"]
    )
    def test_unknown_keys(self, key):
        self._rejected({"target": "fig7", key: 2}, ValueError, f"unknown job request keys: {key}")

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "target"),
            ({"target": "  "}, "target"),
            ({"target": "fig7", "params": [8]}, "params"),
            ({"target": "fig99"}, "fig99"),
            ({"target": "fig7", "params": {"bogus": [1]}}, "bogus"),
            ({"target": "fig7", "params": {"kernel": ["loop"]}}, "kernel"),
            ({"target": "fig7", "params": {"dtype": ["float32"]}}, "dtype"),
        ],
        ids=[
            "missing-target", "blank-target", "params-not-mapping", "unknown-target",
            "unknown-axis", "kernel-axis", "dtype-axis",
        ],
    )
    def test_invalid_specs(self, payload, match):
        self._rejected(payload, (KeyError, ValueError), match)


class TestRoutes:
    def test_healthz(self, server):
        status, payload = _request(server, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "runs": 0}

    def test_unknown_path_404(self, server):
        status, payload = _request(server, "GET", "/nope")
        assert status == 404
        assert "unknown path" in payload["error"]

    def test_unknown_run_404(self, server):
        status, payload = _request(server, "GET", "/runs/run-9999")
        assert status == 404
        assert "run-9999" in payload["error"]

    def test_invalid_target_400(self, server):
        status, payload = _request(server, "POST", "/runs", {"target": "fig99"})
        assert status == 400
        assert "fig99" in payload["error"]

    @pytest.mark.parametrize("key", ["shards", "intra_jobs"])
    def test_unknown_key_400_registers_no_job(self, server, key):
        status, payload = _request(server, "POST", "/runs", {"target": "fig7", key: 2})
        assert status == 400
        assert payload["error"] == f"unknown job request keys: {key}"
        assert server.service.list() == []

    def test_kernel_axis_400_registers_no_job(self, server):
        # Jobs always run the vectorized kernel; it is not a sweep axis.
        status, payload = _request(
            server, "POST", "/runs", {"target": "fig7", "params": {"kernel": ["loop"]}}
        )
        assert status == 400
        assert "unknown sweep parameter" in payload["error"]
        assert server.service.list() == []

    def test_dtype_axis_400_registers_no_job(self, server):
        # float64 state is the only representation; dtype is not a sweep axis.
        status, payload = _request(
            server, "POST", "/runs", {"target": "fig9", "params": {"dtype": ["float32"]}}
        )
        assert status == 400
        assert "unknown sweep parameter" in payload["error"]
        assert "dtype" in payload["error"]
        assert server.service.list() == []

    def test_malformed_body_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request("POST", "/runs", body=b"not json")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_result_409_while_not_finished(self, server):
        # Register a job that never ran: /runs/<id>/result must 409 until
        # the worker thread stores payloads.
        job = SweepJob("run-test", spec=None, jobs=1, cache_dir=None)
        server.service._jobs[job.id] = job
        server.service._order.append(job.id)
        status, payload = _request(server, "GET", "/runs/run-test/result")
        assert status == 409
        assert "no result yet" in payload["error"]

    def test_bench_view_reads_bench_root(self, server, tmp_path):
        bench_root = tmp_path / "bench"
        bench_root.mkdir()
        (bench_root / "BENCH_fake.json").write_text(
            json.dumps(
                {
                    "profile": "smoke",
                    "populations": [
                        {"num_peers": 10, "loop_steps_per_second": 1.0, "speedup": 2.0}
                    ],
                }
            )
        )
        server.bench_root = bench_root
        status, payload = _request(server, "GET", "/bench")
        assert status == 200
        assert payload["files"] == ["BENCH_fake.json"]
        assert payload["kernels"]["BENCH_fake.json"]["rows"] == [
            {"num_peers": 10, "loop_steps_per_second": 1.0, "speedup": 2.0}
        ]


class TestEndToEnd:
    def test_daemon_sweep_matches_cli_sweep_byte_for_byte(self, server, tmp_path):
        status, created = _request(server, "POST", "/runs", SWEEP_REQUEST)
        assert status == 201
        assert created["status"] in ("pending", "running", "done")
        job_id = created["id"]

        job = _poll_until_done(server, job_id)
        assert job["summary"]["executed"] == 1
        assert job["summary"]["cached"] == 0
        assert "1 shard executed" in job["summary"]["summary_line"]

        # Live telemetry streamed from the in-process shard.
        status, metrics = _request(server, "GET", f"/runs/{job_id}/metrics")
        assert status == 200
        assert metrics["counters"]["runner.shard.executed"] == 1
        assert len(metrics["series"]["market.gini"]["x"]) > 0
        assert metrics["gauges"]["market.steps_per_second"] > 0.0

        status, result = _request(server, "GET", f"/runs/{job_id}/result")
        assert status == 200
        assert len(result["shards"]) == 1

        status, listing = _request(server, "GET", "/runs")
        assert status == 200
        assert [entry["id"] for entry in listing["runs"]] == [job_id]

        # The same sweep through the CLI fills a second cache with the
        # exact same files: identical keys, identical bytes.
        cli_cache = tmp_path / "cli-cache"
        assert main(
            [
                "sweep", "fig7",
                "--param", "average_wealth=8",
                "--scale", "smoke", "--seed", "3",
                "--cache-dir", str(cli_cache),
            ]
        ) == 0
        daemon_files = _cache_files(tmp_path / "daemon-cache")
        cli_files = _cache_files(cli_cache)
        assert daemon_files
        assert daemon_files == cli_files

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        instance = ReproServer(port=0, cache_dir=str(tmp_path / "cache"))
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        try:
            status, payload = _request(instance, "POST", "/shutdown")
            assert status == 200
            assert payload == {"status": "shutting down"}
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            instance.shutdown()
            instance.server_close()
            thread.join(timeout=5)
