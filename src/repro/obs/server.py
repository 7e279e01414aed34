"""``repro serve`` — a resident sweep daemon with live per-run metrics.

A stdlib-only (:mod:`http.server`) JSON API around the existing runner
stack: clients POST sweep jobs, the daemon schedules each job onto
:func:`repro.runner.run_sweep` in its own worker thread with its own
:class:`~repro.obs.emitter.MetricsEmitter` + :class:`~repro.obs.sinks.\
MemorySink`, and the per-round series the simulators emit (Gini,
bankrupt fraction, population, steps/s) stream back over HTTP while the
job runs.  Because telemetry is strictly observational and jobs execute
through the ordinary executor + artifact cache, a sweep submitted over
HTTP produces byte-identical artifacts — same cache keys, same result
bytes — as the same sweep run through ``repro sweep``.

Endpoints
---------
``GET  /healthz``
    Liveness probe: ``{"status": "ok", "runs": <count>}``.
``GET  /runs``
    Every submitted job, newest last, with status and timings.
``POST /runs``
    Submit a job.  Body: ``{"target": "fig7", "params": {"average_wealth":
    [8, 16]}, "scale": "smoke", "reps": 1, "seed": 0, "jobs": 1}`` —
    ``target`` is a sweepable experiment id or a named scenario bundle;
    everything else is optional.  Invalid values and unknown keys are
    rejected with ``400`` at submission.  Returns ``201`` with the job
    description (including its ``id``).
``GET  /runs/<id>``
    One job's description: status (``pending/running/done/failed``),
    spec summary, executed/cached shard counts, error text on failure.
``GET  /runs/<id>/metrics``
    Live metrics snapshot: counters, gauges, per-round series
    (``{"name": {"x": [...], "y": [...]}}``), span summaries, marks.
``GET  /runs/<id>/result``
    The finished job's shard payloads (the exact JSON artifacts the
    cache stores), ``409`` while the job is still running.
``GET  /bench``
    The committed ``BENCH_*.json`` perf-trajectory view
    (:func:`repro.obs.bench.load_bench_history`).
``POST /shutdown``
    Stop the daemon (it is a local, trusted-network tool; bind it to
    loopback, which is the default).

Per-round simulator series stream only for shards that execute *in
process* (``jobs=1``, the daemon default): a process-pool worker's
emitter is the disabled default.  Shard lifecycle counters and cache
statistics are always emitted from the scheduling thread.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.obs.bench import load_bench_history
from repro.obs.emitter import MetricsEmitter, use_emitter
from repro.obs.sinks import MemorySink

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runner.grid import SweepSpec

__all__ = ["SweepJob", "SweepService", "ReproServer", "spec_from_request", "serve"]

#: Keys a ``POST /runs`` body may carry; any other key is a 400.
REQUEST_KEYS = frozenset(
    {"target", "params", "scale", "reps", "seed", "jobs", "cache_dir"}
)


def spec_from_request(payload: Mapping[str, object]) -> "SweepSpec":
    """Build a validated :class:`~repro.runner.grid.SweepSpec` from a job request.

    ``params`` maps axis names to value lists (scalars are wrapped), the
    rest mirrors the CLI's sweep options.  Raises ``KeyError``/
    ``ValueError`` for missing targets, unknown experiments or axes —
    surfaced to the client as a 400.
    """
    from repro.runner.grid import ParamGrid, build_spec

    if "target" not in payload or not str(payload["target"]).strip():
        raise ValueError("job request must name a 'target' experiment or scenario")
    params = payload.get("params") or {}
    if not isinstance(params, Mapping):
        raise ValueError("'params' must map axis names to value lists")
    grid = None
    if params:
        grid = ParamGrid(
            {
                str(name): list(values) if isinstance(values, (list, tuple)) else [values]
                for name, values in params.items()
            }
        )
    scale = payload.get("scale")
    return build_spec(
        str(payload["target"]),
        grid=grid,
        replications=int(payload.get("reps", 1)),  # type: ignore[arg-type]
        base_seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
        scale=str(scale) if scale is not None else None,
    )


class SweepJob:
    """One submitted sweep job: spec, scheduling knobs, live metrics, result."""

    def __init__(
        self,
        job_id: str,
        spec: "SweepSpec",
        jobs: int,
        cache_dir: Optional[str],
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.status = "pending"
        self.error: Optional[str] = None
        self.submitted = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.sink = MemorySink()
        self.summary: Optional[Dict[str, object]] = None
        self.payloads: Optional[List[Dict[str, object]]] = None

    def describe(self) -> Dict[str, object]:
        """JSON-safe description for ``/runs`` and ``/runs/<id>``."""
        description: Dict[str, object] = {
            "id": self.id,
            "spec": self.spec.describe(),
            "experiment_id": self.spec.experiment_id,
            "status": self.status,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
        }
        if self.error is not None:
            description["error"] = self.error
        if self.summary is not None:
            description["summary"] = self.summary
        return description


class SweepService:
    """Schedules submitted jobs onto the runner, one worker thread per job."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        default_jobs: int = 1,
    ) -> None:
        self.cache_dir = cache_dir
        self.default_jobs = default_jobs
        self._jobs: Dict[str, SweepJob] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._threads: Dict[str, threading.Thread] = {}

    def submit(self, payload: Mapping[str, object]) -> SweepJob:
        """Validate a job request, register it and start its worker thread."""
        unknown = sorted(set(payload) - REQUEST_KEYS)
        if unknown:
            raise ValueError(f"unknown job request keys: {', '.join(unknown)}")
        spec = spec_from_request(payload)
        jobs = int(payload.get("jobs", self.default_jobs))  # type: ignore[arg-type]
        cache_dir = payload.get("cache_dir", self.cache_dir)
        with self._lock:
            job = SweepJob(
                f"run-{next(self._ids):04d}",
                spec,
                jobs=jobs,
                cache_dir=str(cache_dir) if cache_dir else None,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            thread = threading.Thread(
                target=self._execute, args=(job,), name=f"repro-serve-{job.id}", daemon=True
            )
            self._threads[job.id] = thread
        thread.start()
        return job

    def get(self, job_id: str) -> Optional[SweepJob]:
        """The job registered under ``job_id`` (``None`` if unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Dict[str, object]]:
        """Descriptions of every job, in submission order."""
        with self._lock:
            return [self._jobs[job_id].describe() for job_id in self._order]

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for every worker thread to finish (tests and clean shutdown)."""
        with self._lock:
            threads = list(self._threads.values())
        for thread in threads:
            thread.join(timeout)

    def _execute(self, job: SweepJob) -> None:
        from repro.runner import ArtifactCache, run_sweep

        job.status = "running"
        job.started = time.time()
        emitter = MetricsEmitter(sinks=[job.sink])
        try:
            cache = ArtifactCache(job.cache_dir) if job.cache_dir else None
            with use_emitter(emitter):
                report = run_sweep(
                    job.spec,  # type: ignore[arg-type]
                    jobs=job.jobs,
                    cache=cache,
                )
            job.payloads = [shard.payload for shard in report.shards]
            job.summary = {
                "describe": report.describe(),
                "summary_line": report.summary_line(),
                "shards": len(report.shards),
                "executed": report.executed,
                "cached": report.cached,
                "duration": report.duration,
                "cache_stats": report.cache_stats,
            }
            job.status = "done"
        except BaseException as error:  # noqa: BLE001 - reported over HTTP
            job.error = f"{type(error).__name__}: {error}"
            job.status = "failed"
        finally:
            job.finished = time.time()


_RUN_PATH = re.compile(r"^/runs/(?P<job_id>[^/]+)(?P<tail>/metrics|/result)?$")


class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON API; the owning :class:`ReproServer` holds the state."""

    server: "ReproServer"
    protocol_version = "HTTP/1.1"

    # Silence the default per-request stderr lines; the daemon is the UI.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _send_json(self, payload: object, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------ GET routes

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path != "/" and path.endswith("/"):
            path = path.rstrip("/")
        if path == "/healthz":
            self._send_json(
                {"status": "ok", "runs": len(self.server.service.list())}
            )
            return
        if path == "/runs":
            self._send_json({"runs": self.server.service.list()})
            return
        if path == "/bench":
            self._send_json(load_bench_history(self.server.bench_root))
            return
        match = _RUN_PATH.match(path)
        if match:
            job = self.server.service.get(match.group("job_id"))
            if job is None:
                self._error(404, f"unknown run {match.group('job_id')!r}")
                return
            tail = match.group("tail")
            if tail == "/metrics":
                self._send_json({"id": job.id, "status": job.status, **job.sink.snapshot()})
            elif tail == "/result":
                if job.payloads is None:
                    self._error(409, f"run {job.id} is {job.status}; no result yet")
                else:
                    self._send_json({"id": job.id, "shards": job.payloads})
            else:
                self._send_json(job.describe())
            return
        self._error(404, f"unknown path {path!r}")

    # ------------------------------------------------------------------ POST routes

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/runs":
            try:
                payload = self._read_body()
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                self._error(400, f"request body is not valid JSON: {error}")
                return
            if not isinstance(payload, Mapping):
                self._error(400, "request body must be a JSON object")
                return
            try:
                job = self.server.service.submit(payload)
            except (KeyError, ValueError, TypeError) as error:
                message = error.args[0] if error.args else str(error)
                self._error(400, str(message))
                return
            self._send_json(job.describe(), status=201)
            return
        if path == "/shutdown":
            self._send_json({"status": "shutting down"})
            # shutdown() blocks until serve_forever returns; do it from a
            # helper thread so this handler can finish its response first.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        self._error(404, f"unknown path {path!r}")


class ReproServer(ThreadingHTTPServer):
    """The resident sweep daemon: ThreadingHTTPServer + job service + bench view.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`);
    the default host is loopback — the API is unauthenticated by design
    and must not be exposed beyond the local machine.
    """

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        cache_dir: Optional[str] = None,
        jobs: int = 1,
        bench_root: Optional[str] = None,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = SweepService(cache_dir=cache_dir, default_jobs=jobs)
        self.bench_root = Path(bench_root) if bench_root else None

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` ephemeral binds)."""
        return int(self.server_address[1])


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
    bench_root: Optional[str] = None,
) -> int:
    """Run the daemon until interrupted or shut down over HTTP (CLI entry)."""
    server = ReproServer(
        host=host,
        port=port,
        cache_dir=cache_dir,
        jobs=jobs,
        bench_root=bench_root,
    )
    print(f"repro serve listening on http://{host}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
