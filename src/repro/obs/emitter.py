"""Zero-dependency telemetry core: emitter, timing spans, active-emitter context.

A :class:`MetricsEmitter` turns instrumentation points scattered through
the simulators and the runner into a flat stream of *events* — plain JSON
dicts — fanned out to pluggable sinks (:mod:`repro.obs.sinks`).  Five
event shapes cover everything the stack emits:

``counter``
    Monotonic occurrence counts (cache hits, shards executed).
``gauge``
    Last-value-wins measurements (steps per second of one
    ``advance_rounds`` call).
``point``
    One sample of a named time series — ``x`` is *simulation* time, so a
    run's Gini/population trajectory can be charted live while it runs.
``span``
    A timed region with nesting info (``depth``/``parent`` reflect the
    emitter's span stack at exit), produced by ``with emitter.span(...)``
    or, for regions timed manually, :meth:`MetricsEmitter.timing`.
``mark``
    A point-in-time lifecycle annotation with free-form fields (shard
    committed, sweep started).

Strictly observational by design
--------------------------------
Telemetry must never perturb a run: events carry wall-clock timestamps
and never touch the simulators' RNG streams, and the **disabled** emitter
is a no-op — every method checks ``self.enabled`` first and returns
without allocating (``span()`` hands back a shared no-op context
manager).  Instrumented code therefore runs byte-identical to
uninstrumented code, and the hot paths stay at full speed when nobody is
listening (the CI bench gate enforces both properties).

The *active* emitter lives in a :class:`contextvars.ContextVar`, so each
thread observes its own installation — the ``repro serve`` daemon runs
every sweep job in its own thread with its own emitter + in-memory sink,
and concurrent jobs never see each other's metrics.  Simulators fetch the
active emitter via :func:`get_emitter` at run time instead of storing it
on ``self``: a pickled simulator carries no sink handles, and an unpickled
one reports to whatever emitter is active where it resumes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["MetricsEmitter", "DISABLED", "get_emitter", "use_emitter"]


class _NoopSpan:
    """Shared do-nothing context manager returned by disabled ``span()`` calls."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live timing span; emits one ``span`` event when the block exits."""

    __slots__ = ("_emitter", "name", "_start")

    def __init__(self, emitter: "MetricsEmitter", name: str) -> None:
        self._emitter = emitter
        self.name = name

    def __enter__(self) -> "_Span":
        self._emitter._stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        duration = time.perf_counter() - self._start
        stack = self._emitter._stack
        stack.pop()
        self._emitter._emit(
            {
                "type": "span",
                "name": self.name,
                "duration": duration,
                "depth": len(stack),
                "parent": stack[-1] if stack else None,
                "ts": time.time(),
            }
        )
        return False


class MetricsEmitter:
    """Fans instrumentation events out to a list of sinks.

    Parameters
    ----------
    sinks:
        Initial sink list; anything with an ``emit(event: dict)`` method
        qualifies (see :mod:`repro.obs.sinks`).
    enabled:
        ``False`` builds a permanently disabled emitter whose every
        method is a guard-and-return no-op (the module-level
        :data:`DISABLED` singleton is the default active emitter).
    """

    __slots__ = ("enabled", "_sinks", "_stack")

    def __init__(self, sinks: Iterable[object] = (), enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._sinks: List[object] = list(sinks)
        self._stack: List[str] = []

    def add_sink(self, sink: object) -> object:
        """Attach ``sink`` and return it (for inline construction)."""
        self._sinks.append(sink)
        return sink

    def _emit(self, event: Dict[str, object]) -> None:
        for sink in self._sinks:
            sink.emit(event)

    # ------------------------------------------------------------------ event kinds

    def counter(self, name: str, value: float = 1.0) -> None:
        """Count ``value`` occurrences of ``name``."""
        if not self.enabled:
            return
        self._emit(
            {"type": "counter", "name": name, "value": float(value), "ts": time.time()}
        )

    def gauge(self, name: str, value: float) -> None:
        """Record the current value of measurement ``name``."""
        if not self.enabled:
            return
        self._emit(
            {"type": "gauge", "name": name, "value": float(value), "ts": time.time()}
        )

    def point(self, name: str, x: float, y: float) -> None:
        """Append one ``(x, y)`` sample to time series ``name``."""
        if not self.enabled:
            return
        self._emit(
            {
                "type": "point",
                "name": name,
                "x": float(x),
                "y": float(y),
                "ts": time.time(),
            }
        )

    def mark(self, name: str, **fields: object) -> None:
        """Record a point-in-time lifecycle event with free-form ``fields``."""
        if not self.enabled:
            return
        event: Dict[str, object] = {"type": "mark", "name": name, "ts": time.time()}
        if fields:
            event["fields"] = fields
        self._emit(event)

    def span(self, name: str) -> object:
        """Context manager timing a region; spans nest via the emitter's stack."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name)

    def timing(self, name: str, duration: float) -> None:
        """Emit a pre-measured duration as a ``span`` event.

        For regions whose start/end do not bracket cleanly into a ``with``
        block (e.g. a kernel call timed only while someone observes).
        The event carries the emitter's *current* span stack as its
        nesting context.
        """
        if not self.enabled:
            return
        stack = self._stack
        self._emit(
            {
                "type": "span",
                "name": name,
                "duration": float(duration),
                "depth": len(stack),
                "parent": stack[-1] if stack else None,
                "ts": time.time(),
            }
        )


#: The default active emitter: permanently disabled, sink-less, shared.
DISABLED = MetricsEmitter(enabled=False)

_ACTIVE: ContextVar[Optional[MetricsEmitter]] = ContextVar(
    "repro-obs-emitter", default=None
)


def get_emitter() -> MetricsEmitter:
    """The active emitter of the current thread/context (:data:`DISABLED` if none).

    Hot loops should fetch this once per batch and branch on
    ``emitter.enabled`` so the disabled path stays allocation-free.
    """
    active = _ACTIVE.get()
    return active if active is not None else DISABLED


@contextmanager
def use_emitter(emitter: MetricsEmitter) -> Iterator[MetricsEmitter]:
    """Install ``emitter`` as the active emitter for the enclosed block.

    Installation is scoped to the current thread's context, so concurrent
    jobs (e.g. ``repro serve`` worker threads) each observe only their
    own emitter.
    """
    token = _ACTIVE.set(emitter)
    try:
        yield emitter
    finally:
        _ACTIVE.reset(token)
