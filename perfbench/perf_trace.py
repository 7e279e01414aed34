"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions and methods of the ``repro``
package with wrappers that record one span per call, at every place the
program looks them up, and restores the originals when the traced pass
ends.  Spans stay in memory as ``[name, start, end, parent]`` lists and
are written out once, when the run ends.  Nothing under ``src/`` is
changed: this is the benchmark watching the program's layer boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "span_totals"]


class Tracer:
    """Records nested spans around wrapped calls of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around the body of a ``with`` block."""
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """Return ``function`` wrapped so that every call records a span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------ patching

    def _replace(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def patch_function(self, name: str, function: Callable) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds it.

        Modules import functions by name (``from x import f``), so the
        wrapper has to replace every such binding, not only the defining
        module's attribute.
        """
        wrapper = self.wrap(name, function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._replace(module, attribute, wrapper)

    def patch_method(self, name: str, base: type, method: str) -> None:
        """Wrap ``method`` on ``base`` and on every subclass that overrides it."""
        classes = [base]
        seen = set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            if method in vars(cls):
                self._replace(cls, method, self.wrap(name, vars(cls)[method]))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ output

    def write(self, path: Path, **header: object) -> None:
        """Write the spans, with ``header`` fields, as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        document = dict(header)
        document["fields"] = ["name", "start_s", "end_s", "parent", "workload"]
        document["spans"] = [
            [name, start - origin, end - origin, parent, self.workload]
            for name, start, end, parent in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def span_totals(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children (calls are single-threaded, so children never overlap).
    Total time counts only the outermost span of a name, so a function
    that reaches itself again through another wrapped call is not counted
    twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
    return totals
