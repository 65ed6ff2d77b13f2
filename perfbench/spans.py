"""Outside-in span tracing for the benchmark's traced run.

The tracer wraps public entry points of the program *at their import
sites* (the module attribute or class attribute the caller looks up at
call time), so the program itself carries no instrumentation and the
untraced runs install nothing.  Each wrapper records one span (name,
start, end, parent, thread) and may fold counters from the call's result.
Spans stay in memory and are written out once, when the run ends.

A layer's self time is its span duration minus the part covered by its
child spans in the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    thread: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """The untraced runs' tracer: installs nothing, records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None

    def count(self, name: str, value: float = 1) -> None:
        pass

    def activate(self) -> None:
        pass

    def deactivate(self) -> None:
        pass


class Tracer:
    """Records spans and counters from wrappers installed by :meth:`wrap`."""

    def __init__(self, installer) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._installer = installer
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].span_id if stack else None,
            name,
            threading.current_thread().name,
            time.perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- installation --------------------------------------------------
    def activate(self) -> None:
        """Install every wrapper (called once the workload's setup is done)."""
        self._installer(self)

    def deactivate(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def wrap(self, owner, attr: str, name: str, after=None, before=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call and its return value
        reaches ``after(result, args, kwargs, state)``, which runs once the
        call returns; both run outside the span and fold counters.  A
        target the program no longer has is recorded in :attr:`missing`
        instead of failing, so the layer reads as zero.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs, state)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> self time (duration minus same-thread children)."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {s.span_id: s.duration - covered[s.span_id] for s in self.spans}

    def roots_of(self) -> dict[int, Span]:
        """Span id -> the outermost span of its same-thread stack."""
        by_id = {s.span_id: s for s in self.spans}
        roots: dict[int, Span] = {}
        for span in self.spans:
            node = span
            while node.parent is not None and node.parent in by_id:
                node = by_id[node.parent]
            roots[span.span_id] = node
        return roots

    def layer_self(self, root_filter=None) -> dict[str, float]:
        """Σ self time per span name, optionally only under matching roots."""
        selfs = self.self_times()
        roots = self.roots_of()
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if root_filter is None or root_filter(roots[span.span_id]):
                totals[span.name] += selfs[span.span_id]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        rows = [
            {
                "id": s.span_id,
                "parent": s.parent,
                "name": s.name,
                "thread": s.thread,
                "start": round(s.start, 6),
                "end": round(s.end, 6),
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.write_text(
            json.dumps(
                {"spans": rows, "counters": dict(self.counters)}, indent=1
            )
            + "\n"
        )
