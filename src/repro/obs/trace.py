"""End-to-end request tracing: trace ids, spans, sampling, ring buffer.

PR 6 documented a long-family p99 tail regression that aggregate
histograms could not attribute: was the time queue wait, admission-wave
delay, decode width, or resolver hand-off?  This module answers that
question per request.  A :class:`Trace` is one request's timeline --
a stable id plus an append-only list of named, non-overlapping
:class:`Span` stages -- and a :class:`Tracer` owns the policy around it
(probabilistic sampling, force-sampling, the bounded
:class:`TraceBuffer` of completed traces that ``/debug/traces`` serves,
and the slow-trace structured-log emission).

Design constraints the implementation encodes:

- **Cross-thread spans.**  One ``/solve`` request's stages run on four
  threads (HTTP handler, decode worker, resolver, handler again), so a
  trace travels *by handle*: the HTTP layer stores it in a
  ``contextvars.ContextVar`` for the submitting thread
  (:func:`current_trace`), and the scheduler carries the handle
  alongside each queued item into its worker threads.  Span recording is
  lock-guarded and append-only, so concurrent recorders never lose or
  interleave spans (the hammer test in ``tests/test_obs.py`` pins this
  down).
- **Idempotent stage transitions.**  The continuous scheduler may pop
  the same queued request several times (admission-wave deferral
  re-queues it); :meth:`Trace.begin` returns the already-open span of
  that name and :meth:`Trace.end` is a no-op when the name is not open,
  so call sites mark transitions without tracking "did I already".
- **Monotonic timings.**  All durations are ``perf_counter`` deltas
  against the trace's origin; the wall-clock ``started_unix`` is
  display-only and never subtracted (the ``monotonic-time`` invariant).
- **Cheap when unsampled.**  An unsampled trace still has an id (the
  ``X-Repro-Trace`` response header echoes it) but records nothing and
  never reaches the buffer, so the default-on tracer costs a few
  attribute checks per request (``benchmarks/bench_service.py`` gates
  the overhead at >= 0.95x untraced throughput).
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import random
import threading
import time
from typing import Callable, Iterator

#: Request/response header carrying the trace id end-to-end.
TRACE_HEADER = "X-Repro-Trace"
#: Request header (value "1") forcing the sampling decision for one
#: request -- the knob that makes a single diagnostic request traceable
#: under a low ambient sample rate.
FORCE_HEADER = "X-Repro-Trace-Force"


def mint_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


class Span:
    """One named stage of a trace: offset, duration, attributes.

    ``start`` is seconds since the owning trace's origin (perf_counter
    based); ``duration`` is ``None`` while the span is open.  Attributes
    are small JSON-able annotations (batch width, token counts).
    """

    __slots__ = ("name", "start", "duration", "attrs")

    def __init__(self, name: str, start: float, attrs: dict):
        self.name = name
        self.start = start
        self.duration: float | None = None
        self.attrs = attrs

    def to_dict(self) -> dict:
        """The span as JSON-ready data (offsets/durations in ms)."""
        payload = {
            "name": self.name,
            "start_ms": round(self.start * 1000.0, 3),
            "duration_ms": round((self.duration or 0.0) * 1000.0, 3),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class Trace:
    """One request's timeline: an id plus ordered, named spans.

    Span recording is safe from any thread; the context-manager
    :meth:`span` is the common form, :meth:`begin`/:meth:`end` mark
    stage transitions that start on one thread and finish on another
    (queue wait begins in the HTTP handler, ends in the decode worker).
    """

    def __init__(self, trace_id: str | None = None, *, endpoint: str = "",
                 sampled: bool = True, forced: bool = False):
        self.trace_id = trace_id or mint_trace_id()
        self.endpoint = endpoint
        self.sampled = sampled
        self.forced = forced
        self.status: int | None = None
        self.started_unix = time.time()   # wall clock, display only
        self._origin = time.perf_counter()
        self.duration: float | None = None
        self._lock = threading.Lock()
        self._spans: list[Span] = []      # guarded by: self._lock
        self._open: dict[str, Span] = {}  # guarded by: self._lock
        self._attrs: dict = {}            # guarded by: self._lock

    # -- span recording ------------------------------------------------------

    def annotate(self, **attrs) -> None:
        """Attach trace-level attributes (request facts that belong to
        no single span: the deadline budget, the expiry stage)."""
        if not self.sampled or not attrs:
            return
        with self._lock:
            self._attrs.update(attrs)

    def begin(self, name: str, **attrs) -> None:
        """Open the named span (idempotent: re-begin keeps the open one).

        Idempotency is what makes re-entrant schedulers safe: a request
        re-queued by admission-wave deferral marks ``begin("admit")``
        once per classification pass but the first mark wins, so the
        span measures the *full* wave delay.
        """
        if not self.sampled:
            return
        now = time.perf_counter() - self._origin
        with self._lock:
            span = self._open.get(name)
            if span is None:
                span = Span(name, now, dict(attrs))
                self._open[name] = span
                self._spans.append(span)
            elif attrs:
                span.attrs.update(attrs)

    def end(self, name: str, **attrs) -> None:
        """Close the named span (no-op when it is not open)."""
        if not self.sampled:
            return
        now = time.perf_counter() - self._origin
        with self._lock:
            span = self._open.pop(name, None)
            if span is None:
                return
            span.duration = now - span.start
            if attrs:
                span.attrs.update(attrs)

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """``with trace.span("parse"):`` -- begin/end around a block."""
        self.begin(name, **attrs)
        try:
            yield
        finally:
            self.end(name)

    def is_open(self, name: str) -> bool:
        """Whether the named span is currently open."""
        if not self.sampled:
            return False
        with self._lock:
            return name in self._open

    # -- completion ----------------------------------------------------------

    def finish(self, status: int | None = None) -> None:
        """Seal the trace: close stray spans, fix the total duration."""
        now = time.perf_counter() - self._origin
        if status is not None:
            self.status = status
        with self._lock:
            for span in self._open.values():
                span.duration = now - span.start
            self._open.clear()
            self.duration = now

    def spans(self) -> list[Span]:
        """A snapshot of the recorded spans, in begin order."""
        with self._lock:
            return list(self._spans)

    def stage_seconds(self) -> dict[str, float]:
        """``{span name: duration seconds}`` for every closed span."""
        with self._lock:
            return {
                span.name: span.duration
                for span in self._spans if span.duration is not None
            }

    def to_dict(self) -> dict:
        """The JSON shape ``/debug/traces`` serves."""
        with self._lock:
            spans = [span.to_dict() for span in self._spans]
            duration = self.duration
            attrs = dict(self._attrs)
        payload = {
            "trace_id": self.trace_id,
            "endpoint": self.endpoint,
            "status": self.status,
            "forced": self.forced,
            "started_unix": round(self.started_unix, 6),
            "duration_ms": round((duration or 0.0) * 1000.0, 3),
            "spans": spans,
        }
        if attrs:
            payload["attrs"] = attrs
        return payload


#: The submitting thread's active trace; scheduler ``submit`` reads this
#: so handlers never thread a trace argument through their signatures.
_CURRENT: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def current_trace() -> Trace | None:
    """The trace bound to this thread/context, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_trace(trace: Trace | None) -> Iterator[None]:
    """Bind ``trace`` as the current trace for the block."""
    token = _CURRENT.set(trace)
    try:
        yield
    finally:
        _CURRENT.reset(token)


@contextlib.contextmanager
def trace_span(name: str, **attrs) -> Iterator[None]:
    """Span on the *current* trace; no-op when none is bound."""
    trace = _CURRENT.get()
    if trace is None:
        yield
        return
    with trace.span(name, **attrs):
        yield


class TraceBuffer:
    """Bounded ring of completed traces with an id index.

    Appends evict the oldest entry once ``capacity`` is reached, so a
    worker's memory for traces is fixed however long it serves.  All
    views return JSON-able dicts (the wire shape of ``/debug/traces``
    and the fleet peer protocol).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: list[Trace] = []     # guarded by: self._lock
        self._by_id: dict[str, Trace] = {}  # guarded by: self._lock

    def add(self, trace: Trace) -> None:
        """Buffer a completed trace, evicting the oldest when full."""
        with self._lock:
            if len(self._traces) >= self.capacity:
                evicted = self._traces.pop(0)
                self._by_id.pop(evicted.trace_id, None)
            self._traces.append(trace)
            self._by_id[trace.trace_id] = trace

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def get(self, trace_id: str) -> dict | None:
        """One buffered trace by id, or ``None`` if absent/evicted."""
        with self._lock:
            trace = self._by_id.get(trace_id)
        return trace.to_dict() if trace is not None else None

    def recent(self, limit: int) -> list[dict]:
        """Most recently completed first."""
        with self._lock:
            picked = self._traces[-max(limit, 0):]
        return [trace.to_dict() for trace in reversed(picked)]

    def slowest(self, limit: int) -> list[dict]:
        """Longest total duration first."""
        with self._lock:
            ranked = sorted(self._traces,
                            key=lambda t: t.duration or 0.0, reverse=True)
        return [trace.to_dict() for trace in ranked[:max(limit, 0)]]

    def dump(self) -> list[dict]:
        """Every buffered trace, oldest first (the fleet peer payload)."""
        with self._lock:
            traces = list(self._traces)
        return [trace.to_dict() for trace in traces]


class Tracer:
    """Sampling policy + completed-trace sink for one worker.

    ``sample_rate`` is the probability an un-forced request is traced
    (1.0 = every request, 0.0 = only forced ones).  ``slow_seconds``
    (0 disables) is the structured-log threshold: any completed sampled
    trace at least that slow is handed to ``on_slow``.  ``on_finish``
    receives every completed sampled trace (the service folds span
    durations into ``/metrics`` there).
    """

    def __init__(
        self,
        *,
        sample_rate: float = 1.0,
        buffer_size: int = 256,
        slow_seconds: float = 0.0,
        on_finish: Callable[[Trace], None] | None = None,
        on_slow: Callable[[Trace], None] | None = None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if slow_seconds < 0:
            raise ValueError("slow_seconds must be non-negative")
        self.sample_rate = sample_rate
        self.slow_seconds = slow_seconds
        self.buffer = TraceBuffer(buffer_size)
        self._on_finish = on_finish
        self._on_slow = on_slow
        self._random = random.Random()  # sampling only, not secrets

    def open(self, endpoint: str, *, trace_id: str | None = None,
             force: bool = False) -> Trace:
        """Start a trace for one request (honouring an inbound id)."""
        sampled = bool(
            force
            or self.sample_rate >= 1.0
            or (self.sample_rate > 0.0
                and self._random.random() < self.sample_rate)
        )
        return Trace(trace_id, endpoint=endpoint, sampled=sampled,
                     forced=force)

    def finish(self, trace: Trace, status: int | None = None) -> None:
        """Seal a trace; sampled ones land in the buffer and hooks."""
        trace.finish(status)
        if not trace.sampled:
            return
        self.buffer.add(trace)
        if self._on_finish is not None:
            self._on_finish(trace)
        if (self._on_slow is not None and self.slow_seconds > 0
                and (trace.duration or 0.0) >= self.slow_seconds):
            self._on_slow(trace)
