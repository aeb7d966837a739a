"""Request deadlines: budgets, expiry stages, and the queue ticket.

Every request may carry a time budget -- the ``X-Repro-Deadline-Ms``
header, or the service-wide ``--default-deadline-ms`` -- and the stack
checks the remaining budget at each stage boundary instead of letting
an expired request occupy a batch slot or KV row.  A
:class:`Deadline` is monotonic-clock based (``perf_counter``; the
``monotonic-time`` invariant), and expiry always names the **stage**
where it was detected:

``pre-queue``
    the HTTP edge, before the request enters any queue;
``queued``
    shed while waiting in the ``/solve`` scheduler's admission queue
    (its arrival classification);
``admitted``
    caught at the admission boundary, before prefill spends compute;
``decoding``
    a live decode row whose waiters all expired -- the scheduler
    cancels the row and frees its KV slot mid-flight;
``waiting``
    the backstop: the submitting thread's bounded ``future.result``
    wait ran out (covers any stage that failed to shed).

:class:`Ticket` is the single object the scheduler queue carries per
request -- the trace handle (PR 9), the deadline, and the liveness
probe for the submitting client's socket travel together, so adding a
per-request field never means another queue-tuple reshuffle.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Callable, Iterator

from repro.obs import current_trace

#: Request header carrying the per-request budget in milliseconds.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"


class DeadlineExceeded(RuntimeError):
    """The request's budget ran out; ``stage`` names where (-> 504)."""

    def __init__(self, stage: str, budget_ms: float = 0.0):
        super().__init__(
            f"deadline of {budget_ms:.0f}ms exceeded at stage {stage!r}")
        self.stage = stage
        self.budget_ms = budget_ms


class ClientDisconnected(RuntimeError):
    """The submitting client's socket died before the work ran (-> 499)."""


class Deadline:
    """A monotonic time budget for one request."""

    __slots__ = ("budget_ms", "_expires")

    def __init__(self, budget_ms: float):
        if budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        self.budget_ms = float(budget_ms)
        self._expires = time.perf_counter() + self.budget_ms / 1000.0

    @classmethod
    def from_ms(cls, budget_ms: float | None) -> "Deadline | None":
        """A deadline for a positive budget; ``None`` means unbounded."""
        if budget_ms is None or budget_ms <= 0:
            return None
        return cls(budget_ms)

    def remaining(self) -> float:
        """Seconds left (clamped at 0.0)."""
        return max(0.0, self._expires - time.perf_counter())

    def expired(self) -> bool:
        """Whether the budget has run out."""
        return time.perf_counter() >= self._expires

    def raise_if_expired(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` naming ``stage`` if expired."""
        if self.expired():
            raise DeadlineExceeded(stage, self.budget_ms)


#: A liveness probe for the submitting client's socket: ``True`` while
#: the client is still connected (or liveness is unknowable).
Probe = Callable[[], bool]


class Ticket:
    """Everything a queued request carries besides its payload."""

    __slots__ = ("trace", "deadline", "probe")

    def __init__(self, trace=None, deadline: Deadline | None = None,
                 probe: Probe | None = None):
        self.trace = trace
        self.deadline = deadline
        self.probe = probe

    @classmethod
    def capture(cls) -> "Ticket":
        """A ticket from the submitting thread's bound context vars."""
        return cls(trace=current_trace(), deadline=current_deadline(),
                   probe=current_probe())

    def expired(self) -> bool:
        """Whether this request's deadline (if any) has run out."""
        return self.deadline is not None and self.deadline.expired()

    def client_alive(self) -> bool:
        """Whether the submitting client still looks connected."""
        if self.probe is None:
            return True
        return self.probe()


_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_service_deadline", default=None
)
_PROBE: contextvars.ContextVar[Probe | None] = contextvars.ContextVar(
    "repro_service_probe", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline bound to this thread/context, if any."""
    return _DEADLINE.get()


@contextlib.contextmanager
def use_deadline(deadline: Deadline | None) -> Iterator[None]:
    """Bind ``deadline`` as the current deadline for the block."""
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def current_probe() -> Probe | None:
    """The client-liveness probe bound to this context, if any."""
    return _PROBE.get()


@contextlib.contextmanager
def use_probe(probe: Probe | None) -> Iterator[None]:
    """Bind ``probe`` as the current liveness probe for the block."""
    token = _PROBE.set(probe)
    try:
        yield
    finally:
        _PROBE.reset(token)
