"""Continuous batching for ``/solve``: iteration-level decode scheduling.

Running a batch of decodes to completion is wrong for generation:
length varies per request, so one long generation holds every
already-finished companion hostage, newly arrived requests wait for the
entire previous batch, and KV rows freed by early EOS sit idle.

:class:`ContinuousBatcher` schedules at the *step* level instead (the
vLLM/Orca iteration-scheduling idea), riding the resumable
:class:`~repro.llm.generation.DecodeSession` loop:

- one worker thread owns the model (no locking anywhere near the
  transformer: no other thread ever runs it);
- each loop iteration first **admits** queued requests -- up to the
  ``max_inflight_rows`` budget -- by prefilling them into the live KV
  cache (rows freed by retirement are re-used immediately), then runs
  **one decode step** for every in-flight row;
- admission **coalesces prefills**: while rows are decoding, a fresh
  wave is held back until at least ``admit_wave`` rows are free (or the
  wave covers everyone waiting), so a saturated queue prefills in a few
  wide passes instead of one tiny forward pass per freed row -- under
  light traffic the wave always covers the queue and admission is
  immediate;
- rows that finish (EOS or budget) **retire immediately**: their
  waiters get results the moment the row's last token lands, however
  long the rows admitted alongside them keep generating.  Result
  delivery (the ``finish`` callback and ``Future`` hand-off) runs on a
  separate resolver thread so post-processing one request never stalls
  the rows still decoding;
- the bounded admission queue gives **backpressure**: when both the
  in-flight budget and the queue are full, ``submit`` raises
  :class:`BatcherSaturated` and the HTTP layer answers 429 -- requests
  are refused, never hung.

Requests that share a prompt are deduplicated in flight (one KV row,
every waiter answered from it) and completions land in the same
``(cache_key, prompt)``-keyed completion memo the engine's
:class:`~repro.engine.BatchRunner` uses, so offline evaluation and
serving share memo hits.  Scheduling never changes
semantics: per-request responses are byte-identical to solo decoding
(greedy decoding is deterministic per row and the kernel paths compute
rows independently of their batch companions -- asserted by the parity
tests and enforced by ``benchmarks/bench_service.py``).
"""

from __future__ import annotations

import queue as _queue
import threading
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Callable, Sequence

from repro import faults
from repro.llm.generation import DecodeSession, DecodeStats
from repro.llm.interface import TransformerLM
from repro.service.deadline import (
    ClientDisconnected,
    DeadlineExceeded,
    Ticket,
    current_deadline,
)


class BatcherSaturated(RuntimeError):
    """A bounded request queue is full (HTTP layer answers 429)."""


class BatcherClosed(RuntimeError):
    """The service no longer accepts work (it is draining; HTTP 503)."""


class _Flight:
    """One in-flight unique prompt: its KV row and its waiters.

    ``steps`` counts the decode rounds this flight's row has run --
    retired rows stamp it onto their waiters' trace ``decode`` spans.
    """

    __slots__ = ("prompt", "waiters", "slot", "steps")

    def __init__(self, prompt: str, waiters: list):
        self.prompt = prompt
        self.waiters = waiters      # [(item, Future, Ticket), ...]
        self.slot: int | None = None
        self.steps = 0


class ContinuousBatcher:
    """Continuously batched decode serving over one worker thread.

    ``lm`` is the wrapped :class:`~repro.llm.TransformerLM` whose
    tokenizer/model/``max_new_tokens`` define the decode; ``finish``
    maps ``(item, completion_text)`` to the per-request result (the
    ``/solve`` handler passes :meth:`repro.service.solver.MWPSolver.
    finish`; by default the completion text itself is returned).

    Submission is future-based (``submit`` ->
    :class:`~concurrent.futures.Future`, ``__call__`` blocks);
    ``item[0]`` must be the prompt string.

    ``admit_wave`` (default ``max_inflight_rows // 4``) and
    ``admit_delay_steps`` control prefill coalescing: while rows are
    decoding, a fresh wave smaller than ``admit_wave`` is held back --
    for at most ``admit_delay_steps`` decode rounds -- so closely
    spaced arrivals merge into one wide prefill pass instead of each
    stalling the live rows with its own full forward pass.  An idle
    session always admits immediately, so the held-back worst case is
    a few decode rounds (single-digit milliseconds), bounded by
    ``admit_delay_steps`` even under a saturated queue.
    """

    def __init__(
        self,
        lm: TransformerLM,
        *,
        finish: Callable[[object, str], object] | None = None,
        max_inflight_rows: int = 32,
        admit_wave: int | None = None,
        admit_delay_steps: int = 4,
        max_queue: int = 1024,
        name: str = "solve",
        on_admit: Callable[[str, int], None] | None = None,
        on_decode: Callable[[DecodeStats], None] | None = None,
        on_abandoned: Callable[[str, int], None] | None = None,
        completion_cache=None,
    ):
        if max_inflight_rows < 1:
            raise ValueError("max_inflight_rows must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if admit_wave is None:
            admit_wave = max(1, max_inflight_rows // 4)
        if admit_wave < 1:
            raise ValueError("admit_wave must be at least 1")
        if admit_delay_steps < 0:
            raise ValueError("admit_delay_steps must be non-negative")
        self.lm = lm
        self.finish = finish or (lambda item, output: output)
        self.max_inflight_rows = max_inflight_rows
        self.admit_wave = min(admit_wave, max_inflight_rows)
        self.admit_delay_steps = admit_delay_steps
        self.max_queue = max_queue
        self.name = name
        self._on_admit = on_admit
        self._on_decode = on_decode
        self._on_abandoned = on_abandoned
        self._memo = completion_cache if (
            completion_cache is not None and completion_cache.maxsize > 0
        ) else None
        self._memo_key = getattr(lm, "cache_key", None) or getattr(
            lm, "name", type(lm).__name__
        )
        self._stats = DecodeStats()
        self._reported = DecodeStats()
        self._session = DecodeSession(lm.model, stats=self._stats)
        #: (item, caller future, caller ticket) triples; the ticket
        #: carries trace handle, deadline, and client-liveness probe.
        self._queue: deque[tuple[object, Future, Ticket]] = deque()  # guarded by: self._wake, self._lock
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False  # guarded by: self._wake, self._lock
        # Worker-thread state: prompt -> flight, KV slot -> flight.
        self._flights: dict[str, _Flight] = {}
        self._by_slot: dict[int, _Flight] = {}
        self._deferred_rounds = 0   # rounds the head wave has waited
        # Retired rows hand their waiters to a resolver thread: running
        # ``finish`` (e.g. equation evaluation) or waking waiter threads
        # inside the decode loop would stall every live KV row for it.
        self._resolutions: _queue.SimpleQueue = _queue.SimpleQueue()
        self._resolver = threading.Thread(
            target=self._run_resolver,
            name=f"continuous-resolver-{name}", daemon=True,
        )
        self._resolver.start()
        self._thread = threading.Thread(
            target=self._run, name=f"continuous-batcher-{name}", daemon=True
        )
        self._thread.start()

    # -- producer side ------------------------------------------------------

    def submit(self, item) -> Future:
        """Queue one item; the future resolves to ``finish(item, text)``.

        A completion-memo hit resolves immediately without touching the
        scheduler; otherwise the item joins the bounded admission queue
        (:class:`BatcherSaturated` beyond ``max_queue`` -- the 429
        backpressure path, so saturation refuses instead of hanging).
        """
        future: Future = Future()
        ticket = Ticket.capture()
        trace = ticket.trace
        cached = self._memo_get(item[0])
        if cached is not None:
            if trace is not None:
                trace.begin("queue", cached=True)
                trace.end("queue")
            self._resolve(item, future, cached, trace)
            return future
        if trace is not None:
            trace.begin("queue")
        if faults.triggered("queue.full"):
            raise BatcherSaturated(
                f"batcher {self.name!r} queue full (injected)")
        with self._wake:
            if self._closed:
                raise BatcherClosed(f"batcher {self.name!r} is closed")
            if len(self._queue) >= self.max_queue:
                raise BatcherSaturated(
                    f"batcher {self.name!r} queue full "
                    f"({self.max_queue} pending)"
                )
            self._queue.append((item, future, ticket))
            self._wake.notify()
        return future

    def __call__(self, item):
        """Submit and wait: the synchronous convenience used by handlers.

        With a deadline bound, the wait is bounded too (the ``waiting``
        backstop stage) -- whatever shedding stage missed the request,
        the submitting thread never outlives the budget.
        """
        future = self.submit(item)
        deadline = current_deadline()
        if deadline is None:
            return future.result()
        try:
            return future.result(timeout=max(deadline.remaining(), 0.001))
        except _FutureTimeout:
            raise DeadlineExceeded("waiting", deadline.budget_ms) from None

    # -- introspection (metrics) --------------------------------------------

    def pending(self) -> int:
        """Queued-but-unadmitted requests (the ``solve_queue_depth``
        gauge; excludes requests already decoding in a KV row)."""
        with self._lock:
            return len(self._queue)

    def inflight_rows(self) -> int:
        """Unique prompts currently decoding in live KV rows (the
        ``solve_inflight_rows`` gauge, bounded by
        ``max_inflight_rows``)."""
        return len(self._by_slot)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- shutdown -----------------------------------------------------------

    def drain(self) -> None:
        """Stop admission without waiting for in-flight rows.

        New submissions fail with :class:`BatcherClosed` (503 at the
        HTTP layer) while queued and in-flight decodes keep stepping to
        completion.  The fleet's SIGTERM path drains admission before
        any worker exits; :meth:`close` then joins once the rows
        retire.
        """
        with self._wake:
            self._closed = True
            self._wake.notify()

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop accepting work, drain queue + in-flight rows, join.

        Queued and in-flight requests still complete (graceful
        shutdown); only *new* submissions fail with
        :class:`BatcherClosed`.
        """
        self.drain()
        self._thread.join(timeout=timeout)
        self._resolutions.put(None)
        self._resolver.join(timeout=timeout)

    # -- memo ----------------------------------------------------------------

    def _memo_get(self, prompt: str):
        if self._memo is None:
            return None
        return self._memo.get((self._memo_key, prompt))

    def _memo_put(self, prompt: str, output: str) -> None:
        if self._memo is not None:
            self._memo.put((self._memo_key, prompt), output)

    # -- worker side ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._wake:
                while (not self._queue and not self._by_slot
                       and not self._closed):
                    self._wake.wait()
                if self._closed and not self._queue and not self._by_slot:
                    return
                memo_hits, fresh, expired = self._classify_arrivals_locked()
            for _, future, ticket in expired:
                if ticket.trace is not None:
                    ticket.trace.end("queue", deadline_exceeded=True)
                future.set_exception(
                    DeadlineExceeded("queued", ticket.deadline.budget_ms))
            for hit in memo_hits:
                self._resolutions.put(hit)
            self._admit(fresh)
            self._cancel_expired()
            if self._session.active:
                try:
                    faults.check("decode.step")
                    finished = self._session.step()
                except BaseException as exc:  # noqa: BLE001 -- fan out
                    self._fail_all(exc)
                    continue
                for flight in self._by_slot.values():
                    flight.steps += 1
                self._retire(finished)
            self._report_decode()

    def _classify_arrivals_locked(self):
        """Drain the queue into admissions (called under the lock).

        Memo hits resolve without a row and duplicates of an in-flight
        prompt join its flight, wherever they sit in the queue (neither
        needs a KV row, so neither waits on the budget).  New prompts
        claim rows in FIFO order while the in-flight budget lasts --
        row-blocked requests are never overtaken by later new prompts,
        so no request starves.  A fresh wave smaller than
        ``admit_wave`` is deferred (re-queued in order) while other
        rows are decoding, for at most ``admit_delay_steps`` rounds:
        retirements and new arrivals widen it, and one wide prefill
        pass is far cheaper than several narrow ones.

        Requests whose deadline already ran out are shed here instead
        of claiming a row; they come back in the third return value and
        the caller fails them (stage ``queued``) outside the lock.
        """
        memo_hits: list = []
        fresh: dict[str, _Flight] = {}
        expired: list[tuple[object, Future, Ticket]] = []
        blocked: deque[tuple[object, Future, Ticket]] = deque()
        budget = self.max_inflight_rows - len(self._by_slot)
        while self._queue:
            entry = self._queue.popleft()
            item, future, ticket = entry
            trace = ticket.trace
            if ticket.expired():
                expired.append(entry)
                continue
            prompt = item[0]
            output = self._memo_get(prompt)
            if output is not None:
                if trace is not None:
                    trace.end("queue", cached=True)
                memo_hits.append((item, future, trace, output))
                continue
            flight = self._flights.get(prompt)
            if flight is not None:
                # joining a row that is already decoding: no admission
                # wait of its own, straight into the decode stage
                if trace is not None:
                    trace.end("queue")
                    trace.begin("decode", joined=True)
                flight.waiters.append(entry)
                continue
            flight = fresh.get(prompt)
            if flight is not None:
                if trace is not None:
                    trace.end("queue")
                    trace.begin("admit")
                flight.waiters.append(entry)
                continue
            if len(fresh) < budget:
                # begin("admit") is idempotent, so a wave deferral that
                # re-queues this request and re-classifies it next round
                # keeps the original admission-wait start
                if trace is not None:
                    trace.end("queue")
                    trace.begin("admit")
                fresh[prompt] = _Flight(prompt, [entry])
            else:
                blocked.append(entry)
        if (fresh and self._by_slot and not self._closed
                and len(fresh) < self.admit_wave
                and self._deferred_rounds < self.admit_delay_steps):
            self._deferred_rounds += 1
            for flight in reversed(list(fresh.values())):
                for waiter in reversed(flight.waiters):
                    blocked.appendleft(waiter)
            fresh = {}
        else:
            self._deferred_rounds = 0
        self._queue.extend(blocked)
        return memo_hits, fresh, expired

    def _shed_waiters(self, flights: list[_Flight]) -> list[_Flight]:
        """Drop expired and dead-client waiters at the admission boundary.

        Runs just before prefill spends compute: expired waiters 504
        (stage ``admitted``), waiters whose client socket already
        disconnected get :class:`ClientDisconnected` and count toward
        ``requests_abandoned_total`` -- decoding for a dead socket is
        pure waste.  Flights left with no waiter are dropped entirely,
        so their KV row is never claimed and the prefill pass narrows.
        """
        survivors: list[_Flight] = []
        abandoned = 0
        for flight in flights:
            live = []
            for entry in flight.waiters:
                _, future, ticket = entry
                trace = ticket.trace
                if ticket.expired():
                    if trace is not None:
                        trace.end("admit", deadline_exceeded=True)
                    future.set_exception(DeadlineExceeded(
                        "admitted", ticket.deadline.budget_ms))
                elif not ticket.client_alive():
                    abandoned += 1
                    if trace is not None:
                        trace.end("admit", abandoned=True)
                    future.set_exception(ClientDisconnected(
                        "client disconnected before admission"))
                else:
                    live.append(entry)
            flight.waiters = live
            if live:
                survivors.append(flight)
        if abandoned and self._on_abandoned is not None:
            self._on_abandoned(self.name, abandoned)
        return survivors

    def _admit(self, fresh: dict[str, _Flight]) -> None:
        """Prefill the newly claimed rows into the live KV cache."""
        if not fresh:
            return
        flights = self._shed_waiters(list(fresh.values()))
        if not flights:
            return
        for flight in flights:
            for _, _, ticket in flight.waiters:
                if ticket.trace is not None:
                    ticket.trace.end("admit")
                    ticket.trace.begin("prefill", batch=len(flights))
        try:
            encoded = [self.lm.tokenizer.encode(flight.prompt)
                       for flight in flights]
            slots = self._session.admit(encoded, self.lm.max_new_tokens)
        except BaseException as exc:  # noqa: BLE001 -- fan out, survive
            for flight in flights:
                for _, future, ticket in flight.waiters:
                    if ticket.trace is not None:
                        ticket.trace.end("prefill", error=type(exc).__name__)
                    future.set_exception(exc)
            return
        for flight, slot in zip(flights, slots):
            flight.slot = slot
            self._flights[flight.prompt] = flight
            self._by_slot[slot] = flight
            for _, _, ticket in flight.waiters:
                if ticket.trace is not None:
                    ticket.trace.end("prefill")
                    ticket.trace.begin("decode")
        if self._on_admit is not None:
            self._on_admit(self.name, len(flights))

    def _cancel_expired(self) -> None:
        """Cancel live decode rows whose waiters have all expired.

        The mid-flight shedding path: expired waiters 504 immediately
        (stage ``decoding``) and a row left with no waiter at all is
        cancelled in the session -- its KV slot frees this round via
        the same compaction retirement uses, instead of decoding to a
        result nobody will read.
        """
        if not self._by_slot:
            return
        doomed: list[int] = []
        for slot, flight in self._by_slot.items():
            live = []
            for entry in flight.waiters:
                _, future, ticket = entry
                if ticket.expired():
                    if ticket.trace is not None:
                        ticket.trace.end("decode", deadline_exceeded=True)
                    future.set_exception(DeadlineExceeded(
                        "decoding", ticket.deadline.budget_ms))
                else:
                    live.append(entry)
            flight.waiters = live
            if not live:
                doomed.append(slot)
        if doomed:
            for slot in doomed:
                flight = self._by_slot.pop(slot)
                del self._flights[flight.prompt]
            self._session.cancel(doomed)

    def _retire(self, finished: Sequence[tuple[int, list[int]]]) -> None:
        """Hand every waiter of each just-finished row to the resolver.

        Only detokenization and the memo write happen here; ``finish``
        and the ``Future`` hand-offs run on the resolver thread so the
        decode loop goes straight back to stepping the surviving rows.
        """
        for slot, generated in finished:
            flight = self._by_slot.pop(slot)
            del self._flights[flight.prompt]
            try:
                output = self.lm.tokenizer.decode(generated)
            except BaseException as exc:  # noqa: BLE001 -- fan out
                for _, future, _ in flight.waiters:
                    future.set_exception(exc)
                continue
            self._memo_put(flight.prompt, output)
            for item, future, ticket in flight.waiters:
                trace = ticket.trace
                if trace is not None:
                    trace.end("decode", tokens=len(generated),
                              steps=flight.steps)
                self._resolutions.put((item, future, trace, output))

    def _run_resolver(self) -> None:
        """Drain resolution hand-offs until the shutdown sentinel."""
        while True:
            handoff = self._resolutions.get()
            if handoff is None:
                return
            item, future, trace, output = handoff
            self._resolve(item, future, output, trace)

    def _resolve(self, item, future: Future, output: str,
                 trace=None) -> None:
        """finish() one waiter; its error fails only its own future."""
        if trace is not None:
            trace.begin("resolve")
        try:
            future.set_result(self.finish(item, output))
        except BaseException as exc:  # noqa: BLE001 -- per-request error
            future.set_exception(exc)
        finally:
            if trace is not None:
                trace.end("resolve")

    def _fail_all(self, exc: BaseException) -> None:
        """A step blew up mid-flight: fail every in-flight waiter and
        restart from an empty session (the worker survives)."""
        for flight in self._by_slot.values():
            for _, future, _ in flight.waiters:
                future.set_exception(exc)
        self._flights.clear()
        self._by_slot.clear()
        self._session = DecodeSession(self.lm.model, stats=self._stats)

    def _report_decode(self) -> None:
        """Forward this round's DecodeStats increments to the observer."""
        if self._on_decode is None:
            return
        stats, last = self._stats, self._reported
        delta = DecodeStats(
            prompts=stats.prompts - last.prompts,
            tokens=stats.tokens - last.tokens,
            prefills=stats.prefills - last.prefills,
            prefill_seconds=stats.prefill_seconds - last.prefill_seconds,
            steps=stats.steps - last.steps,
            step_seconds=stats.step_seconds - last.step_seconds,
        )
        if delta == DecodeStats():
            return
        self._reported = DecodeStats(**vars(stats))
        self._on_decode(delta)
