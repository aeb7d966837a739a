"""Request-deadline tests: expiry at every queue position, shed rows.

The contract under test (``repro.service.deadline`` plus the shedding
hooks in the ``/solve`` scheduler, ``docs/RESILIENCE.md``): an expired
request is failed with :class:`DeadlineExceeded` naming the *stage*
that caught it -- ``pre-queue`` at the dispatch edge, ``queued`` in the
admission queue,
``admitted`` at the scheduler's admission boundary, ``decoding`` for a
live KV row, ``waiting`` as the submitting thread's backstop -- and a
shed request never occupies a KV row afterwards.  Clients
that hang up early get :class:`ClientDisconnected` (499) instead of a
decode nobody reads.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from repro.llm import TransformerLM
from repro.llm.generation import DecodeSession, greedy_decode
from repro.service import (
    DEADLINE_HEADER,
    ClientDisconnected,
    ContinuousBatcher,
    Deadline,
    DeadlineExceeded,
    DimensionService,
    ServiceConfig,
    Ticket,
)
from repro.service.deadline import use_deadline, use_probe
from repro.service.scheduler import _Flight
from test_llm_decoding import (  # noqa: F401 -- shared model fixtures
    ragged_prompts,
    random_model,
    trained_copy_lm,
)
from test_scheduler import (  # noqa: F401 -- shared fixtures/helpers
    _SlowModel,
    long_junk_prompt,
    toy_lm,
    wait_until,
)


def expired_deadline(budget_ms: float = 0.2) -> Deadline:
    """A deadline that has already run out by the time it is used."""
    deadline = Deadline(budget_ms)
    time.sleep(budget_ms / 1000.0 + 0.002)
    return deadline


# -- units --------------------------------------------------------------------


class TestDeadline:
    def test_from_ms_treats_nonpositive_as_unbounded(self):
        assert Deadline.from_ms(None) is None
        assert Deadline.from_ms(0.0) is None
        assert Deadline.from_ms(-5.0) is None
        assert Deadline.from_ms(10.0).budget_ms == 10.0

    def test_constructor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_remaining_counts_down_and_clamps(self):
        deadline = Deadline(10_000.0)
        assert 0.0 < deadline.remaining() <= 10.0
        assert not deadline.expired()
        assert expired_deadline().remaining() == 0.0

    def test_raise_if_expired_names_the_stage(self):
        deadline = expired_deadline(0.5)
        with pytest.raises(DeadlineExceeded) as err:
            deadline.raise_if_expired("pre-queue")
        assert err.value.stage == "pre-queue"
        assert err.value.budget_ms == 0.5
        Deadline(10_000.0).raise_if_expired("pre-queue")  # no raise

    def test_ticket_captures_bound_context(self):
        assert Ticket.capture().deadline is None
        deadline = Deadline(10_000.0)
        probe = lambda: False  # noqa: E731
        with use_deadline(deadline), use_probe(probe):
            ticket = Ticket.capture()
        assert ticket.deadline is deadline
        assert ticket.probe is probe
        assert ticket.client_alive() is False

    def test_ticket_without_probe_is_always_alive(self):
        assert Ticket().client_alive() is True
        assert Ticket().expired() is False


class TestDecodeSessionCancel:
    def test_cancel_preserves_survivor_outputs(self):
        """Cancelling rows mid-flight never changes the bytes the
        surviving rows generate -- same parity bar as retirement."""
        model = random_model(seed=13)
        prompts = ragged_prompts(model, 5, seed=21)
        solo = [greedy_decode(model, p, 12) for p in prompts]

        session = DecodeSession(model)
        slots = session.admit(prompts, 12)
        generated: dict[int, list[int]] = {}
        for _ in range(2):
            for slot, ids in session.step():
                generated[slot] = ids
        victims = {slots[1], slots[3]}
        session.cancel(victims)
        done_at_cancel = set(generated)
        while session.active:
            for slot, ids in session.step():
                generated[slot] = ids

        for index, slot in enumerate(slots):
            if slot in victims:
                # a victim may have retired before the cancel; it must
                # not produce anything after it
                assert slot in generated or slot not in done_at_cancel
            else:
                assert generated[slot] == solo[index]

    def test_cancel_unknown_slots_is_a_noop(self):
        model = random_model(seed=13)
        session = DecodeSession(model)
        session.cancel({7, 8})  # nothing admitted; nothing to do
        slots = session.admit(ragged_prompts(model, 2, seed=5), 8)
        session.cancel({max(slots) + 100})
        assert session.active


# -- continuous scheduler -----------------------------------------------------


class _StuckModel(_SlowModel):
    """Decode steps block until ``release`` is set."""

    def __init__(self, model):
        super().__init__(model)
        self.release = threading.Event()

    def infer_step(self, *args, **kwargs):
        self.release.wait(5)
        return self._model.infer_step(*args, **kwargs)


class TestContinuousBatcherShedding:
    def test_call_waiting_backstop_bounds_the_wait(self, toy_lm):
        """The worker is stuck inside a decode step, so no shedding
        stage runs; the caller's bounded wait still ends at the
        deadline."""
        stuck = _StuckModel(toy_lm.model)
        lm = TransformerLM(stuck, toy_lm.tokenizer, max_new_tokens=10)
        batcher = ContinuousBatcher(lm)
        try:
            with use_deadline(Deadline(50.0)):
                with pytest.raises(DeadlineExceeded) as err:
                    batcher((long_junk_prompt(toy_lm),))
            assert err.value.stage == "waiting"
        finally:
            stuck.release.set()
            batcher.close()

    def test_expired_in_queue_sheds_before_claiming_a_row(self, toy_lm):
        slow = TransformerLM(_SlowModel(toy_lm.model, delay=0.05),
                             toy_lm.tokenizer, max_new_tokens=10)
        junk = long_junk_prompt(toy_lm)
        batcher = ContinuousBatcher(slow, max_inflight_rows=1)
        try:
            first = batcher.submit((junk,))
            assert wait_until(lambda: batcher.inflight_rows() == 1)
            with use_deadline(Deadline(1.0)):
                doomed = batcher.submit(("say blue",))
            with pytest.raises(DeadlineExceeded) as err:
                doomed.result(timeout=10)
            assert err.value.stage == "queued"
            # the survivor is untouched by the shed companion
            assert first.result(timeout=30) == toy_lm.generate(junk)
        finally:
            batcher.close()

    def test_shed_waiters_admission_boundary(self, toy_lm):
        """`admitted`-stage expiry, dead-client abandonment, and the
        no-waiters-left flight drop, directly at the admission hook."""
        abandoned: list[int] = []
        batcher = ContinuousBatcher(
            toy_lm, on_abandoned=lambda name, count: abandoned.append(count))
        try:
            expired_f: Future = Future()
            dead_f: Future = Future()
            live_f: Future = Future()
            flight = _Flight("say red", [
                (("say red",), expired_f, Ticket(deadline=expired_deadline())),
                (("say red",), dead_f, Ticket(probe=lambda: False)),
                (("say red",), live_f, Ticket()),
            ])
            survivors = batcher._shed_waiters([flight])
            assert survivors == [flight]
            assert len(flight.waiters) == 1
            with pytest.raises(DeadlineExceeded) as err:
                expired_f.result(timeout=0)
            assert err.value.stage == "admitted"
            with pytest.raises(ClientDisconnected):
                dead_f.result(timeout=0)
            assert abandoned == [1]

            # every waiter dead -> the flight is dropped entirely and
            # its prefill never happens
            gone = _Flight("say blue", [
                (("say blue",), Future(), Ticket(probe=lambda: False)),
            ])
            assert batcher._shed_waiters([gone]) == []
        finally:
            batcher.close()

    def test_decoding_expiry_cancels_the_row_and_frees_its_slot(
        self, toy_lm
    ):
        slow = TransformerLM(_SlowModel(toy_lm.model, delay=0.05),
                             toy_lm.tokenizer, max_new_tokens=10)
        junk = long_junk_prompt(toy_lm)  # decodes >= 4 steps x 50ms
        batcher = ContinuousBatcher(slow, max_inflight_rows=2)
        try:
            with use_deadline(Deadline(150.0)):
                doomed = batcher.submit((junk,))
            with pytest.raises(DeadlineExceeded) as err:
                doomed.result(timeout=10)
            assert err.value.stage == "decoding"
            # the cancelled row's KV slot is reclaimed...
            assert wait_until(lambda: batcher.inflight_rows() == 0)
            # ... and later decodes through the compacted cache are
            # byte-identical
            assert batcher((junk,)) == toy_lm.generate(junk)
            assert batcher(("say red",)) == "red"
        finally:
            batcher.close()


# -- HTTP edge ----------------------------------------------------------------


class TestDeadlineOverHTTP:
    @pytest.fixture(scope="class")
    def service_client(self):
        from test_service import serve

        service = DimensionService(ServiceConfig(port=0))
        server, client = serve(service)
        yield service, client
        server.shutdown()
        server.server_close()

    def post(self, client, path, body, headers):
        import json as _json
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            client.base + path,
            data=_json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json", **headers},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return (response.status, _json.loads(response.read()),
                        response.headers)
        except urllib.error.HTTPError as error:
            return error.code, _json.loads(error.read()), error.headers

    def test_malformed_deadline_header_is_a_400(self, service_client):
        _, client = service_client
        for bad in ("potato", "-5", "0", "inf", "nan"):
            status, body, _ = self.post(
                client, "/ground", {"text": "3 km"}, {DEADLINE_HEADER: bad})
            assert status == 400, bad
            assert DEADLINE_HEADER in body["error"]

    def test_tiny_deadline_sheds_pre_queue_with_retry_after(
        self, service_client
    ):
        service, client = service_client
        status, body, headers = self.post(
            client, "/ground", {"text": "3 km"},
            {DEADLINE_HEADER: "0.001"})
        assert status == 504
        assert body["stage"] == "pre-queue"
        assert int(headers["Retry-After"]) >= 1
        assert service.metrics.value(
            "deadline_exceeded_total",
            endpoint="/ground", stage="pre-queue") >= 1

    def test_generous_deadline_answers_normally(self, service_client):
        _, client = service_client
        status, body, _ = self.post(
            client, "/ground", {"text": "3 km in 2 h"},
            {DEADLINE_HEADER: "30000"})
        assert status == 200
        assert body["quantities"]

    def test_default_deadline_config_applies_without_header(self):
        from test_service import serve

        service = DimensionService(ServiceConfig(
            port=0, default_deadline_ms=0.001))
        server, client = serve(service)
        try:
            status, body = client.request("/ground", {"text": "3 km"})
            assert status == 504
            assert body["stage"] == "pre-queue"
            # GETs are exempt: health/metrics stay servable however
            # small the default budget
            status, _ = client.request("/healthz")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()

    def test_config_rejects_negative_default_deadline(self):
        with pytest.raises(ValueError):
            ServiceConfig(default_deadline_ms=-1.0)
