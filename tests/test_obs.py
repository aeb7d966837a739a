"""Tests for the observability layer (repro.obs).

Covers the trace primitives (idempotent stage transitions, cross-thread
span recording, the bounded ring buffer under a concurrency hammer),
the tracer's sampling/force/slow-trace policy, the structured JSON
logger, HTTP-level trace propagation (header echo, ``/debug/traces``
views, force-sampling under a zero ambient rate), and the fleet-wide
trace aggregation over real sockets.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    FORCE_HEADER,
    TRACE_HEADER,
    Trace,
    TraceBuffer,
    Tracer,
    current_trace,
    get_logger,
    mint_trace_id,
    trace_span,
    use_trace,
)
from repro.obs.log import ROOT_LOGGER, JsonLineFormatter
from repro.service import DimensionService, ServiceConfig, build_server
from test_fleet import GROUND_PAYLOAD, fleet_process


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    """Poll until ``predicate()`` is truthy; the trace is sealed *after*
    the response bytes go out, so buffer/log assertions briefly race the
    handler thread."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return bool(predicate())


# -- trace primitives --------------------------------------------------------


def test_mint_trace_id_shape_and_uniqueness():
    ids = {mint_trace_id() for _ in range(64)}
    assert len(ids) == 64
    assert all(len(t) == 16 and set(t) <= set("0123456789abcdef")
               for t in ids)


def test_trace_records_ordered_spans():
    trace = Trace("abc", endpoint="/x")
    with trace.span("parse"):
        time.sleep(0.002)
    trace.begin("queue", batch_size=3)
    time.sleep(0.002)
    trace.end("queue")
    trace.finish(200)

    payload = trace.to_dict()
    assert payload["trace_id"] == "abc"
    assert payload["endpoint"] == "/x"
    assert payload["status"] == 200
    assert payload["forced"] is False
    assert [span["name"] for span in payload["spans"]] == ["parse", "queue"]
    assert payload["spans"][1]["attrs"] == {"batch_size": 3}
    for span in payload["spans"]:
        assert span["duration_ms"] >= 1.0
    # spans are offsets from one origin: ordered and within the total
    assert payload["spans"][0]["start_ms"] <= payload["spans"][1]["start_ms"]
    assert payload["duration_ms"] >= max(
        span["start_ms"] + span["duration_ms"]
        for span in payload["spans"]
    ) - 0.005


def test_trace_begin_is_idempotent_and_end_tolerates_unopened():
    trace = Trace()
    trace.begin("admit")
    time.sleep(0.002)
    trace.begin("admit", wave=2)  # re-queue marks again: first mark wins
    assert trace.is_open("admit")
    trace.end("admit")
    trace.end("admit")       # double-end: no-op
    trace.end("never-open")  # end without begin: no-op
    spans = trace.spans()
    assert [span.name for span in spans] == ["admit"]
    assert spans[0].duration >= 0.001   # measured from the *first* begin
    assert spans[0].attrs == {"wave": 2}  # re-begin still merges attrs


def test_trace_finish_closes_stray_spans_and_fixes_duration():
    trace = Trace()
    trace.begin("resolve")
    trace.finish(500)
    assert trace.status == 500
    assert trace.duration is not None
    spans = trace.spans()
    assert spans[0].duration is not None
    trace.end("resolve", late=True)  # post-finish end: no-op
    assert trace.spans()[0].attrs == {}


def test_unsampled_trace_records_nothing():
    trace = Trace(sampled=False)
    trace.begin("parse")
    with trace.span("queue"):
        pass
    assert not trace.is_open("parse")
    assert trace.spans() == []
    assert trace.stage_seconds() == {}


def test_current_trace_binding_and_trace_span_helper():
    assert current_trace() is None
    with trace_span("orphan"):  # no bound trace: silently a no-op
        pass
    trace = Trace()
    with use_trace(trace):
        assert current_trace() is trace
        with trace_span("validate", rows=2):
            pass
    assert current_trace() is None
    assert [span.name for span in trace.spans()] == ["validate"]
    assert trace.spans()[0].attrs == {"rows": 2}


def test_trace_span_recording_is_thread_safe():
    """Concurrent recorders on one trace never lose or corrupt spans."""
    trace = Trace()
    threads, per_thread = 8, 50

    def record(tid: int) -> None:
        for i in range(per_thread):
            with trace.span(f"t{tid}-{i}", tid=tid):
                pass

    workers = [threading.Thread(target=record, args=(tid,))
               for tid in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    trace.finish()
    spans = trace.spans()
    assert len(spans) == threads * per_thread
    names = {span.name for span in spans}
    assert len(names) == threads * per_thread
    assert all(span.duration is not None for span in spans)
    assert all(span.attrs == {"tid": int(span.name[1:].split("-")[0])}
               for span in spans)


# -- the ring buffer ---------------------------------------------------------


def _finished_trace(trace_id: str, *, seconds: float = 0.0) -> Trace:
    trace = Trace(trace_id, endpoint="/t")
    trace.finish()
    if seconds:
        trace.duration = seconds
    return trace


def test_trace_buffer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        TraceBuffer(0)


def test_trace_buffer_evicts_oldest_and_indexes_by_id():
    buffer = TraceBuffer(3)
    for i in range(5):
        buffer.add(_finished_trace(f"t{i}"))
    assert len(buffer) == 3
    assert buffer.get("t0") is None and buffer.get("t1") is None
    assert buffer.get("t4")["trace_id"] == "t4"
    assert [t["trace_id"] for t in buffer.dump()] == ["t2", "t3", "t4"]
    assert [t["trace_id"] for t in buffer.recent(2)] == ["t4", "t3"]


def test_trace_buffer_slowest_ranks_by_duration():
    buffer = TraceBuffer(8)
    for trace_id, seconds in (("a", 0.01), ("b", 0.5), ("c", 0.1)):
        buffer.add(_finished_trace(trace_id, seconds=seconds))
    assert [t["trace_id"] for t in buffer.slowest(2)] == ["b", "c"]


def test_trace_buffer_concurrency_hammer():
    """Writers appending live traces race readers snapshotting views;
    the buffer stays bounded and every view serves self-consistent
    traces (each trace's spans are its own, never interleaved)."""
    buffer = TraceBuffer(32)
    writers, per_writer = 6, 40
    errors: list[BaseException] = []

    def write(wid: int) -> None:
        try:
            for i in range(per_writer):
                trace = Trace(f"w{wid}-{i}")
                with trace.span("work", owner=f"w{wid}-{i}"):
                    pass
                trace.finish(200)
                buffer.add(trace)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    stop = threading.Event()

    def read() -> None:
        try:
            while not stop.is_set():
                for view in (buffer.dump(), buffer.recent(10),
                             buffer.slowest(10)):
                    assert len(view) <= 32
                    for payload in view:
                        spans = payload["spans"]
                        assert [s["name"] for s in spans] == ["work"]
                        assert spans[0]["attrs"]["owner"] \
                            == payload["trace_id"]
                buffer.get("w0-0")
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(wid,))
               for wid in range(writers)]
    threads += [threading.Thread(target=read) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads[:writers]:
        thread.join()
    stop.set()
    for thread in threads[writers:]:
        thread.join()
    assert not errors
    assert len(buffer) == 32  # bounded despite 240 adds


# -- the tracer --------------------------------------------------------------


def test_tracer_validates_policy_knobs():
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)
    with pytest.raises(ValueError):
        Tracer(slow_seconds=-0.1)


def test_tracer_sampling_rate_extremes_and_force():
    always = Tracer(sample_rate=1.0)
    assert always.open("/x").sampled is True
    never = Tracer(sample_rate=0.0)
    assert never.open("/x").sampled is False
    forced = never.open("/x", force=True)
    assert forced.sampled is True and forced.forced is True
    assert never.open("/x", trace_id="given").trace_id == "given"


def test_tracer_finish_buffers_sampled_traces_and_fires_hooks():
    finished, slow = [], []
    tracer = Tracer(sample_rate=0.0, slow_seconds=0.01,
                    on_finish=finished.append, on_slow=slow.append)

    unsampled = tracer.open("/x")
    tracer.finish(unsampled, 200)
    assert len(tracer.buffer) == 0 and finished == []

    fast = tracer.open("/x", force=True)
    tracer.finish(fast, 200)
    assert len(tracer.buffer) == 1
    assert finished == [fast] and slow == []

    lagging = tracer.open("/x", force=True)
    time.sleep(0.02)
    tracer.finish(lagging, 200)
    assert finished == [fast, lagging]
    assert slow == [lagging]  # only the one past the threshold


def test_tracer_zero_slow_threshold_disables_emission():
    slow = []
    tracer = Tracer(sample_rate=1.0, slow_seconds=0.0, on_slow=slow.append)
    trace = tracer.open("/x")
    time.sleep(0.002)
    tracer.finish(trace, 200)
    assert slow == []


# -- structured logging ------------------------------------------------------


class _CaptureHandler(logging.Handler):
    """Collects formatted JSON lines from the repro.obs root logger."""

    def __init__(self):
        super().__init__()
        self.lines: list[str] = []
        self.setFormatter(JsonLineFormatter())

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(self.format(record))


@pytest.fixture()
def capture_obs_log():
    handler = _CaptureHandler()
    root = logging.getLogger(ROOT_LOGGER)
    root.addHandler(handler)
    yield handler
    root.removeHandler(handler)


def test_structured_logger_emits_one_json_line(capture_obs_log):
    log = get_logger("testsuite")
    assert log.name == "repro.obs.testsuite"
    log.info("unit.event", port=8080, ratio=0.5, ok=True, label=None)
    [line] = capture_obs_log.lines
    assert "\n" not in line
    payload = json.loads(line)
    assert payload["event"] == "unit.event"
    assert payload["level"] == "info"
    assert payload["logger"] == "repro.obs.testsuite"
    assert payload["port"] == 8080 and payload["ratio"] == 0.5
    assert payload["ok"] is True and payload["label"] is None
    assert isinstance(payload["ts"], float)


def test_structured_logger_json_proofs_awkward_values(capture_obs_log):
    log = get_logger("testsuite")
    log.warning("unit.awkward", obj=object(), seq=(1, "two"),
                mapping={3: object()})
    payload = json.loads(capture_obs_log.lines[0])
    assert payload["obj"].startswith("<object object")
    assert payload["seq"] == [1, "two"]
    assert list(payload["mapping"]) == ["3"]  # keys coerced to str


def test_structured_logger_exc_info_attaches_exception(capture_obs_log):
    log = get_logger("testsuite")
    try:
        raise ValueError("broken invariant")
    except ValueError:
        log.error("unit.failure", stage="eval", exc_info=True)
    payload = json.loads(capture_obs_log.lines[0])
    assert payload["stage"] == "eval"
    assert payload["exc"]["type"] == "ValueError"
    assert payload["exc"]["message"] == "broken invariant"
    assert "raise ValueError" in payload["exc"]["traceback"]


def test_get_logger_configures_root_exactly_once():
    get_logger("a")
    get_logger("a.deeper")
    get_logger()
    root = logging.getLogger(ROOT_LOGGER)
    owned = [handler for handler in root.handlers
             if getattr(handler, "_repro_obs", False)]
    assert len(owned) == 1
    assert root.propagate is False


# -- HTTP-level tracing ------------------------------------------------------


def _traced_request(base: str, path: str, payload: dict | None = None,
                    headers: dict[str, str] | None = None):
    """(status, body, response headers) with arbitrary request headers."""
    data = None
    send = dict(headers or {})
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        send["Content-Type"] = "application/json"
    request = urllib.request.Request(base + path, data=data, headers=send)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            raw, status = response.read(), response.status
            got = dict(response.headers)
    except urllib.error.HTTPError as error:
        raw, status = error.read(), error.code
        got = dict(error.headers)
    try:
        return status, json.loads(raw), got
    except json.JSONDecodeError:
        return status, raw.decode("utf-8"), got


@pytest.fixture(scope="module")
def quiet_traced_server():
    """KB-only service with ambient sampling *off* and an always-firing
    slow threshold, so only forced requests land in the buffer."""
    service = DimensionService(ServiceConfig(
        port=0, trace_sample_rate=0.0, slow_trace_ms=0.0001,
    ))
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


class TestHTTPTracing:
    def test_response_echoes_inbound_trace_id(self, quiet_traced_server):
        _, base = quiet_traced_server
        status, _, headers = _traced_request(
            base, "/ground", {"text": "3 km in 2 h"},
            headers={TRACE_HEADER: "deadbeefcafe0001"},
        )
        assert status == 200
        assert headers[TRACE_HEADER] == "deadbeefcafe0001"

    def test_malformed_inbound_id_is_replaced_by_minted(
            self, quiet_traced_server):
        _, base = quiet_traced_server
        hostile = "x" * 65
        _, _, headers = _traced_request(
            base, "/ground", {"text": "3 km in 2 h"},
            headers={TRACE_HEADER: hostile},
        )
        minted = headers[TRACE_HEADER]
        assert minted != hostile and len(minted) == 16

    def test_unforced_request_is_not_buffered_at_zero_rate(
            self, quiet_traced_server):
        service, base = quiet_traced_server
        status, _, headers = _traced_request(
            base, "/ground", {"text": "3 km in 2 h"})
        assert status == 200
        minted = headers[TRACE_HEADER]  # id still minted and echoed
        assert service.tracer.buffer.get(minted) is None

    def test_forced_request_yields_complete_span_timeline(
            self, quiet_traced_server):
        service, base = quiet_traced_server
        trace_id = mint_trace_id()
        status, _, headers = _traced_request(
            base, "/ground", GROUND_PAYLOAD,
            headers={TRACE_HEADER: trace_id, FORCE_HEADER: "1"},
        )
        assert status == 200
        assert headers[TRACE_HEADER] == trace_id
        assert _wait_until(
            lambda: service.tracer.buffer.get(trace_id) is not None)

        status, body, _ = _traced_request(
            base, f"/debug/traces?id={trace_id}")
        assert status == 200
        trace = body["trace"]
        assert trace["forced"] is True
        assert trace["status"] == 200
        assert trace["worker_id"] == 0
        spans = {span["name"]: span for span in trace["spans"]}
        # inline endpoint lifecycle, in order and non-overlapping
        order = ["parse", "execute", "write"]
        assert [s["name"] for s in trace["spans"]] == order
        previous_end = 0.0
        for name in order:
            span = spans[name]
            assert span["start_ms"] >= previous_end - 0.005
            previous_end = span["start_ms"] + span["duration_ms"]
        assert previous_end <= trace["duration_ms"] + 0.005

    def test_force_via_query_parameter(self, quiet_traced_server):
        service, base = quiet_traced_server
        trace_id = mint_trace_id()
        status, _, _ = _traced_request(
            base, "/ground?force=1", GROUND_PAYLOAD,
            headers={TRACE_HEADER: trace_id},
        )
        assert status == 200
        assert _wait_until(
            lambda: service.tracer.buffer.get(trace_id) is not None)

    def test_parse_error_still_finishes_the_trace(self, quiet_traced_server):
        service, base = quiet_traced_server
        trace_id = mint_trace_id()
        request = urllib.request.Request(
            base + "/ground", data=b"{not json",
            headers={TRACE_HEADER: trace_id, FORCE_HEADER: "1"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        excinfo.value.read()
        assert _wait_until(
            lambda: service.tracer.buffer.get(trace_id) is not None)
        buffered = service.tracer.buffer.get(trace_id)
        assert buffered["status"] == 400
        assert {span["name"] for span in buffered["spans"]} \
            == {"parse", "write"}

    def test_debug_traces_views_and_errors(self, quiet_traced_server):
        _, base = quiet_traced_server
        service = quiet_traced_server[0]
        for i in range(3):
            _traced_request(base, "/ground", GROUND_PAYLOAD,
                            headers={TRACE_HEADER: f"view{i:012d}feed",
                                     FORCE_HEADER: "1"})
        assert _wait_until(
            lambda: service.tracer.buffer.get("view000000000002feed")
            is not None)
        status, body, _ = _traced_request(base, "/debug/traces?n=2")
        assert status == 200
        assert body["view"] == "recent"
        assert body["count"] == 2 and body["total_buffered"] >= 3
        stamps = [t["started_unix"] for t in body["traces"]]
        assert stamps == sorted(stamps, reverse=True)

        status, body, _ = _traced_request(
            base, "/debug/traces?view=slowest&n=200")
        assert status == 200
        durations = [t["duration_ms"] for t in body["traces"]]
        assert durations == sorted(durations, reverse=True)

        status, body, _ = _traced_request(base, "/debug/traces?view=median")
        assert status == 400 and "view" in body["error"]
        status, body, _ = _traced_request(base, "/debug/traces?n=plenty")
        assert status == 400 and "'n'" in body["error"]
        status, body, _ = _traced_request(
            base, "/debug/traces?id=0000000000000000")
        assert status == 404 and "no buffered trace" in body["error"]

    def test_slow_trace_emits_structured_log_event(
            self, quiet_traced_server, capture_obs_log):
        service, base = quiet_traced_server
        trace_id = mint_trace_id()
        _traced_request(base, "/ground", GROUND_PAYLOAD,
                        headers={TRACE_HEADER: trace_id, FORCE_HEADER: "1"})

        def slow_events():
            events = [json.loads(line) for line in capture_obs_log.lines]
            return [e for e in events if e["event"] == "request.slow"
                    and e["trace_id"] == trace_id]

        assert _wait_until(slow_events)
        slow = slow_events()
        assert len(slow) == 1
        assert slow[0]["endpoint"] == "/ground"
        assert slow[0]["duration_ms"] > 0
        assert "execute" in slow[0]["stages"]
        assert service.metrics.value(
            "slow_traces_total", endpoint="/ground") >= 1

    def test_trace_metrics_accumulate_per_stage(self, quiet_traced_server):
        service, base = quiet_traced_server
        _, _, headers = _traced_request(base, "/ground", GROUND_PAYLOAD,
                                        headers={FORCE_HEADER: "1"})
        assert _wait_until(
            lambda: service.tracer.buffer.get(headers[TRACE_HEADER])
            is not None)
        metrics = service.metrics
        assert metrics.value("traces_sampled_total", endpoint="/ground") >= 1
        for stage in ("parse", "execute", "write"):
            assert metrics.value("trace_stage_samples_total",
                                 endpoint="/ground", stage=stage) >= 1
            assert metrics.value("trace_stage_seconds_total",
                                 endpoint="/ground", stage=stage) >= 0.0


# -- fleet-wide aggregation over real sockets --------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="fleet mode needs fork")
def test_fleet_debug_traces_merges_every_worker_buffer():
    """Any worker answers /debug/traces with every worker's buffer
    merged over the peer mesh, each trace tagged with the worker that
    served it -- same degradation contract as /metrics."""
    with fleet_process(workers=2) as (port, _proc):
        trace_ids = [mint_trace_id() for _ in range(8)]
        for trace_id in trace_ids:
            status, _, headers = _traced_request(
                f"http://127.0.0.1:{port}", "/ground", GROUND_PAYLOAD,
                headers={TRACE_HEADER: trace_id, FORCE_HEADER: "1"},
            )
            assert status == 200
            assert headers[TRACE_HEADER] == trace_id

        merged: dict[str, dict] = {}

        def all_merged() -> bool:
            status, body, _ = _traced_request(
                f"http://127.0.0.1:{port}", "/debug/traces?n=200")
            assert status == 200
            merged.clear()
            merged.update({t["trace_id"]: t for t in body["traces"]})
            return set(trace_ids) <= set(merged)

        assert _wait_until(all_merged, timeout=15.0)
        for trace_id in trace_ids:
            trace = merged[trace_id]
            assert trace["worker_id"] in (0, 1)
            assert {"parse", "execute", "write"} \
                <= {span["name"] for span in trace["spans"]}

        # by-id lookup crosses worker buffers too: whichever worker
        # answers, it finds traces its peers served
        for trace_id in trace_ids[:4]:
            status, body, _ = _traced_request(
                f"http://127.0.0.1:{port}", f"/debug/traces?id={trace_id}")
            assert status == 200
            assert body["trace"]["trace_id"] == trace_id
