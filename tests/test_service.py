"""Tests for the online serving layer (repro.service).

Covers the dynamic micro-batcher's policy corners (parity, latency
flush, backpressure, graceful drain), every endpoint end-to-end over a
real HTTP socket, thread-safety of the shared caches the service leans
on, and the trained-context warm boot from the artifact store.
"""

from __future__ import annotations

import http.client
import json
import queue
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.experiments.artifacts as artifacts_module
import repro.experiments.context as context_module
from repro.engine import (
    ConversionCache,
    LRUCache,
    get_default_engine,
    set_default_engine,
)
from repro.experiments.context import MICRO
from repro.obs import FORCE_HEADER, TRACE_HEADER, mint_trace_id
from repro.quantity.grounder import grounder_for
from repro.service import (
    BatcherClosed,
    BatcherSaturated,
    DimensionService,
    MetricsRegistry,
    MicroBatcher,
    ServiceConfig,
    build_server,
)
from repro.service.http import ServiceRequestHandler
from repro.units import default_kb


# -- HTTP plumbing -----------------------------------------------------------


class Client:
    """A tiny urllib client bound to one test server."""

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def request(self, path: str, body: dict | None = None):
        """(status, parsed json | text) for one request."""
        if body is None:
            req = urllib.request.Request(self.base + path)
        else:
            req = urllib.request.Request(
                self.base + path,
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                raw = response.read()
                status = response.status
        except urllib.error.HTTPError as error:
            raw = error.read()
            status = error.code
        try:
            return status, json.loads(raw)
        except json.JSONDecodeError:
            return status, raw.decode("utf-8")

    def raw_post(self, path: str, data: bytes):
        req = urllib.request.Request(self.base + path, data=data)
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


def serve(service: DimensionService):
    """Start a server thread for a service; returns (server, client)."""
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, Client(server)


@pytest.fixture(scope="module")
def kb_service():
    """One KB-only service (no trained model) shared by endpoint tests."""
    service = DimensionService(ServiceConfig(port=0))
    server, client = serve(service)
    yield service, client
    server.shutdown()
    server.server_close()


# -- the micro-batcher --------------------------------------------------------


class TestMicroBatcher:
    def test_results_match_inputs_in_order(self):
        batcher = MicroBatcher(lambda items: [i * 2 for i in items],
                               max_batch_size=4, max_latency=0.005)
        try:
            futures = [batcher.submit(i) for i in range(20)]
            assert [f.result(timeout=5) for f in futures] \
                == [i * 2 for i in range(20)]
        finally:
            batcher.close()

    def test_batch_and_sequential_handling_are_identical(self):
        inputs = list(range(50))
        outcomes = {}
        for size in (1, 16):
            batcher = MicroBatcher(lambda items: [i * i for i in items],
                                   max_batch_size=size, max_latency=0.002)
            try:
                futures = [batcher.submit(i) for i in inputs]
                outcomes[size] = [f.result(timeout=5) for f in futures]
            finally:
                batcher.close()
        assert outcomes[1] == outcomes[16]

    def test_single_request_flushes_at_max_latency(self):
        batcher = MicroBatcher(lambda items: items,
                               max_batch_size=64, max_latency=0.02)
        try:
            started = time.perf_counter()
            assert batcher.submit("x").result(timeout=5) == "x"
            elapsed = time.perf_counter() - started
            # One lone request must not wait for a full batch; it is
            # released by the latency clock (+ generous scheduling slack).
            assert elapsed < 1.0
        finally:
            batcher.close()

    def test_requests_coalesce_while_worker_is_busy(self):
        release = threading.Event()
        sizes = []

        def record(items):
            sizes.append(len(items))
            release.wait(timeout=10)
            return items

        batcher = MicroBatcher(record, max_batch_size=32, max_latency=0.001)
        try:
            first = batcher.submit(0)
            while not sizes:  # worker holds batch #1
                time.sleep(0.001)
            later = [batcher.submit(i) for i in range(1, 9)]
            release.set()
            assert first.result(timeout=5) == 0
            assert [f.result(timeout=5) for f in later] == list(range(1, 9))
            # everything queued while the worker was busy became one batch
            assert sizes == [1, 8]
        finally:
            batcher.close()

    def test_full_queue_raises_saturated(self):
        release = threading.Event()
        batcher = MicroBatcher(
            lambda items: (release.wait(timeout=10), items)[1],
            max_batch_size=1, max_latency=0.0, max_queue=2,
        )
        try:
            first = batcher.submit("busy")  # worker picks this up
            while batcher.pending():
                time.sleep(0.001)
            queued = [batcher.submit(i) for i in range(2)]  # fills queue
            with pytest.raises(BatcherSaturated):
                batcher.submit("overflow")
            release.set()
            first.result(timeout=5)
            for future in queued:
                future.result(timeout=5)
        finally:
            batcher.close()

    def test_close_drains_queued_requests(self):
        slow = threading.Event()

        def fn(items):
            slow.wait(timeout=10)
            return [i + 100 for i in items]

        batcher = MicroBatcher(fn, max_batch_size=2, max_latency=0.0)
        futures = [batcher.submit(i) for i in range(7)]
        closer = threading.Thread(target=batcher.close)
        closer.start()
        slow.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        # graceful shutdown: everything already queued still completed
        assert [f.result(timeout=1) for f in futures] \
            == [i + 100 for i in range(7)]
        with pytest.raises(BatcherClosed):
            batcher.submit("late")

    def test_batch_error_fans_out_and_worker_survives(self):
        def fn(items):
            if "bad" in items:
                raise ValueError("poisoned batch")
            return items

        batcher = MicroBatcher(fn, max_batch_size=1, max_latency=0.0)
        try:
            with pytest.raises(ValueError, match="poisoned"):
                batcher.submit("bad").result(timeout=5)
            assert batcher.submit("good").result(timeout=5) == "good"
        finally:
            batcher.close()

    def test_length_mismatch_is_an_error(self):
        batcher = MicroBatcher(lambda items: [], max_batch_size=1,
                               max_latency=0.0)
        try:
            with pytest.raises(RuntimeError, match="0 results"):
                batcher.submit("x").result(timeout=5)
        finally:
            batcher.close()


# -- KB-backed endpoints over HTTP -------------------------------------------


class TestEndpoints:
    def test_healthz(self, kb_service):
        _, client = kb_service
        status, body = client.request("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["model"] == {"profile": "off", "loaded": False,
                                 "warm_loaded": None}
        assert "/solve" in body["endpoints"]
        assert body["kb_units"] > 1000

    def test_ground(self, kb_service):
        _, client = kb_service
        status, body = client.request(
            "/ground", {"text": "货车以9.9m/s的速度行驶了3 h"}
        )
        assert status == 200
        magnitudes = [q["magnitude"] for q in body["quantities"]]
        assert magnitudes == [9.9, 3.0]
        hour = body["quantities"][1]
        assert hour["unit"] == "h"
        assert hour["record"]["si_factor"] == 3600.0
        assert hour["record"]["dimension"]["formula"] == "T"

    def test_extract_keeps_bare_numbers(self, kb_service):
        _, client = kb_service
        status, body = client.request(
            "/extract", {"text": "花了 25 元买了 3 个苹果"}
        )
        assert status == 200
        assert any(not q["grounded"] for q in body["quantities"])

    def test_convert(self, kb_service):
        _, client = kb_service
        status, body = client.request(
            "/convert", {"value": 2.06, "source": "m", "target": "cm"}
        )
        assert status == 200
        assert body["magnitude"] == pytest.approx(206.0)
        assert body["unit"] == "cm"
        assert body["source"]["id"] == "M"

    def test_convert_affine(self, kb_service):
        _, client = kb_service
        status, body = client.request(
            "/convert",
            {"value": 100, "source": "摄氏度", "target": "K"},
        )
        assert status == 200
        assert body["magnitude"] == pytest.approx(373.15)

    def test_convert_incomparable_is_422(self, kb_service):
        _, client = kb_service
        status, body = client.request(
            "/convert", {"value": 1, "source": "kg", "target": "m"}
        )
        assert status == 422
        assert "dimension" in body["error"]

    def test_convert_overflow_is_422(self, kb_service):
        """1e308 km is 1e314 mm: inf has no JSON encoding, so no 200."""
        _, client = kb_service
        status, body = client.request(
            "/convert", {"value": 1e308, "source": "km", "target": "mm"}
        )
        assert status == 422
        assert "not finite" in body["error"]

    def test_compare(self, kb_service):
        _, client = kb_service
        status, body = client.request("/compare", {"quantities": [
            {"value": 1, "unit": "km"},
            {"value": 5000, "unit": "m"},
            {"value": 2, "unit": "mile"},
        ]})
        assert status == 200
        assert body["largest"] == 1
        assert body["ranking"][0] == 1
        assert body["dimension"]["formula"] == "L"

    def test_compare_mixed_dimensions_is_422(self, kb_service):
        _, client = kb_service
        status, _ = client.request("/compare", {"quantities": [
            {"value": 1, "unit": "km"}, {"value": 1, "unit": "kg"},
        ]})
        assert status == 422

    def test_compare_overflow_is_422(self, kb_service):
        _, client = kb_service
        status, body = client.request("/compare", {"quantities": [
            {"value": 1e308, "unit": "km"}, {"value": 1, "unit": "m"},
        ]})
        assert status == 422
        assert "not finite" in body["error"]

    def test_dimension_expression(self, kb_service):
        _, client = kb_service
        status, body = client.request(
            "/dimension", {"mentions": ["km", "h"], "ops": ["/"]}
        )
        assert status == 200
        assert body["dimension"]["formula"] == "LT-1"
        assert body["dimension"]["si"] == "m/s"

    def test_dimension_single_mention(self, kb_service):
        _, client = kb_service
        status, body = client.request("/dimension", {"mention": "N"})
        assert status == 200
        assert body["dimension"]["formula"] == "LMT-2"

    def test_dimension_unlinkable_is_422(self, kb_service):
        _, client = kb_service
        status, _ = client.request(
            "/dimension", {"mention": "zzzzqqqq"}
        )
        assert status == 422

    def test_solve_unavailable_without_model(self, kb_service):
        _, client = kb_service
        status, body = client.request("/solve", {"text": "3 个苹果"})
        assert status == 503
        assert "--profile" in body["error"]

    def test_missing_field_is_400(self, kb_service):
        _, client = kb_service
        status, body = client.request("/ground", {})
        assert status == 400
        assert "text" in body["error"]

    def test_invalid_json_is_400(self, kb_service):
        _, client = kb_service
        status, body = client.raw_post("/ground", b"{not json")
        assert status == 400
        assert "invalid JSON" in body["error"]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_literal_is_400(self, kb_service, literal):
        """NaN/Infinity are not RFC 8259 JSON; echoing them back would
        make the 200 body unparseable by strict clients."""
        _, client = kb_service
        data = f'{{"value": {literal}, "source": "m", "target": "cm"}}'
        status, body = client.raw_post("/convert", data.encode("utf-8"))
        assert status == 400
        assert body["error"] == (
            f"invalid JSON body: {literal} is not valid JSON")

    def test_unknown_route_is_404(self, kb_service):
        _, client = kb_service
        status, body = client.request("/nope", {})
        assert status == 404
        assert "/ground" in body["endpoints"]

    def test_wrong_method_is_405(self, kb_service):
        _, client = kb_service
        status, _ = client.request("/ground")  # GET on a POST route
        assert status == 405

    def test_negative_content_length_is_400_not_a_hang(self, kb_service):
        """A negative Content-Length must not block the handler thread
        on rfile.read(-N) waiting for an EOF that never comes."""
        import http.client

        _, client = kb_service
        host, port = client.base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.putrequest("POST", "/ground", skip_host=False)
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()  # raises on the old hang
            assert response.status == 400
        finally:
            conn.close()

    def test_early_errors_close_the_connection(self, kb_service):
        """405 answers before the body is read; the connection must be
        closed, or the unread body desyncs the next keep-alive request."""
        import http.client

        _, client = kb_service
        host, port = client.base.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            body = json.dumps({"text": "abc"}).encode("utf-8")
            conn.request("POST", "/healthz", body=body)
            response = conn.getresponse()
            assert response.status == 405
            assert response.headers.get("Connection") == "close"
            response.read()
        finally:
            conn.close()

    def test_backend_error_is_a_500_and_counted(self, monkeypatch):
        """Batch-fn exceptions fan out through futures; dispatch must
        turn them into a 500 body and still count the request."""
        service = DimensionService(ServiceConfig(port=0))
        try:
            # patch the batcher's fn (the grounder instance is shared
            # process-wide; its bound method was captured at wiring)
            monkeypatch.setattr(
                service._ground_batcher, "fn",
                lambda texts: 1 / 0,
            )
            status, body = service.dispatch("/ground", {"text": "1 km"})
            assert status == 500
            assert "ZeroDivisionError" in body["error"]
            assert service.metrics.value(
                "requests_total", endpoint="/ground", status="500"
            ) == 1
        finally:
            service.close()

    def test_metrics_counters_move(self, kb_service):
        service, client = kb_service
        before = service.metrics.value(
            "requests_total", endpoint="/ground", status="200"
        )
        client.request("/ground", {"text": "1 km"})
        status, text = client.request("/metrics")
        assert status == 200
        assert "# TYPE repro_service_requests_total counter" in text
        after = service.metrics.value(
            "requests_total", endpoint="/ground", status="200"
        )
        assert after == before + 1
        assert service.metrics.value(
            "batches_total", endpoint="ground"
        ) >= 1

    def test_label_values_are_escaped_in_exposition(self):
        """Backslash, quote and newline in label values must render as
        ``\\\\``, ``\\"`` and ``\\n`` -- a raw newline would smear one
        sample across two exposition lines and break scrapers."""
        registry = MetricsRegistry()
        registry.inc("requests_total",
                     endpoint='he said "hi"\nC:\\temp', status="200")
        rendered = registry.render()
        [sample] = [line for line in rendered.splitlines()
                    if line.startswith("repro_service_requests_total{")]
        assert sample == ('repro_service_requests_total{endpoint='
                          '"he said \\"hi\\"\\nC:\\\\temp",status="200"} 1')

    def test_label_escaping_order_backslash_first(self):
        """A pre-escaped-looking value like ``a\\n`` (backslash + n)
        must come out ``a\\\\n``, not be conflated with a newline."""
        registry = MetricsRegistry()
        registry.set_gauge("queue_depth", 2, endpoint="a\\n")
        rendered = registry.render()
        assert 'endpoint="a\\\\n"} 2' in rendered
        # round-trip sanity: the escaped line is still one line
        assert all("\n" not in line for line in rendered.splitlines())

    def test_concurrent_load_is_coalesced_and_identical(self):
        """Same traffic, batch=1 vs batch=32: byte-identical bodies."""
        texts = [
            f"货车以{9 + i}.5m/s的速度行驶了{i} h，油箱剩{i * 3}升"
            for i in range(24)
        ]

        def collect(size):
            service = DimensionService(ServiceConfig(
                port=0, max_batch_size=size, max_latency=0.005,
            ))
            server, client = serve(service)
            try:
                with ThreadPoolExecutor(max_workers=12) as pool:
                    bodies = list(pool.map(
                        lambda t: client.request("/ground", {"text": t}),
                        texts,
                    ))
                return service, bodies
            finally:
                server.shutdown()
                server.server_close()

        _, sequential = collect(1)
        batched_service, batched = collect(32)
        assert batched == sequential
        batches = batched_service.metrics.value(
            "batches_total", endpoint="ground"
        )
        served = batched_service.metrics.value(
            "batched_requests_total", endpoint="ground"
        )
        assert served == len(texts)
        # the whole point: fewer batch calls than requests
        assert batches < len(texts)


# -- transport: one write per response ---------------------------------------


class _CountingHandler(ServiceRequestHandler):
    """Reports each request's ``wfile`` writes (one ``sendall`` each)
    and the accepted socket's ``TCP_NODELAY`` flag through queues."""

    writes: queue.Queue
    nodelay: queue.Queue

    def setup(self) -> None:
        super().setup()
        # bind this connection to the queues of the test that opened it
        self.writes, self.nodelay = self.writes, self.nodelay
        self.nodelay.put(self.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY))
        write = self.wfile.write

        def counting_write(data):
            self._writes += 1
            return write(data)

        self.wfile.write = counting_write

    def handle_one_request(self) -> None:
        self._writes = 0
        super().handle_one_request()
        if self._writes:
            self.writes.put(self._writes)


def _post(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class TestTransport:
    @pytest.fixture(scope="class")
    def server(self):
        service = DimensionService(ServiceConfig(port=0))
        server = build_server(service)
        server.RequestHandlerClass = _CountingHandler
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    @pytest.fixture
    def port(self, server):
        _CountingHandler.writes = queue.Queue()
        _CountingHandler.nodelay = queue.Queue()
        return server.server_address[1]

    @staticmethod
    def exchange(sock: socket.socket, request: bytes, method: str = "GET"):
        sock.sendall(request)
        response = http.client.HTTPResponse(sock, method=method)
        response.begin()
        return response, response.read()

    @pytest.mark.parametrize("request_bytes, status", [
        (_post("/convert", b'{"value": 2, "source": "m", "target": "cm"}'),
         200),
        (b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n", 200),
        (_post("/ground", b"{not json"), 400),
        (b"GET /ground HTTP/1.1\r\nHost: t\r\n\r\n", 405),
        (b"PUT /convert HTTP/1.1\r\nHost: t\r\n\r\n", 501),
        # one byte past the stdlib's 65536-byte request-line cap, and
        # nothing after it, so the server closes with nothing unread
        (b"GET /" + b"a" * 65532, 414),
        (b"GARBAGE\r\n\r\n", 400),
    ], ids=["convert-200", "metrics-200", "json-400", "refuse-405",
            "put-501", "uri-414", "request-line-400"])
    def test_every_response_is_one_write(self, port, request_bytes, status):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            response, body = self.exchange(sock, request_bytes)
        assert response.status == status
        assert _CountingHandler.writes.get(timeout=5) == 1
        assert int(response.headers["Content-Length"]) == len(body)
        if status != 200:
            assert response.headers["Content-Type"].startswith(
                "application/json")
            assert isinstance(json.loads(body)["error"], str)

    def test_accepted_connection_has_nodelay(self, port):
        assert ServiceRequestHandler.disable_nagle_algorithm is True
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            self.exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert _CountingHandler.nodelay.get(timeout=5) != 0

    def test_keep_alive_framing_survives_single_writes(self, port):
        """Back-to-back requests on one socket: each answer is framed by
        its Content-Length and the connection stays open between them."""
        convert = _post("/convert",
                        b'{"value": 1, "source": "km", "target": "m"}')
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            for _ in range(3):
                response, body = self.exchange(sock, convert)
                assert response.status == 200
                assert json.loads(body)["magnitude"] == pytest.approx(1000.0)
                assert response.headers.get("Connection") is None
        assert [_CountingHandler.writes.get(timeout=5)
                for _ in range(3)] == [1, 1, 1]
        assert _CountingHandler.nodelay.qsize() == 1

    def test_stdlib_errors_are_json_and_close(self, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            response, body = self.exchange(
                sock, b"DELETE /ground HTTP/1.1\r\nHost: t\r\n\r\n")
            assert sock.recv(1) == b""  # the server closed its end
        assert response.status == 501
        assert response.headers["Connection"] == "close"
        assert json.loads(body) == {"error": "Unsupported method ('DELETE')"}
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            response, body = self.exchange(sock, b"GET /" + b"a" * 65532)
        assert response.status == 414
        assert json.loads(body) == {"error": "Request-URI Too Long"}

    def test_http09_answer_is_the_body_alone(self, port):
        """An HTTP/0.9 request line gets no status line or headers."""
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            raw = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(raw)["status"] == "ok"
        assert _CountingHandler.writes.get(timeout=5) == 1

    def test_head_error_has_no_body(self, port):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            response, body = self.exchange(
                sock, b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                method="HEAD")
            assert sock.recv(1) == b""  # nothing followed the head
        assert response.status == 501
        assert body == b""
        assert int(response.headers["Content-Length"]) > 0


# -- shared-cache thread safety ----------------------------------------------


class TestConcurrencySafety:
    def test_lru_cache_survives_a_hammering_pool(self):
        cache = LRUCache(64)
        ops_per_thread = 2000

        def hammer(worker: int):
            for i in range(ops_per_thread):
                key = (worker * 7 + i) % 96
                if cache.get(key) is None:
                    cache.put(key, key * 2)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        stats = cache.stats()
        # no lost updates: every get was counted exactly once
        assert stats.hits + stats.misses == 8 * ops_per_thread
        assert len(cache) <= 64

    def test_conversion_cache_concurrent_converts_agree(self):
        kb = default_kb()
        cache = ConversionCache(maxsize=128)
        metre, centi = kb.get("M"), kb.get("CentiM")
        kilo, hour = kb.get("KiloM"), kb.get("HR")
        pairs = [(metre, centi), (kilo, metre), (hour, kb.get("SEC"))]
        results = []

        def convert_all(_):
            out = []
            for source, target in pairs:
                out.append(cache.convert(3.5, source, target))
            return out

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(convert_all, range(32)))
        assert all(row == results[0] for row in results)
        stats = cache.stats()
        assert stats.hits + stats.misses == 32 * len(pairs)

    def test_default_engine_is_a_single_instance_under_races(self):
        set_default_engine(None)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                engines = list(pool.map(
                    lambda _: get_default_engine(), range(64)
                ))
            assert len({id(engine) for engine in engines}) == 1
        finally:
            set_default_engine(None)

    def test_grounder_for_is_a_single_instance_under_races(self):
        kb = default_kb()
        if hasattr(kb, "_default_grounder"):
            del kb._default_grounder
        with ThreadPoolExecutor(max_workers=16) as pool:
            grounders = list(pool.map(lambda _: grounder_for(kb), range(64)))
        assert len({id(grounder) for grounder in grounders}) == 1

    def test_service_handles_parallel_mixed_traffic(self, kb_service):
        _, client = kb_service

        def one_round(i):
            return (
                client.request("/ground", {"text": f"{i} km 和 {i * 2} m"}),
                client.request("/convert",
                               {"value": i, "source": "km", "target": "m"}),
                client.request("/compare", {"quantities": [
                    {"value": i, "unit": "km"}, {"value": i, "unit": "m"},
                ]}),
            )

        with ThreadPoolExecutor(max_workers=10) as pool:
            rounds = list(pool.map(one_round, range(1, 41)))
        for i, (ground, convert, compare) in enumerate(rounds, start=1):
            assert ground[0] == convert[0] == compare[0] == 200
            assert convert[1]["magnitude"] == pytest.approx(i * 1000.0)
            assert compare[1]["largest"] == 0


# -- trained-model serving (micro budget) ------------------------------------


@pytest.fixture(scope="module")
def micro_store(tmp_path_factory):
    """Isolated artifact store + micro budgets for /solve tests."""
    original_cache = dict(context_module._CACHE)
    context_module._CACHE.clear()
    store_root = tmp_path_factory.mktemp("service-artifacts")
    artifacts_module.set_default_store(store_root)
    yield store_root
    artifacts_module.reset_default_store()
    context_module._CACHE.clear()
    context_module._CACHE.update(original_cache)


class TestSolveServing:
    @pytest.fixture(scope="class")
    def solve_service(self, micro_store):
        service = DimensionService(ServiceConfig(
            port=0, profile="micro", seed=11,
            artifact_dir=str(micro_store),
        ))
        server, client = serve(service)
        yield service, client
        server.shutdown()
        server.server_close()

    def test_first_boot_cold_trains_and_persists(self, solve_service,
                                                 micro_store):
        service, _ = solve_service
        assert service.warm_loaded is False
        assert list(micro_store.glob("ctx-*"))

    def test_solve_decodes_an_equation(self, solve_service):
        _, client = solve_service
        status, body = client.request(
            "/solve",
            {"text": "小明有 3 个苹果，又买了 5 个，现在有几个苹果？"},
        )
        assert status == 200
        assert set(body) == {"text", "equation", "answer",
                             "quantities", "prompt"}
        assert [q["magnitude"] for q in body["quantities"]] == [3.0, 5.0]
        assert body["prompt"].startswith("task: mwp text:")
        assert " N1 " in body["prompt"] and " N2 " in body["prompt"]

    def test_solve_without_numbers_is_422(self, solve_service):
        _, client = solve_service
        status, body = client.request("/solve", {"text": "苹果和梨"})
        assert status == 422
        assert "quantities" in body["error"]

    def test_batched_solves_match_sequential_exactly(self, solve_service):
        service, client = solve_service
        texts = [
            f"书架上有 {i} 本书，拿走了 {i // 2} 本，还剩几本？"
            for i in range(2, 14)
        ]
        expected = [
            result.to_wire()
            for result in service.solver.solve_texts(texts)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(
                lambda t: client.request("/solve", {"text": t}), texts
            ))
        assert [status for status, _ in responses] == [200] * len(texts)
        got = [{k: v for k, v in body.items() if k != "text"}
               for _, body in responses]
        assert got == json.loads(json.dumps(expected))

    def test_solve_exports_decode_metrics(self, solve_service):
        """Every /solve decode feeds the solve_decode_* counters, so
        per-step decode latency is observable at /metrics."""
        service, client = solve_service
        status, _ = client.request(
            "/solve", {"text": "农场有 7 只鸡，又买了 2 只，现在有几只？"}
        )
        assert status == 200
        metrics = service.metrics
        tokens = metrics.value("solve_decode_tokens_total")
        steps = metrics.value("solve_decode_steps_total")
        assert tokens > 0
        assert steps > 0
        assert metrics.value("solve_decode_prefills_total") > 0
        assert metrics.value("solve_decode_step_seconds_total") > 0.0
        assert metrics.value("solve_decode_prefill_seconds_total") > 0.0
        rendered = client.request("/metrics")[1]
        assert "repro_service_solve_decode_tokens_total" in rendered
        assert "repro_service_solve_decode_step_seconds_total" in rendered

    def test_solve_trace_covers_the_whole_lifecycle(self, solve_service):
        """One forced /solve trace carries the complete span tree --
        parse, validate, queue, admit, prefill, decode, resolve, write
        -- with monotonic starts, a non-overlapping queue->decode
        pipeline, and stage time that accounts for the request."""
        service, client = solve_service
        trace_id = mint_trace_id()
        req = urllib.request.Request(
            client.base + "/solve",
            data=json.dumps(
                {"text": "仓库有 9 箱货，运走了 4 箱，还剩几箱？"}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     TRACE_HEADER: trace_id, FORCE_HEADER: "1"},
        )
        with urllib.request.urlopen(req, timeout=60) as response:
            assert response.status == 200
            assert response.headers[TRACE_HEADER] == trace_id
            response.read()
        deadline = time.monotonic() + 5
        while (service.tracer.buffer.get(trace_id) is None
               and time.monotonic() < deadline):
            time.sleep(0.005)  # trace seals just after the response

        trace = service.tracer.buffer.get(trace_id)
        assert trace is not None
        spans = {span["name"]: span for span in trace["spans"]}
        assert set(spans) == {"parse", "validate", "queue", "admit",
                              "prefill", "decode", "resolve", "write"}
        assert spans["decode"]["attrs"]["tokens"] >= 1
        assert spans["decode"]["attrs"]["steps"] >= 1

        # starts are monotonic along the lifecycle
        lifecycle = ["parse", "validate", "queue", "admit",
                     "prefill", "decode", "resolve", "write"]
        starts = [spans[name]["start_ms"] for name in lifecycle]
        assert starts == sorted(starts)
        # the scheduler pipeline proper never overlaps
        previous_end = spans["queue"]["start_ms"]
        for name in ("queue", "admit", "prefill", "decode"):
            span = spans[name]
            assert span["start_ms"] >= previous_end - 0.005
            previous_end = span["start_ms"] + span["duration_ms"]
        # and the stage timings account for the observed wall latency
        # (resolve may overlap write by a hair -- the resolver thread
        # races the handler's seal -- hence the 10% tolerance)
        accounted = sum(span["duration_ms"] for span in spans.values())
        assert accounted <= trace["duration_ms"] * 1.10
        assert accounted >= trace["duration_ms"] * 0.50

    def test_scheduler_gauges_and_latency_histogram_exported(
        self, solve_service
    ):
        """The continuous scheduler's observability surface: queue
        depth, in-flight rows, and a per-endpoint latency histogram
        from which p50/p99 are derivable."""
        service, client = solve_service
        status, health = client.request("/healthz")
        assert status == 200
        assert health["batching"]["solve_scheduler"] == "continuous"
        assert health["batching"]["max_inflight_rows"] == 32
        client.request(
            "/solve", {"text": "篮子里有 4 个橙子，又放入 6 个，共几个？"}
        )
        rendered = client.request("/metrics")[1]
        assert "repro_service_solve_queue_depth 0" in rendered
        assert "repro_service_solve_inflight_rows 0" in rendered
        assert "# TYPE repro_service_request_seconds histogram" in rendered
        assert 'repro_service_request_seconds_bucket{endpoint="/solve",' \
            'le="+Inf"}' in rendered
        assert 'repro_service_request_seconds_count{endpoint="/solve"}' \
            in rendered
        hist = service.metrics.histogram("request_seconds",
                                         endpoint="/solve")
        assert hist is not None
        assert hist["count"] >= 1
        assert hist["buckets"][-1] <= hist["count"]

    def test_batch_scheduler_serves_identical_answers(self, solve_service,
                                                      micro_store):
        """--solve-scheduler batch keeps the run-to-completion path and
        its responses are byte-identical to the continuous default."""
        service, client = solve_service
        texts = [
            f"停车场有 {i} 辆车，开走了 {max(i - 3, 1)} 辆，还剩几辆？"
            for i in range(4, 10)
        ]
        continuous = [
            client.request("/solve", {"text": t})[1] for t in texts
        ]
        batch = DimensionService(ServiceConfig(
            port=0, profile="micro", seed=11,
            artifact_dir=str(micro_store), solve_scheduler="batch",
        ))
        try:
            assert isinstance(batch._solve_batcher, MicroBatcher)
            got = [batch.dispatch("/solve", {"text": t})[1] for t in texts]
        finally:
            batch.close()
        assert json.loads(json.dumps(got)) == continuous

    def test_second_boot_is_warm_without_retraining(self, solve_service,
                                                    micro_store):
        """The acceptance path: a fresh service (fresh in-process cache)
        boots from the persisted artifact without touching training."""
        from repro.core.dimperc import DimPercPipeline

        context_module._CACHE.clear()
        original_run = DimPercPipeline.run

        def forbidden_run(*args, **kwargs):
            pytest.fail("warm boot must not retrain")

        DimPercPipeline.run = forbidden_run
        try:
            warm = DimensionService(ServiceConfig(
                port=0, profile="micro", seed=11,
                artifact_dir=str(micro_store),
            ))
        finally:
            DimPercPipeline.run = original_run
        try:
            assert warm.warm_loaded is True
            assert warm.solver is not None
        finally:
            warm.close()
