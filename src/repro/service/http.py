"""The stdlib HTTP transport for :class:`~repro.service.app.DimensionService`.

One :class:`ThreadingHTTPServer` thread per connection parses JSON,
delegates to ``service.dispatch`` and writes the (status, body) pair
back.  Most endpoints answer on the handler thread itself; ``/solve``
handler threads block on the decode scheduler's futures, so the thread
pool is where concurrent solves wait for a KV row.

Every response -- status line, headers and body -- leaves in a single
socket write on a ``TCP_NODELAY`` connection.  Writing the headers and
the body separately lets Nagle's algorithm hold the body until the
client ACKs the headers, and a keep-alive client delays that ACK by
~40 ms.  The stdlib's own error replies (400 request line, 414, 431, 501,
505) take the same single-write JSON path via :meth:`send_error`.

The server owns graceful shutdown ordering: ``shutdown()`` first stops
accepting connections, then drains the ``/solve`` queue
(``service.close()``), so in-flight requests complete instead of dying
with the socket.
"""

from __future__ import annotations

import json
import re
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.obs import FORCE_HEADER, TRACE_HEADER, Trace
from repro.service.app import ENDPOINTS, DimensionService, encode_body
from repro.service.deadline import DEADLINE_HEADER, Deadline, Probe

#: Cap request bodies well above any sane problem text; beyond it we
#: refuse early instead of buffering unbounded input per thread.
MAX_BODY_BYTES = 1 << 20

#: Inbound trace ids must look like ids; anything else is replaced by a
#: minted one instead of round-tripping attacker-shaped bytes into logs.
_TRACE_ID_RE = re.compile(r"^[0-9A-Za-z_-]{1,64}$")

#: Query/header values accepted as "force this trace sampled".
_TRUTHY = ("1", "true", "yes", "on")


def _reject_constant(literal: str):
    """``json.loads`` hook: ``NaN``/``Infinity``/``-Infinity`` are not
    RFC 8259 JSON, so a body carrying them is a 400, not a value."""
    raise ValueError(f"{literal} is not valid JSON")


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Route GET/POST requests into the service dispatch table."""

    #: Quiet by default; the CLI flips this on with ``--verbose``.
    log_requests = False
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted connection, so a response larger
    #: than one segment never has its tail held back waiting for an ACK.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> DimensionService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.log_requests:
            super().log_message(format, *args)

    def _respond(self, status: int, body, close: bool = False,
                 trace: Trace | None = None) -> None:
        payload, content_type = encode_body(body)
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if status in (429, 503, 504):
                # a queue-depth-derived hint so well-behaved clients
                # spread their retries instead of hammering a hot queue
                self.send_header(
                    "Retry-After", str(self.service.retry_after_seconds()))
            if trace is not None:
                # echo the id whether minted or inbound, so any client can
                # follow up with /debug/traces?id=<value>
                self.send_header(TRACE_HEADER, trace.trace_id)
            if close:
                # announces it to the client and sets self.close_connection
                self.send_header("Connection", "close")
            # end_headers() would flush the head on its own; one write
            # carries head, blank line and body (HTTP/0.9 has no head)
            chunks = getattr(self, "_headers_buffer", [])
            self._headers_buffer = []
            if self.request_version != "HTTP/0.9":
                chunks.append(b"\r\n")
            if self.command != "HEAD":
                chunks.append(payload)
            self.wfile.write(b"".join(chunks))
        except (BrokenPipeError, ConnectionResetError):
            # the client hung up mid-response (the 499/expired-deadline
            # path makes this routine); nothing to answer, just make
            # sure the desynced socket is not reused for keep-alive
            self.close_connection = True

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """The stdlib's error replies (400 request line, 414, 431, 501,
        505) as a JSON ``{"error": ...}`` body in one write, closing."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        if self.command is None:
            # the request line never parsed, so no version was read;
            # answer with a status line anyway, as the 414 path does
            self.request_version = ""
        self.log_error("code %d, message %s", code, message)
        self._respond(code, {"error": message}, close=True)

    def _refuse(self, status: int, body: dict) -> None:
        """Answer an early error *before* the body was consumed.

        Unread body bytes would be parsed as the next request line on a
        keep-alive connection (a 405'd POST desyncs every later request
        on that socket), so these responses always close the connection.
        """
        self._respond(status, body, close=True)

    def _check_method(self, method: str) -> bool:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        expected = ENDPOINTS.get(path)
        if expected is not None and expected != method:
            self._refuse(405, {
                "error": f"{path} expects {expected}, got {method}"
            })
            return False
        return True

    # -- tracing ------------------------------------------------------------

    @staticmethod
    def _query(raw: str) -> dict[str, str]:
        """Query string -> flat dict (last value wins per key)."""
        return {key: values[-1] for key, values in parse_qs(raw).items()}

    def _open_trace(self, path: str, query: dict[str, str]) -> Trace:
        """Start this request's trace from the inbound headers/query."""
        inbound = (self.headers.get(TRACE_HEADER) or "").strip()
        if not _TRACE_ID_RE.match(inbound):
            inbound = ""
        force = (
            (self.headers.get(FORCE_HEADER) or "").strip().lower() in _TRUTHY
            or query.get("force", "").strip().lower() in _TRUTHY
        )
        return self.service.open_trace(
            path.rstrip("/") or "/", trace_id=inbound or None, force=force
        )

    # -- deadlines / client liveness ----------------------------------------

    def _parse_deadline(self) -> tuple[Deadline | None, str | None]:
        """The request's budget: header first, else the service default.

        Returns ``(deadline, error)``; a malformed header is the
        client's bug and reported as such (400), never silently treated
        as "no deadline".
        """
        raw = (self.headers.get(DEADLINE_HEADER) or "").strip()
        if not raw:
            return Deadline.from_ms(
                self.service.config.default_deadline_ms), None
        try:
            budget = float(raw)
        except ValueError:
            budget = float("nan")
        if not budget > 0 or budget != budget or budget == float("inf"):
            return None, (
                f"invalid {DEADLINE_HEADER} header {raw!r}: "
                f"expected a positive number of milliseconds"
            )
        return Deadline(budget), None

    def _client_probe(self) -> Probe:
        """A liveness probe for this connection's client socket.

        A zero-byte ``MSG_PEEK | MSG_DONTWAIT`` read distinguishes
        "still connected" (would-block, or pipelined bytes waiting)
        from "gone" (orderly EOF or a reset) without consuming request
        bytes.  Platforms without ``MSG_DONTWAIT`` report always-alive
        -- shedding is an optimisation, never a correctness gate.
        """
        conn = self.connection
        if not hasattr(socket, "MSG_DONTWAIT"):
            return lambda: True

        def probe() -> bool:
            try:
                data = conn.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
            except (BlockingIOError, InterruptedError):
                return True
            except (OSError, ValueError):
                return False
            return bool(data)

        return probe

    def _finish_response(self, trace: Trace, status: int, body,
                         close: bool = False) -> None:
        """Write the response inside the trace's ``write`` span, then seal."""
        trace.begin("write")
        try:
            self._respond(status, body, close=close, trace=trace)
        finally:
            self.service.finish_trace(trace, status)

    # -- verbs --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 -- http.server naming
        """Serve the GET endpoints (/healthz, /metrics, /debug/traces)."""
        if not self._check_method("GET"):
            return
        parts = urlsplit(self.path)
        query = self._query(parts.query)
        status, body = self.service.dispatch(parts.path, query or None)
        self._respond(status, body)

    def do_POST(self) -> None:  # noqa: N802 -- http.server naming
        """Parse a JSON body and dispatch a POST endpoint."""
        if not self._check_method("POST"):
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._refuse(411, {"error": "invalid Content-Length"})
            return
        if length < 0:
            # rfile.read(-N) would block on EOF that never comes on a
            # keep-alive socket, pinning this handler thread forever.
            self._refuse(400, {"error": "negative Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self._refuse(413, {
                "error": f"request body exceeds {MAX_BODY_BYTES} bytes"
            })
            return
        deadline, deadline_error = self._parse_deadline()
        if deadline_error is not None:
            self._refuse(400, {"error": deadline_error})
            return
        parts = urlsplit(self.path)
        trace = self._open_trace(parts.path, self._query(parts.query))
        if deadline is not None:
            trace.annotate(deadline_ms=deadline.budget_ms)
        error: str | None = None
        with trace.span("parse"):
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(
                    raw.decode("utf-8"), parse_constant=_reject_constant,
                ) if raw else {}
            except ValueError as exc:  # bad UTF-8, bad JSON, NaN/Infinity
                payload, error = None, f"invalid JSON body: {exc}"
            if error is None and not isinstance(payload, dict):
                payload, error = None, "request body must be a JSON object"
        if error is not None:
            self._finish_response(trace, 400, {"error": error})
            return
        status, body = self.service.dispatch(
            parts.path, payload, trace,
            deadline=deadline, probe=self._client_probe(),
        )
        self._finish_response(trace, status, body)


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service and drains on stop."""

    daemon_threads = True
    #: http.server's default accept backlog of 5 resets connections the
    #: moment a client pool bursts; size it for real concurrent load.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: DimensionService,
        *,
        reuse_port: bool = False,
        bind_and_activate: bool = True,
    ):
        """``reuse_port`` sets ``SO_REUSEPORT`` before binding so every
        fleet worker can bind the same port and let the kernel spread
        accepted connections across them (``socketserver`` only grew
        ``allow_reuse_port`` in 3.11, so the option is applied manually
        in :meth:`server_bind` for 3.10 compatibility).

        ``bind_and_activate=False`` builds a server that never listens:
        the fd-passing fleet mode feeds it accepted connections through
        :meth:`~socketserver.BaseServer.process_request` instead.
        """
        self.reuse_port = reuse_port
        super().__init__(address, ServiceRequestHandler, bind_and_activate)
        if not bind_and_activate:
            # HTTPServer.server_bind normally fills these in.
            self.server_name = address[0] or "localhost"
            self.server_port = address[1]
        self.service = service

    def server_bind(self) -> None:
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not supported on this platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()

    def shutdown(self) -> None:
        """Stop the accept loop, then drain the ``/solve`` queue."""
        super().shutdown()
        self.service.close()


def build_server(service: DimensionService) -> ServiceServer:
    """Bind the configured host/port (port 0 picks a free one)."""
    return ServiceServer(
        (service.config.host, service.config.port), service
    )
