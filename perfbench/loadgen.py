"""Closed-loop HTTP load over keep-alive connections.

Each client thread owns one ``http.client`` connection and sends its
next request only after the previous response's last byte arrived and
a seeded think time drawn from U(0, THINK_MAX) has passed.  Without the
think time, sends phase-lock to the kernel's timer tick (a delayed-ACK
stall ends on a tick), so every latency lands near a multiple of the
4 ms tick and percentiles hop between multiples from run to run.
Requests come from one shared indexed stream, so which thread sends a
request never changes what is sent.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import re
import threading
import time

#: Header carrying the request index; the service echoes it as its trace
#: id, and traced runs key their spans by it.
REQUEST_ID_HEADER = "X-Repro-Trace"

THINK_MAX = 0.004

_SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{.*\})? (\S+)$")


class Outcome:
    """One answered (or failed) request of a stream."""

    __slots__ = ("index", "status", "body", "sent", "done", "error")

    def __init__(self, index: int, sent: float):
        self.index = index
        self.sent = sent
        self.done = sent
        self.status = 0
        self.body = b""
        self.error = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


class Client:
    """One keep-alive connection to the service."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def call(self, method: str, path: str, body: dict | None = None,
             rid: str = "") -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None \
            else {}
        if rid:
            headers[REQUEST_ID_HEADER] = rid
        payload = json.dumps(body).encode("utf-8") if body is not None \
            else None
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()   # reconnects on the next request
            raise

    def close(self) -> None:
        self.conn.close()


def think_times(seed: int, count: int) -> list[float]:
    """Per-request think times (seconds) of a stream, from its seed."""
    rng = random.Random(f"think:{seed}")
    return [rng.uniform(0.0, THINK_MAX) for _ in range(count)]


def run_closed_loop(port: int, stream: list[tuple[str, dict]], *,
                    clients: int, seconds: float | None, prefix: str,
                    minimum: int = 0, think: list[float] | None = None,
                    ) -> tuple[list[Outcome], float]:
    """Drive ``stream`` from ``clients`` threads; returns (outcomes, wall s).

    With ``seconds`` set, clients stop taking new requests once that
    much time has passed but never before ``minimum`` requests were
    taken; without it the whole stream is sent.  ``think[i]`` seconds
    pass before request ``i`` is sent.  Outcomes are ordered by request
    index.
    """
    lock = threading.Lock()
    cursor = [0]
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    stop_at = started + seconds if seconds is not None else None

    def take() -> int | None:
        with lock:
            index = cursor[0]
            if index >= len(stream):
                return None
            if (stop_at is not None and index >= minimum
                    and time.perf_counter() >= stop_at):
                return None
            cursor[0] += 1
            return index

    def worker() -> None:
        client = Client(port)
        local: list[Outcome] = []
        try:
            while (index := take()) is not None:
                path, body = stream[index]
                if think is not None:
                    time.sleep(think[index])
                outcome = Outcome(index, time.perf_counter())
                try:
                    outcome.status, outcome.body = client.call(
                        "POST", path, body, f"{prefix}{index}")
                except (OSError, http.client.HTTPException) as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                outcome.done = time.perf_counter()
                local.append(outcome)
        finally:
            client.close()
            with lock:
                outcomes.extend(local)

    # daemon: a benchmark interrupted mid-phase must not wait for them
    threads = [threading.Thread(target=worker, name=f"client-{n}",
                                daemon=True)
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    outcomes.sort(key=lambda o: o.index)
    return outcomes, wall


def scrape(port: int) -> dict[str, float]:
    """``/metrics`` as {series-with-labels: value}."""
    client = Client(port)
    try:
        status, body = client.call("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples = {}
    for line in body.decode("utf-8").splitlines():
        match = _SAMPLE_RE.match(line)
        if match:
            samples[match.group(1) + (match.group(2) or "")] = float(
                match.group(3))
    return samples


def series_delta(before: dict[str, float], after: dict[str, float],
                 name: str) -> float:
    """Sum over label sets of ``name``'s change between two scrapes."""
    total = 0.0
    for key, value in after.items():
        if key == name or key.startswith(name + "{"):
            total += value - before.get(key, 0.0)
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of an unsorted sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]
