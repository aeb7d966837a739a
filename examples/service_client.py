#!/usr/bin/env python
"""Exercise every endpoint of a running repro.service instance.

Boot a server in one terminal::

    PYTHONPATH=src python -m repro.service --port 8080 --profile micro

then run this client against it::

    PYTHONPATH=src python examples/service_client.py --port 8080

The client waits for /healthz, walks every endpoint with realistic
requests (stdlib urllib only, like any consumer could), and finishes by
checking that the /metrics counters actually moved.  Exit code 0 means
every endpoint answered correctly -- CI uses this script as its service
smoke test.

Transient overload answers (429/503/504) are retried with capped
jittered exponential backoff, honouring the server's ``Retry-After``
hint when one is sent -- the pattern ``docs/RESILIENCE.md`` prescribes
for every consumer of this service.

With ``--profile off`` servers, /solve answers 503; pass ``--no-solve``
to treat that as expected.
"""

from __future__ import annotations

import argparse
import email.message
import json
import random
import sys
import time
import urllib.error
import urllib.request

#: Statuses worth retrying: queue full (429), draining/degraded (503),
#: deadline exceeded (504).  Everything else is an answer.
RETRYABLE = (429, 503, 504)

#: Backoff cap in seconds; a server Retry-After above this is clamped.
BACKOFF_CAP = 5.0


def call(base: str, path: str, body: dict | None = None):
    """(status, parsed body, headers) for one request; never raises on
    4xx/5xx."""
    if body is None:
        request = urllib.request.Request(base + path)
    else:
        request = urllib.request.Request(
            base + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            raw, status = response.read(), response.status
            headers = response.headers
    except urllib.error.HTTPError as error:
        raw, status = error.read(), error.code
        headers = error.headers or email.message.Message()
    try:
        return status, json.loads(raw), headers
    except json.JSONDecodeError:
        return status, raw.decode("utf-8"), headers


def request(base: str, path: str, body: dict | None = None,
            *, retries: int = 5, rng: random.Random | None = None):
    """``call`` plus the retry contract: 429/503/504 back off and try
    again, honouring ``Retry-After`` when the server sends one, with
    capped jittered exponential backoff otherwise and a finite retry
    budget so an unhealthy server fails the run instead of hanging it.
    """
    rng = rng or random.Random()
    status, parsed, headers = call(base, path, body)
    for attempt in range(retries):
        if status not in RETRYABLE:
            break
        backoff = min(BACKOFF_CAP, 0.1 * (2 ** attempt))
        hint = headers.get("Retry-After")
        if hint is not None:
            try:
                backoff = min(BACKOFF_CAP, max(float(hint), 0.0))
            except ValueError:
                pass  # malformed hint; keep the computed backoff
        # full jitter: desynchronises a thundering herd of clients
        time.sleep(rng.uniform(0, backoff) if backoff else 0)
        status, parsed, headers = call(base, path, body)
    return status, parsed, headers


def wait_for_healthz(base: str, timeout: float) -> dict:
    """Poll /healthz until the service answers (it may be cold-training)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            status, body, _ = call(base, "/healthz")
            if status == 200:
                return body
        except (urllib.error.URLError, ConnectionError):
            pass
        if time.monotonic() > deadline:
            raise SystemExit(f"service at {base} not healthy "
                             f"within {timeout:.0f}s")
        time.sleep(0.5)


def check(name: str, condition: bool, detail) -> None:
    print(f"  [{'ok' if condition else 'FAIL'}] {name}")
    if not condition:
        raise SystemExit(f"{name} failed: {detail!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--boot-timeout", type=float, default=1200.0,
                        help="how long to wait for /healthz (a cold "
                             "--profile quick boot trains first)")
    parser.add_argument("--no-solve", action="store_true",
                        help="expect /solve to answer 503 (model off)")
    args = parser.parse_args(argv)
    base = f"http://{args.host}:{args.port}"
    rng = random.Random(0)

    print(f"waiting for {base}/healthz ...")
    health = wait_for_healthz(base, args.boot_timeout)
    print(f"service up: profile={health['model']['profile']} "
          f"warm_loaded={health['model']['warm_loaded']}")

    print("exercising endpoints:")
    status, body, _ = request(base, "/ground",
                              {"text": "货车以9.9m/s的速度行驶了3 h"},
                              rng=rng)
    check("/ground", status == 200
          and [q["magnitude"] for q in body["quantities"]] == [9.9, 3.0],
          (status, body))

    status, body, _ = request(base, "/extract",
                              {"text": "买了 3 个苹果和 2 kg 梨"}, rng=rng)
    check("/extract", status == 200 and len(body["quantities"]) == 2,
          (status, body))

    status, body, _ = request(base, "/convert",
                              {"value": 2.06, "source": "m", "target": "cm"},
                              rng=rng)
    check("/convert", status == 200
          and abs(body["magnitude"] - 206.0) < 1e-9, (status, body))

    status, body, _ = request(base, "/compare", {"quantities": [
        {"value": 1, "unit": "km"},
        {"value": 5000, "unit": "m"},
        {"value": 2, "unit": "mile"},
    ]}, rng=rng)
    check("/compare", status == 200 and body["largest"] == 1,
          (status, body))

    status, body, _ = request(base, "/dimension",
                              {"mentions": ["km", "h"], "ops": ["/"]},
                              rng=rng)
    check("/dimension", status == 200
          and body["dimension"]["formula"] == "LT-1", (status, body))

    solve_body = {
        "text": "小明有 3 个苹果，又买了 5 个，现在有几个苹果？"
    }
    if args.no_solve:
        # raw call, not request(): 503 is the *expected* answer here
        # and must not be retried away
        status, body, headers = call(base, "/solve", solve_body)
        check("/solve (expected 503)", status == 503, (status, body))
        check("503 carries Retry-After",
              headers.get("Retry-After") is not None, dict(headers))
    else:
        status, body, _ = request(base, "/solve", solve_body, rng=rng)
        check("/solve", status == 200 and "equation" in body
              and len(body["quantities"]) == 2, (status, body))

    # domain errors surface as 422, not 500
    status, body, _ = call(base, "/convert",
                           {"value": 1, "source": "kg", "target": "m"})
    check("422 on incomparable units", status == 422, (status, body))

    status, text, _ = call(base, "/metrics")
    # Match labels, not an exact line: under --workers N every series
    # also carries a worker_id label.
    ground_counted = any(
        line.startswith("repro_service_requests_total{")
        and 'endpoint="/ground"' in line and 'status="200"' in line
        for line in text.splitlines() if isinstance(text, str))
    check("/metrics counters moved", status == 200 and ground_counted,
          (status, text[:400]))

    print("all endpoints answered correctly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
