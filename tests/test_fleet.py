"""Tests for the pre-fork worker fleet (repro.service.fleet).

The in-process units cover the service drain hook and the registry
dump/absorb merge; everything else runs against a real supervisor
subprocess over real sockets -- fork safety, SO_REUSEPORT and fd-pass
load spreading, cross-worker /metrics aggregation, crash respawns, and
the SIGTERM drain ordering (503s on new submits *before* any worker
exits).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

import repro.experiments.artifacts as artifacts_module
import repro.experiments.context as context_module
from repro.service import (
    DimensionService,
    FleetConfig,
    MetricsRegistry,
    ServiceConfig,
)
from repro.service.fleet import resolve_socket_mode, reuse_port_supported

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


# -- in-process units --------------------------------------------------------


def test_service_begin_drain_maps_to_503():
    service = DimensionService(ServiceConfig(profile="off"))
    status, _ = service.dispatch("/ground", {"text": "3 km in 2 h"})
    assert status == 200
    service.begin_drain()
    for endpoint in ("/ground", "/extract"):
        status, body = service.dispatch(endpoint, {"text": "3 km in 2 h"})
        assert status == 503
        assert "closed" in body["error"]
    # non-batched endpoints keep answering during the drain window
    status, _ = service.dispatch("/healthz", None)
    assert status == 200
    service.close()


def test_registry_dump_absorb_round_trip_merges_fleet_totals():
    def worker_registry(requests: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.describe("requests_total", "Requests handled.")
        for _ in range(requests):
            registry.inc("requests_total", endpoint="/solve", status="200")
            registry.observe("request_seconds", 0.004, endpoint="/solve")
        registry.set_gauge("queue_depth", requests, endpoint="solve")
        return registry

    merged = MetricsRegistry()
    for worker_id, requests in enumerate((3, 5)):
        # JSON round trip: the real path ships dumps over a unix socket
        state = json.loads(json.dumps(worker_registry(requests).dump_state()))
        merged.absorb(state, worker_id=str(worker_id))
        merged.absorb(state, worker_id="fleet")

    assert merged.value("requests_total", endpoint="/solve",
                        status="200", worker_id="0") == 3
    assert merged.value("requests_total", endpoint="/solve",
                        status="200", worker_id="1") == 5
    assert merged.value("requests_total", endpoint="/solve",
                        status="200", worker_id="fleet") == 8
    assert merged.value("queue_depth", endpoint="solve",
                        worker_id="fleet") == 8
    fleet_hist = merged.histogram("request_seconds", endpoint="/solve",
                                  worker_id="fleet")
    assert fleet_hist["count"] == 8
    assert fleet_hist["sum"] == pytest.approx(8 * 0.004)
    rendered = merged.render()
    assert "# HELP repro_service_requests_total Requests handled." in rendered
    assert 'worker_id="fleet"} 8' in rendered


def test_fleet_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(workers=0)
    with pytest.raises(ValueError):
        FleetConfig(socket_mode="mmap")
    with pytest.raises(ValueError):
        FleetConfig(drain_grace=-1.0)
    assert resolve_socket_mode("fdpass") == "fdpass"
    assert resolve_socket_mode("auto") in ("reuseport", "fdpass")
    if reuse_port_supported():
        assert resolve_socket_mode("auto") == "reuseport"


# -- real-socket fleet harness -----------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port: int, path: str, payload: dict | None = None,
             timeout: float = 10.0) -> tuple[int, object]:
    url = f"http://127.0.0.1:{port}{path}"
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read().decode("utf-8")
            status = response.status
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8")
        status = exc.code
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw


@contextlib.contextmanager
def fleet_process(workers: int = 2, extra: tuple[str, ...] = (),
                  boot_timeout: float = 120.0, profile: str = "off",
                  env_extra: dict[str, str] | None = None):
    """Boot ``python -m repro.service --workers N`` and wait until every
    worker reports alive; always kill the whole process group on exit
    (fleets are sessions of their own, so nothing leaks past a test).

    ``env_extra`` merges into the child environment -- the fault tests
    arm ``REPRO_FAULT_PLAN`` through it so the plan is live from the
    supervisor's import onward (workers inherit it across the fork)."""
    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", str(port),
         "--workers", str(workers), "--profile", profile, *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + boot_timeout
        while True:
            if proc.poll() is not None:
                raise AssertionError(
                    f"fleet exited during boot:\n{proc.stdout.read()}")
            with contextlib.suppress(OSError, urllib.error.URLError):
                status, body = _request(port, "/healthz", timeout=2)
                if (status == 200
                        and body.get("fleet", {}).get("alive") == workers):
                    break
            if time.monotonic() > deadline:
                raise AssertionError("fleet never became ready")
            time.sleep(0.1)
        yield port, proc
    finally:
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)
        with contextlib.suppress(Exception):
            proc.wait(timeout=10)
        proc.stdout.close()


def _metric_value(text: str, name: str, **labels: str) -> float | None:
    """First sample of ``name`` whose label set includes ``labels``."""
    pattern = re.compile(
        rf"^repro_service_{name}(?:{{(?P<labels>[^}}]*)}})? (?P<value>\S+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if not match:
            continue
        have = dict(re.findall(r'(\w+)="([^"]*)"', match.group("labels") or ""))
        if all(have.get(key) == value for key, value in labels.items()):
            return float(match.group("value"))
    return None


GROUND_PAYLOAD = {"text": "货车以9.9m/s行驶了3 h"}


# -- subprocess tests --------------------------------------------------------


def test_fleet_serves_and_aggregates_metrics_across_workers():
    with fleet_process(workers=2) as (port, _proc):
        for _ in range(24):
            status, body = _request(port, "/ground", GROUND_PAYLOAD)
            assert status == 200
            assert body["quantities"]
        status, text = _request(port, "/metrics")
        assert status == 200
        # fleet-wide total equals everything sent, whoever answered
        assert _metric_value(text, "requests_total", endpoint="/ground",
                             status="200", worker_id="fleet") == 24
        # ... and both workers' own series are present in the one scrape
        # (traces_buffered is sampled by every worker when its state is
        # pulled, so it exists even for a worker the kernel sent little
        # traffic to)
        for worker_id in ("0", "1"):
            assert _metric_value(text, "traces_buffered",
                                 worker_id=worker_id) is not None
        per_worker = sum(
            _metric_value(text, "requests_total", endpoint="/ground",
                          status="200", worker_id=worker_id) or 0
            for worker_id in ("0", "1"))
        assert per_worker == 24
        assert _metric_value(text, "fleet_workers_alive") == 2
        status, health = _request(port, "/healthz")
        fleet = health["fleet"]
        assert fleet["workers"] == 2
        assert fleet["alive"] == 2
        assert fleet["restarts"] == {"0": 0, "1": 0}
        assert {peer["worker_id"] for peer in fleet["peers"]} == {0, 1}
        assert all(peer["loaded"] is False for peer in fleet["peers"])


def test_fleet_fdpass_mode_spreads_and_aggregates():
    with fleet_process(workers=2,
                       extra=("--fleet-socket", "fdpass")) as (port, proc):
        status, health = _request(port, "/healthz")
        assert health["fleet"]["socket_mode"] == "fdpass"
        for _ in range(16):
            status, _ = _request(port, "/ground", GROUND_PAYLOAD)
            assert status == 200
        status, text = _request(port, "/metrics")
        assert _metric_value(text, "requests_total", endpoint="/ground",
                             status="200", worker_id="fleet") == 16
        # the parent acceptor round-robins, so both workers saw traffic
        for worker_id in ("0", "1"):
            assert (_metric_value(text, "requests_total", endpoint="/ground",
                                  status="200", worker_id=worker_id) or 0) > 0
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0


def test_fleet_restarts_crashed_worker_with_backoff():
    with fleet_process(workers=2,
                       extra=("--backoff-base", "0.05")) as (port, _proc):
        _, health = _request(port, "/healthz")
        victim = health["fleet"]["pids"]["0"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 20
        fleet = None
        while time.monotonic() < deadline:
            with contextlib.suppress(OSError, urllib.error.URLError):
                status, health = _request(port, "/healthz", timeout=2)
                fleet = health.get("fleet", {})
                if (fleet.get("alive") == 2
                        and fleet.get("restarts", {}).get("0", 0) >= 1
                        and fleet.get("pids", {}).get("0") != victim):
                    break
            time.sleep(0.1)
        else:
            raise AssertionError(f"worker never respawned: {fleet}")
        # the respawned worker serves again and the restart is a metric
        status, _ = _request(port, "/ground", GROUND_PAYLOAD)
        assert status == 200
        _, text = _request(port, "/metrics")
        assert (_metric_value(text, "fleet_worker_restarts_total",
                              worker_id="0") or 0) >= 1
        assert _metric_value(text, "fleet_worker_restarts_total",
                             worker_id="1") == 0


def test_sigterm_drains_admission_before_any_worker_exits():
    """The drain-ordering contract, over real sockets.

    After SIGTERM reaches the supervisor every worker must first stop
    admitting (new submits answer HTTP 503) while its socket stays
    open, and only then exit.  Observable ordering: polling /ground
    sees 200s, then 503s (admission drained, workers still alive and
    answering), and only after at least one 503 do connections start
    failing (workers gone); the supervisor then exits 0.
    """
    with fleet_process(workers=2,
                       extra=("--drain-grace", "1.5")) as (port, proc):
        status, _ = _request(port, "/ground", GROUND_PAYLOAD)
        assert status == 200
        proc.send_signal(signal.SIGTERM)
        statuses: list[int] = []
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                status, _ = _request(port, "/ground", GROUND_PAYLOAD,
                                     timeout=2)
                statuses.append(status)
            except (OSError, urllib.error.URLError):
                if 503 in statuses:
                    break  # workers exited -- but only after draining
            time.sleep(0.03)
        assert 503 in statuses, f"no 503 observed during drain: {statuses}"
        first_503 = statuses.index(503)
        assert 200 not in statuses[first_503:], (
            f"a worker admitted work after the drain began: {statuses}")
        assert proc.wait(timeout=30) == 0


def test_fleet_heals_from_corrupt_artifact_read(tmp_path):
    """Injected checkpoint corruption at warm-load time degrades to a
    cold retrain, never a crash: the fleet boots healthy (with
    ``warm_loaded`` False), /solve answers 200, and nothing 500s.
    """
    store_root = tmp_path / "artifacts"
    # Pre-warm the store in-process so the fleet has something to fail
    # to read; scrub the trained-context cache so this test neither
    # sees nor leaves cross-test state.
    original_cache = dict(context_module._CACHE)
    context_module._CACHE.clear()
    try:
        warm = DimensionService(ServiceConfig(
            port=0, profile="micro", seed=23, artifact_dir=str(store_root)))
        assert warm.warm_loaded is False
        warm.close()
    finally:
        artifacts_module.reset_default_store()
        context_module._CACHE.clear()
        context_module._CACHE.update(original_cache)
    assert list(store_root.glob("ctx-*"))

    plan = json.dumps({"seed": 7, "sites": {
        "artifacts.checkpoint_read": {"action": "raise", "times": 1},
    }})
    with fleet_process(
        workers=2, profile="micro",
        extra=("--seed", "23", "--artifact-dir", str(store_root)),
        env_extra={"REPRO_FAULT_PLAN": plan},
    ) as (port, _proc):
        status, health = _request(port, "/healthz")
        assert status == 200
        # the corruption fired exactly once, in the supervisor's
        # pre-fork warm load (workers inherit the plan's counters
        # across the fork, so any worker's /healthz shows it)
        faults = health["faults"]
        assert faults["seed"] == 7
        assert faults["sites"]["artifacts.checkpoint_read"]["fired"] == 1
        # ... and the heal is invisible downstream: the supervisor
        # cold-retrained past the corrupt read, so every forked worker
        # holds a usable context
        assert health["model"]["warm_loaded"] is True
        status, body = _request(port, "/solve", {
            "text": "小明有 3 个苹果，又买了 5 个，现在有几个苹果？"})
        assert status == 200
        assert "equation" in body
        status, _ = _request(port, "/ground", GROUND_PAYLOAD)
        assert status == 200
        # no request anywhere answered 500
        status, text = _request(port, "/metrics")
        assert status == 200
        assert 'status="500"' not in text
