"""Pre-fork worker fleet: multi-process serving behind one port.

The continuous decode scheduler removed the batching ceiling inside one
process; the remaining ceiling is the process — Python's GIL serializes
every decode step however cleverly they are scheduled.  This module
fans the service out the classic pre-fork way:

- :class:`FleetSupervisor` (the parent) warms the shared immutable
  state **once** — the unit KB, its compiled trie, and the trained
  context from the artifact store — then forks N workers, so model
  parameters are shared copy-on-write instead of loaded N times;
- each worker runs a full :class:`~repro.service.app.DimensionService`
  (its own scheduler, its own engine) and binds the *same* TCP port with
  ``SO_REUSEPORT``, letting the kernel spread accepted connections
  across workers.  Platforms without ``SO_REUSEPORT`` fall back to a
  parent acceptor that round-robins accepted sockets to workers over
  ``socket.send_fds`` channels;
- the supervisor supervises: crashed workers respawn with exponential
  backoff, SIGTERM propagates to every child as a **graceful drain**
  (admission stops everywhere — new submits get 503 — before any
  worker exits, queued work completes first), and an atomically
  written ``status.json`` records pids/alive/restart counts;
- observability stays single-scrape: every worker answers peers over a
  unix-domain socket, so a scrape of *any* worker's ``/metrics``
  returns fleet-wide totals (``worker_id="fleet"``) plus every
  worker's own series (``worker_id=<n>``), and ``/healthz`` reports
  per-worker warm/cold state and the supervisor's restart counts.

Scheduling never changes semantics: every worker warm-loads the same
content-keyed artifact, greedy decode is deterministic, and responses
are byte-identical whatever worker answers (enforced by
``benchmarks/bench_service.py``'s fleet scenario and
``tests/test_fleet.py``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro import faults
from repro.obs import get_logger
from repro.service.app import DimensionService, ServiceConfig
from repro.service.http import ServiceServer
from repro.service.metrics import MetricsRegistry

#: Structured fleet lifecycle events (replaces the ad-hoc prints the
#: ``print-discipline`` lint rule now rejects).
_LOG = get_logger("fleet")

#: Per-peer unix-socket timeout: a wedged worker must not hang a scrape.
PEER_TIMEOUT = 2.0

#: A worker that survived this long resets its crash streak, so a slow
#: memory leak pays base backoff per incident instead of compounding.
STREAK_RESET_SECONDS = 60.0

SOCKET_MODES = ("auto", "reuseport", "fdpass")


def reuse_port_supported() -> bool:
    """Whether this platform accepts ``SO_REUSEPORT`` on a TCP socket."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False


def resolve_socket_mode(mode: str) -> str:
    """Map ``auto`` to the best supported mode; validate explicit ones."""
    if mode not in SOCKET_MODES:
        raise ValueError(f"socket_mode must be one of {SOCKET_MODES}, "
                         f"got {mode!r}")
    if mode == "auto":
        return "reuseport" if reuse_port_supported() else "fdpass"
    if mode == "reuseport" and not reuse_port_supported():
        raise OSError("SO_REUSEPORT is not supported on this platform "
                      "(use --fleet-socket fdpass)")
    return mode


@dataclass(frozen=True)
class FleetConfig:
    """Every fleet knob in one frozen object."""

    service: ServiceConfig = field(default_factory=ServiceConfig)
    workers: int = 2
    #: "reuseport" (kernel load-balancing), "fdpass" (parent acceptor
    #: passing accepted sockets via send_fds), or "auto" (probe).
    socket_mode: str = "auto"
    #: Crash-respawn backoff: min(backoff_max, backoff_base * 2**streak).
    backoff_base: float = 0.5
    backoff_max: float = 30.0
    #: Give up respawning one worker after this many restarts (0 = never).
    max_restarts: int = 0
    #: Seconds a draining worker keeps its socket answering 503s after
    #: its queues empty, so stragglers get refusals instead of resets.
    drain_grace: float = 0.5
    #: SIGKILL stragglers this long after SIGTERM propagation.
    shutdown_timeout: float = 30.0
    #: Directory for status.json + peer sockets ("" = private tempdir).
    fleet_dir: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff values must be non-negative")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must be non-negative")
        if self.socket_mode not in SOCKET_MODES:
            raise ValueError(f"socket_mode must be one of {SOCKET_MODES}, "
                             f"got {self.socket_mode!r}")


def _describe_fleet_series(registry: MetricsRegistry) -> None:
    registry.describe("fleet_workers_alive",
                      "Live fleet workers per the supervisor's status file.")
    registry.describe("fleet_worker_restarts_total",
                      "Crash respawns per worker_id since the supervisor "
                      "started.")


class FleetContext:
    """One worker's view of the fleet: peer mesh + supervisor status.

    Created (in the child, post-fork) by :func:`_worker_main` and handed
    to :class:`~repro.service.app.DimensionService`, which delegates
    ``/metrics`` to :meth:`render_metrics` and adds
    :meth:`health_block` to ``/healthz``.  Peers talk over per-worker
    unix-domain sockets in ``fleet_dir`` with a one-line-op,
    JSON-until-EOF protocol (ops: ``metrics``, ``health``,
    ``traces``).
    """

    def __init__(self, worker_id: int, workers: int, fleet_dir: str,
                 socket_mode: str):
        self.worker_id = worker_id
        self.workers = workers
        self.fleet_dir = fleet_dir
        self.socket_mode = socket_mode
        self.draining = False
        self._service: DimensionService | None = None
        self._listener: socket.socket | None = None

    # -- peer server (answering side) ----------------------------------------

    def socket_path(self, worker_id: int) -> str:
        """Unix-socket path a worker answers peer queries on."""
        return os.path.join(self.fleet_dir, f"worker-{worker_id}.sock")

    def status_path(self) -> str:
        """Path of the supervisor's atomically-replaced status file."""
        return os.path.join(self.fleet_dir, "status.json")

    def start_peer_server(self, service: DimensionService) -> None:
        """Bind this worker's unix socket and serve peer queries."""
        self._service = service
        path = self.socket_path(self.worker_id)
        try:
            os.unlink(path)  # a crashed predecessor leaves its socket
        except OSError:
            pass  # repro: allow[exception-discipline] ENOENT on first boot is the normal case
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(16)
        self._listener = listener
        threading.Thread(
            target=self._serve_peers,
            name=f"fleet-peer-{self.worker_id}", daemon=True,
        ).start()

    def _serve_peers(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer_peer, args=(conn,),
                             daemon=True).start()

    def _answer_peer(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(PEER_TIMEOUT)
            op = _read_line(conn)
            if op == "metrics":
                self._service.sample_gauges()
                body: dict = {"worker_id": self.worker_id,
                              "state": self._service.metrics.dump_state()}
            elif op == "health":
                body = self.local_health()
            elif op == "traces":
                body = {"worker_id": self.worker_id,
                        "traces": self._service.dump_traces()}
            else:
                body = {"error": f"unknown op {op!r}"}
            conn.sendall(json.dumps(body).encode("utf-8"))
        except OSError:
            _LOG.debug("fleet.peer_answer_failed", exc_info=True,
                       worker_id=self.worker_id)
        finally:
            conn.close()

    def local_health(self) -> dict:
        """This worker's own entry in the /healthz ``peers`` list."""
        service = self._service
        return {
            "worker_id": self.worker_id,
            "pid": os.getpid(),
            "loaded": service.solver is not None,
            "warm_loaded": service.warm_loaded,
            "uptime_seconds": time.monotonic() - service.started_monotonic,
            "draining": self.draining,
        }

    # -- peer client (asking side) -------------------------------------------

    def _ask_peer(self, worker_id: int, op: str) -> dict | None:
        """One request/response round trip; ``None`` on any failure
        (the peer may be restarting -- aggregation degrades, never
        fails the scrape)."""
        try:
            # fault site: an injected FaultError is an OSError, so a
            # downed peer mesh degrades exactly like a real one
            faults.check("fleet.peer")
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.settimeout(PEER_TIMEOUT)
            conn.connect(self.socket_path(worker_id))
            conn.sendall(f"{op}\n".encode("utf-8"))
            conn.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
            conn.close()
            return json.loads(b"".join(chunks).decode("utf-8"))
        except (OSError, ValueError):
            return None

    def read_status(self) -> dict | None:
        """The supervisor's status.json, or ``None`` while it rewrites."""
        try:
            with open(self.status_path(), encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    # -- fleet views ---------------------------------------------------------

    def render_metrics(self, service: DimensionService) -> str:
        """The fleet-wide Prometheus exposition, answerable by any worker.

        Each worker's registry is absorbed twice: once labelled with
        its ``worker_id`` (per-worker series) and once as
        ``worker_id="fleet"`` (summed totals), so one scrape carries
        both the aggregate and the per-worker breakdown without
        double-counting ambiguity (sum over ``worker_id!="fleet"``
        equals the fleet series).  Supervisor-owned series
        (``fleet_workers_alive``, ``fleet_worker_restarts_total``) come
        from the status file.
        """
        states: list[tuple[int, dict]] = [
            (self.worker_id, service.metrics.dump_state())
        ]
        for worker_id in range(self.workers):
            if worker_id == self.worker_id:
                continue
            response = self._ask_peer(worker_id, "metrics")
            if response and "state" in response:
                states.append((worker_id, response["state"]))
        merged = MetricsRegistry()
        for worker_id, state in states:
            merged.absorb(state, worker_id=str(worker_id))
            merged.absorb(state, worker_id="fleet")
        _describe_fleet_series(merged)
        status = self.read_status() or {}
        alive = sum(1 for up in status.get("alive", {}).values() if up)
        merged.set_gauge("fleet_workers_alive", float(alive))
        for worker_id, count in sorted(status.get("restarts", {}).items()):
            merged.inc("fleet_worker_restarts_total", float(count),
                       worker_id=str(worker_id))
        return merged.render()

    def peer_traces(self) -> list[dict]:
        """Every *other* worker's buffered traces (``worker_id``-tagged).

        Same degradation contract as the metrics aggregation: a peer
        mid-restart contributes nothing instead of failing the view.
        """
        traces: list[dict] = []
        for worker_id in range(self.workers):
            if worker_id == self.worker_id:
                continue
            response = self._ask_peer(worker_id, "traces")
            if response and isinstance(response.get("traces"), list):
                traces.extend(response["traces"])
        return traces

    def find_trace(self, trace_id: str) -> dict | None:
        """Search every peer's ring buffer for one trace id."""
        for trace in self.peer_traces():
            if trace.get("trace_id") == trace_id:
                return trace
        return None

    def health_block(self, service: DimensionService) -> dict:
        """The ``/healthz`` fleet block: live peers + supervisor view."""
        peers = [self.local_health()]
        for worker_id in range(self.workers):
            if worker_id == self.worker_id:
                continue
            response = self._ask_peer(worker_id, "health")
            if response:
                peers.append(response)
        peers.sort(key=lambda peer: peer.get("worker_id", -1))
        status = self.read_status() or {}
        return {
            "worker_id": self.worker_id,
            "workers": self.workers,
            "socket_mode": self.socket_mode,
            "alive": sum(1 for up in status.get("alive", {}).values() if up),
            "restarts": status.get("restarts", {}),
            "pids": status.get("pids", {}),
            "supervisor_pid": status.get("supervisor_pid"),
            "peers": peers,
        }


def _read_line(conn: socket.socket, limit: int = 4096) -> str:
    data = bytearray()
    while len(data) < limit:
        chunk = conn.recv(1)
        if not chunk or chunk == b"\n":
            break
        data.extend(chunk)
    return data.decode("utf-8", errors="replace").strip()


class FleetSupervisor:
    """The parent process: preload, fork, supervise, drain.

    Lifecycle::

        supervisor = FleetSupervisor(FleetConfig(service=..., workers=4))
        raise SystemExit(supervisor.run())   # blocks until SIGTERM/SIGINT

    The supervisor itself never builds a :class:`DimensionService` (no
    threads may exist before ``fork``); it warms the *thread-free*
    shared state — KB, trie, trained context from the artifact store —
    so every worker inherits it copy-on-write and boots in milliseconds,
    including crash respawns.
    """

    def __init__(self, config: FleetConfig):
        self.config = config
        self.host = config.service.host
        self.port = config.service.port
        self.fleet_dir = ""
        self._mode = ""
        self._owns_dir = False
        self._pids: dict[int, int | None] = {}
        self._alive: dict[int, bool] = {}
        self._restarts: dict[int, int] = {}
        self._streak: dict[int, int] = {}
        self._spawned_at: dict[int, float] = {}
        self._respawn_at: dict[int, float] = {}
        self._channels: dict[int, socket.socket] = {}  # guarded by: self._channel_lock
        self._channel_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._stop = False
        self._started = False

    # -- startup -------------------------------------------------------------

    def start(self) -> None:
        """Resolve the port, preload shared state, fork every worker."""
        if self._started:
            return
        config = self.config
        self._mode = resolve_socket_mode(config.socket_mode)
        self.fleet_dir = config.fleet_dir or tempfile.mkdtemp(
            prefix="repro-fleet-")
        os.makedirs(self.fleet_dir, exist_ok=True)
        self._owns_dir = not config.fleet_dir
        if self._mode == "fdpass":
            self._listener = socket.create_server(
                (self.host, self.port), backlog=128)
            self.port = self._listener.getsockname()[1]
        elif self.port == 0:
            self.port = _pick_free_port(self.host)
        self._preload_shared_state()
        for worker_id in range(config.workers):
            self._restarts[worker_id] = 0
            self._streak[worker_id] = 0
            self._spawn(worker_id)
        self._write_status()
        if self._mode == "fdpass":
            threading.Thread(target=self._accept_loop,
                             name="fleet-acceptor", daemon=True).start()
        self._started = True

    def _preload_shared_state(self) -> None:
        """Warm everything immutable before forking (COW sharing).

        Mirrors the calls ``DimensionService`` makes at construction:
        the KB + compiled grounder cache on the KB instance, and
        ``get_context`` caches the trained context in-process — so each
        worker's post-fork boot is a cache hit on inherited pages, and
        a fleet of N loads model parameters once, not N times.  All of
        this is thread-free, keeping the subsequent ``fork`` safe.
        """
        from repro.experiments.artifacts import set_default_store
        from repro.experiments.context import get_context, profile_named
        from repro.quantity.grounder import grounder_for
        from repro.units import default_kb

        grounder_for(default_kb())
        service = self.config.service
        if service.profile != "off":
            if service.artifact_dir:
                set_default_store(service.artifact_dir)
            cold: list[bool] = []
            get_context(seed=service.seed,
                        profile=profile_named(service.profile),
                        on_cold_train=lambda: cold.append(True))
            _LOG.info("fleet.preload",
                      profile=service.profile,
                      warm_loaded=not cold,
                      workers=self.config.workers)

    def _spawn(self, worker_id: int) -> None:
        parent_channel = child_channel = None
        if self._mode == "fdpass":
            parent_channel, child_channel = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_STREAM)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                # Shed every parent-side fd this worker must not hold:
                # siblings' channels (their EOF semantics), the parent
                # acceptor's listener, and our own channel's parent end.
                # repro: allow[lock-discipline] post-fork child is single-threaded; the lock owner does not exist here
                for other in list(self._channels.values()):
                    other.close()
                if parent_channel is not None:
                    parent_channel.close()
                if self._listener is not None:
                    self._listener.close()
                code = _worker_main(
                    worker_id, self.config, self.host, self.port,
                    self.fleet_dir, self._mode, channel=child_channel,
                )
            except BaseException:  # noqa: BLE001 -- the child must exit
                _LOG.error("fleet.worker_boot_failed",
                           worker_id=worker_id, exc_info=True)
                code = 70
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        if child_channel is not None:
            child_channel.close()
            with self._channel_lock:
                old = self._channels.pop(worker_id, None)
                if old is not None:
                    old.close()
                self._channels[worker_id] = parent_channel
        self._pids[worker_id] = pid
        self._alive[worker_id] = True
        self._spawned_at[worker_id] = time.monotonic()

    # -- fd-passing acceptor (fallback mode) ---------------------------------

    def _accept_loop(self) -> None:
        """Round-robin accepted connections to workers over send_fds."""
        rotation = 0
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                with self._channel_lock:
                    channels = sorted(self._channels.items())
                for offset in range(len(channels)):
                    _, channel = channels[(rotation + offset) % len(channels)]
                    try:
                        socket.send_fds(channel, [b"c"], [conn.fileno()])
                        rotation += offset + 1
                        break
                    except OSError:
                        # repro: allow[exception-discipline] that worker died; round-robin to the next
                        continue

    # -- supervision ---------------------------------------------------------

    def run(self) -> int:
        """Start (if needed) and supervise until SIGTERM/SIGINT."""
        self.start()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._handle_stop_signal)
        _LOG.info("fleet.serving",
                  host=self.host, port=self.port,
                  workers=self.config.workers, socket_mode=self._mode,
                  fleet_dir=self.fleet_dir)
        last_status = time.monotonic()
        try:
            while not self._stop:
                changed = self._reap() | self._respawn_due()
                now = time.monotonic()
                if changed or now - last_status >= 1.0:
                    self._write_status()
                    last_status = now
                time.sleep(0.05)
        finally:
            self._shutdown()
        return 0

    def _handle_stop_signal(self, signum, frame) -> None:  # noqa: ARG002
        self._stop = True

    def _reap(self) -> bool:
        """Collect exited children; schedule backed-off respawns."""
        changed = False
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return changed
            if pid == 0:
                return changed
            worker_id = next((wid for wid, p in self._pids.items()
                              if p == pid), None)
            if worker_id is None:
                continue
            changed = True
            self._pids[worker_id] = None
            self._alive[worker_id] = False
            code = os.waitstatus_to_exitcode(status)
            if self._stop:
                continue
            lifetime = time.monotonic() - self._spawned_at.get(worker_id, 0.0)
            if lifetime >= STREAK_RESET_SECONDS:
                self._streak[worker_id] = 0
            delay = min(self.config.backoff_max,
                        self.config.backoff_base
                        * (2 ** self._streak[worker_id]))
            self._streak[worker_id] += 1
            self._restarts[worker_id] += 1
            if (self.config.max_restarts
                    and self._restarts[worker_id] > self.config.max_restarts):
                _LOG.error("fleet.worker_abandoned",
                           worker_id=worker_id, pid=pid, exit_code=code,
                           restarts=self._restarts[worker_id],
                           max_restarts=self.config.max_restarts)
                continue
            self._respawn_at[worker_id] = time.monotonic() + delay
            _LOG.warning("fleet.worker_exit",
                         worker_id=worker_id, pid=pid, exit_code=code,
                         respawn_delay_seconds=round(delay, 2),
                         restarts=self._restarts[worker_id])
        return changed

    def _respawn_due(self) -> bool:
        changed = False
        now = time.monotonic()
        for worker_id, when in list(self._respawn_at.items()):
            if now >= when:
                del self._respawn_at[worker_id]
                self._spawn(worker_id)
                changed = True
        return changed

    def _write_status(self) -> None:
        """Atomically publish pids/alive/restarts for workers to read."""
        payload = {
            "supervisor_pid": os.getpid(),
            "host": self.host,
            "port": self.port,
            "workers": self.config.workers,
            "socket_mode": self._mode,
            "pids": {str(wid): pid for wid, pid in self._pids.items()},
            "alive": {str(wid): up for wid, up in self._alive.items()},
            "restarts": {str(wid): count
                         for wid, count in self._restarts.items()},
            "updated_unix": time.time(),
        }
        path = os.path.join(self.fleet_dir, "status.json")
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            _LOG.warning("fleet.status_write_failed", exc_info=True,
                         path=path)

    # -- shutdown ------------------------------------------------------------

    def _shutdown(self) -> None:
        """SIGTERM every child (graceful drain), reap, SIGKILL stragglers."""
        self._respawn_at.clear()
        for worker_id, pid in self._pids.items():
            if pid is not None and self._alive.get(worker_id):
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass  # repro: allow[exception-discipline] child already exited; reap will notice
        deadline = time.monotonic() + self.config.shutdown_timeout
        while any(self._alive.values()) and time.monotonic() < deadline:
            self._reap()
            time.sleep(0.05)
        for worker_id, pid in self._pids.items():
            if pid is not None and self._alive.get(worker_id):
                _LOG.warning("fleet.worker_kill",
                             worker_id=worker_id, pid=pid,
                             shutdown_timeout=self.config.shutdown_timeout)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # repro: allow[exception-discipline] straggler exited on its own
        while any(self._alive.values()):
            if not self._reap():
                time.sleep(0.02)
        if self._listener is not None:
            self._listener.close()
        with self._channel_lock:
            for channel in self._channels.values():
                channel.close()
            self._channels.clear()
        self._write_status()
        if self._owns_dir:
            shutil.rmtree(self.fleet_dir, ignore_errors=True)


def _pick_free_port(host: str) -> int:
    """Resolve port 0 before forking so every worker binds the same one."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


# -- worker (child) side -----------------------------------------------------


def _worker_main(worker_id: int, config: FleetConfig, host: str, port: int,
                 fleet_dir: str, mode: str,
                 channel: socket.socket | None = None) -> int:
    """One forked worker: serve until SIGTERM, then drain and exit.

    Drain ordering (the contract ``tests/test_fleet.py`` pins down):

    1. every endpoint that admits work (``/ground``, ``/extract``,
       ``/solve``) stops admitting — new submits answer 503 — while the
       HTTP socket stays open;
    2. queued and in-flight work runs to completion
       (``service.close``);
    3. the socket keeps answering (503s) for ``drain_grace`` seconds so
       requests racing the shutdown get refusals, not resets;
    4. only then does the worker exit.
    """
    drain = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: drain.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # supervisor coordinates
    context = FleetContext(worker_id, config.workers, fleet_dir, mode)
    service_config = dataclasses.replace(config.service, host=host, port=port)
    service = DimensionService(service_config, fleet=context)
    context.start_peer_server(service)
    if mode == "reuseport":
        server = ServiceServer((host, port), service, reuse_port=True)
        threading.Thread(target=server.serve_forever,
                         name=f"fleet-serve-{worker_id}",
                         daemon=True).start()
    else:
        server = ServiceServer((host, port), service,
                               bind_and_activate=False)
        threading.Thread(target=_fdpass_serve, args=(channel, server),
                         name=f"fleet-serve-{worker_id}",
                         daemon=True).start()
    drain.wait()
    context.draining = True
    service.begin_drain()
    service.close()
    time.sleep(config.drain_grace)
    if mode == "reuseport":
        server.shutdown()
        server.server_close()
    elif channel is not None:
        try:
            channel.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # repro: allow[exception-discipline] parent side may already be closed
        channel.close()
    return 0


def _fdpass_serve(channel: socket.socket, server: ServiceServer) -> None:
    """Receive accepted connections from the parent acceptor and serve
    each through the normal threading request machinery."""
    while True:
        try:
            msg, fds, _flags, _addr = socket.recv_fds(channel, 16, 4)
        except OSError:
            return
        if not msg and not fds:
            return  # parent closed the channel
        for fd in fds:
            try:
                conn = socket.socket(fileno=fd)
            except OSError:
                os.close(fd)
                continue
            try:
                address = conn.getpeername()
            except OSError:
                address = ("", 0)
            server.process_request(conn, address)
