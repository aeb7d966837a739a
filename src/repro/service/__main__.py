"""Boot the serving layer: ``python -m repro.service``.

    python -m repro.service --port 8080                  # KB endpoints
    python -m repro.service --profile quick              # + /solve, warm
    python -m repro.service --profile micro --port 0     # smoke boots
    python -m repro.service --workers 4                  # pre-fork fleet

``--profile`` names a trained-context budget from
:mod:`repro.experiments.context`; the context warm-loads from the
artifact store when present and cold-trains (then persists) otherwise.
``--workers N`` (N >= 2) boots a pre-fork fleet instead of a single
process: a supervisor parent warms the shared state once, forks N
workers onto the same port (``SO_REUSEPORT``, or a parent acceptor via
``--fleet-socket fdpass``), restarts crashed workers with exponential
backoff, and propagates SIGTERM as a graceful drain.  See
``docs/SERVING.md`` for the operator runbook.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro import faults
from repro.experiments.context import PROFILE_NAMES
from repro.service.app import DimensionService, ServiceConfig
from repro.service.http import ServiceRequestHandler, build_server


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Serve quantity grounding, unit conversion and "
                    "dimension perception over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--profile", default="off",
                        choices=("off", *PROFILE_NAMES),
                        help="trained-context budget backing /solve "
                             "('off' serves KB endpoints only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queue-size", type=int, default=1024,
                        help="bound on queued /solve requests and on "
                             "/ground + /extract requests running at "
                             "once (429 beyond it)")
    parser.add_argument("--max-inflight-rows", type=int, default=32,
                        help="/solve scheduler: KV rows decoding at once")
    parser.add_argument("--artifact-dir", default="",
                        help="artifact-store override for warm loading")
    parser.add_argument("--trace-sample-rate", type=float, default=1.0,
                        help="probability a request is traced into "
                             "/debug/traces (forced requests always are)")
    parser.add_argument("--trace-buffer", type=int, default=256,
                        help="completed traces kept per worker")
    parser.add_argument("--slow-trace-ms", type=float, default=500.0,
                        help="sampled traces at least this slow emit a "
                             "request.slow log event (0 disables)")
    parser.add_argument("--default-deadline-ms", type=float, default=0.0,
                        help="per-request time budget when the client "
                             "sends no X-Repro-Deadline-Ms header "
                             "(0 = unbounded)")
    parser.add_argument("--fault-plan", default="",
                        help="JSON fault-plan file to arm deterministic "
                             "fault injection (see docs/RESILIENCE.md); "
                             "REPRO_FAULT_PLAN env overrides")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")
    fleet = parser.add_argument_group(
        "fleet", "pre-fork worker pool (active when --workers >= 2)")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes behind one port "
                            "(1 = single-process serving)")
    fleet.add_argument("--fleet-socket", default="auto",
                       choices=("auto", "reuseport", "fdpass"),
                       help="port-sharing strategy: kernel SO_REUSEPORT "
                            "or a parent acceptor passing fds (auto "
                            "probes the platform)")
    fleet.add_argument("--backoff-base", type=float, default=0.5,
                       help="seconds before the first crash respawn "
                            "(doubles per consecutive crash)")
    fleet.add_argument("--backoff-max", type=float, default=30.0,
                       help="respawn backoff ceiling in seconds")
    fleet.add_argument("--max-restarts", type=int, default=0,
                       help="give a worker up after this many restarts "
                            "(0 = never)")
    fleet.add_argument("--drain-grace", type=float, default=0.5,
                       help="seconds a draining worker keeps answering "
                            "503s after its queues empty")
    fleet.add_argument("--fleet-dir", default="",
                       help="directory for fleet status + peer sockets "
                            "(default: a private tempdir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.fault_plan and faults.active() is None:
        # armed before any fork so fleet workers inherit the plan; the
        # REPRO_FAULT_PLAN env var (loaded at import) wins when both
        # are set, since the chaos harness arms through it
        faults.arm(faults.FaultPlan.from_file(args.fault_plan))
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_queue=args.queue_size,
        profile=args.profile,
        seed=args.seed,
        artifact_dir=args.artifact_dir,
        max_inflight_rows=args.max_inflight_rows,
        trace_sample_rate=args.trace_sample_rate,
        trace_buffer_size=args.trace_buffer,
        slow_trace_ms=args.slow_trace_ms,
        default_deadline_ms=args.default_deadline_ms,
    )
    ServiceRequestHandler.log_requests = args.verbose
    if args.workers > 1:
        from repro.service.fleet import FleetConfig, FleetSupervisor

        supervisor = FleetSupervisor(FleetConfig(
            service=config,
            workers=args.workers,
            socket_mode=args.fleet_socket,
            backoff_base=args.backoff_base,
            backoff_max=args.backoff_max,
            max_restarts=args.max_restarts,
            drain_grace=args.drain_grace,
            fleet_dir=args.fleet_dir,
        ))
        return supervisor.run()
    print(f"loading service (profile={args.profile}) ...", flush=True)
    service = DimensionService(config)
    server = build_server(service)
    host, port = server.server_address[:2]
    if service.warm_loaded is not None:
        boot = "warm-loaded from artifact store" if service.warm_loaded \
            else "cold-trained (persisted for next boot)"
        print(f"trained context: {boot}", flush=True)
    print(f"serving on http://{host}:{port} "
          f"(queue<= {config.max_queue}, "
          f"rows<= {config.max_inflight_rows})", flush=True)

    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGINT, request_stop)
    signal.signal(signal.SIGTERM, request_stop)
    serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
    serve_thread.start()
    try:
        while serve_thread.is_alive() and not stop.wait(timeout=0.2):
            pass
    finally:
        print("draining in-flight requests ...", flush=True)
        server.shutdown()
        server.server_close()
        serve_thread.join(timeout=10)
    print("bye", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
