"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload solve-distinct --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Serving workloads start the
service through its CLI (``python -m repro.service --profile micro``)
in its own process, against an artifact store this command fills
before timing, and drive it from this process with closed-loop client
threads over keep-alive connections.  ``train-cold`` cold-trains
QUICK-shaped contexts into empty stores.  See ``perfbench/README.md``
for the workloads, the metrics and which layer should move which.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of an extra traced
phase (``launch.py --trace-out``), next to the untraced throughput.  The
line before it holds the run's full record: host, per-phase request
counts, digests and the raw samples' sizes.  Any wrong answer fails the
run: the result says ``"correct": false`` and the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import uuid

import layers
import loadgen
import workloads
from launch import peak_rss_kb

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("solve-distinct", "front-mix", "train-cold")
#: Closed-loop client threads, one keep-alive connection each.
CLIENTS = max(1, min(2, len(os.sched_getaffinity(0))))
#: Leading requests of every stream whose answers are digested and
#: compared against a sequential pass on a separate server process.
N_CHECK = 24
#: Server boots per run (setup_s is their median; the last one serves).
BOOTS = 5
#: Micro contexts cold-trained per training process on the serving
#: workloads: seeds 0..N-1 fill the store before timing (the service
#: uses seed 0), seeds N..2N-1 train after the measured phase.
#: train_wall_s is the median of all 2N.  On a shared 2-vCPU host the
#: CPU speed drifts by up to 15% over tens of seconds; samples taken
#: ~30 s apart average some of that out.
FILL_SEEDS = 5
#: Cold trains per train-cold phase, at the least.
MIN_JOBS = 3
STREAM_LENGTH = {"solve-distinct": 13824, "front-mix": 60000}
BOOT_TIMEOUT = 60.0
POST_SERIES = ("/solve", "/ground", "/extract", "/convert", "/compare",
               "/dimension")
#: /metrics series whose change over each measured phase is recorded.
COUNTERS = ("solve_decode_tokens_total", "solve_decode_prefills_total",
            "solve_decode_steps_total", "conversion_cache_hits",
            "conversion_cache_misses", "requests_total")


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


def host_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine()}
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(numpy=numpy.__version__,
                    blas=f"{blas.get('name')} {blas.get('version')}")
    except (ImportError, KeyError, TypeError) as exc:
        info["numpy"] = f"unavailable: {exc}"
    return info


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat.

    Steal is time the hypervisor ran something else while this machine
    had work; on shared hosts it explains most run-to-run spread.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        ticks = [int(field) for field in stat.readline().split()[1:]]
    return ticks[7], sum(ticks)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def digest_key(workload: str, seed: int) -> str:
    source = (HERE / "workloads.py").read_bytes() + (
        HERE / "launch.py").read_bytes()
    return f"{workload}/{seed}/{hashlib.sha256(source).hexdigest()[:16]}"


def check_persisted_digest(key: str, digest: str) -> None:
    """Same code and seed must give the same digest as earlier runs in
    this checkout; the first run records it."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, digest) != digest:
        raise CheckFailed(f"digest {digest[:16]} differs from the "
                          f"{known[key][:16]} an earlier run recorded")
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


# -- processes -----------------------------------------------------------------

class Service:
    """One service process, started through the CLI and ready to serve."""

    def __init__(self, store: pathlib.Path, log: pathlib.Path,
                 trace_out: pathlib.Path | None = None):
        self.port = free_port()
        args = ["--profile", "micro", "--seed", "0", "--port",
                str(self.port), "--artifact-dir", str(store)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service", *args]
        else:
            command = [sys.executable, str(HERE / "launch.py"),
                       "--trace-out", str(trace_out), "serve", *args]
        self.log = log.open("ab")
        started = time.monotonic()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        try:
            health = self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started
        if health["model"]["warm_loaded"] is not True:
            self.stop()
            raise CheckFailed("the service did not warm-load its context")

    def _wait_healthy(self, started: float) -> dict:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited during boot with "
                                   f"{self.proc.returncode}; see {self.log.name}")
            client = loadgen.Client(self.port, timeout=5.0)
            try:
                status, body = client.call("GET", "/healthz")
                if status == 200:
                    return json.loads(body)
            except (OSError, ValueError):
                pass
            finally:
                client.close()
            if time.monotonic() - started > BOOT_TIMEOUT:
                raise RuntimeError("service never became healthy")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return peak_rss_kb(self.proc.pid) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def train_job(profile: str, seeds: range, scratch: pathlib.Path,
              trace_out: pathlib.Path | None = None) -> dict:
    """One training process cold-training ``seeds`` into an empty store."""
    store = scratch / f"store-{uuid.uuid4().hex[:8]}"
    command = [sys.executable, str(HERE / "launch.py")]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["train", "--profile", profile,
                "--first-seed", str(seeds.start), "--seeds", str(len(seeds)),
                "--store", str(store)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=150)
    finished = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"training process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(setup_s=result.pop("kb_ready") - started,
                  job_s=finished - started, store=str(store))
    return result


# -- serving ---------------------------------------------------------------------

def check_outcomes(outcomes: list, stream: list, phase: dict) -> list[dict]:
    """Every response must be 200, JSON, and the right answer."""
    bodies = []
    for outcome in outcomes:
        path, request = stream[outcome.index]
        try:
            if outcome.status != 200:
                raise CheckFailed(f"{path} #{outcome.index} answered "
                                  f"{outcome.status or outcome.error}")
            body = json.loads(outcome.body)
            workloads.check(path, request, body)
        except (CheckFailed, ValueError, KeyError, TypeError,
                workloads.WrongAnswer) as exc:
            phase["failed"] += 1
            phase.setdefault("errors", []).append(str(exc)[:300])
            continue
        phase["succeeded"] += 1
        bodies.append(body)
    phase["attempted"] += len(outcomes)
    return bodies


def drive(port: int, stream: list, phases: dict, name: str, *,
          clients: int = 1, seconds: float | None = None,
          prefix: str = "w", think: list[float] | None = None,
          ) -> tuple[list, float, list]:
    phase = phases.setdefault(name, {"attempted": 0, "succeeded": 0,
                                     "failed": 0})
    outcomes, wall = loadgen.run_closed_loop(
        port, stream, clients=clients, seconds=seconds, prefix=prefix,
        minimum=N_CHECK if seconds is not None else 0, think=think)
    bodies = check_outcomes(outcomes, stream, phase)
    return outcomes, wall, bodies


def response_digest(outcomes: list) -> str:
    leading = [(o.index, o.body.decode("utf-8")) for o in outcomes
               if o.index < N_CHECK]
    if len(leading) != N_CHECK:
        raise CheckFailed(f"only {len(leading)} of the first {N_CHECK} "
                          f"requests were answered")
    return hashlib.sha256(json.dumps(leading).encode("utf-8")).hexdigest()


def served_ok(before: dict, after: dict) -> float:
    total = 0.0
    for endpoint in POST_SERIES:
        key = (f'repro_service_requests_total{{endpoint="{endpoint}",'
               f'status="200"}}')
        total += after.get(key, 0.0) - before.get(key, 0.0)
    return total


def measured_phase(service: Service, workload: str, stream: list,
                   think: list[float], warmup: list, phases: dict,
                   label: str, seconds: float) -> dict:
    """Warm up, then measure ``seconds`` of closed-loop traffic."""
    drive(service.port, warmup, phases, f"{label}warmup")
    before = loadgen.scrape(service.port)
    window_start = time.monotonic()
    outcomes, wall, bodies = drive(
        service.port, stream, phases, f"{label}measured", clients=CLIENTS,
        seconds=seconds, prefix="m", think=think)
    window_end = time.monotonic()
    after = loadgen.scrape(service.port)
    deltas = {name: loadgen.series_delta(before, after,
                                         f"repro_service_{name}")
              for name in COUNTERS}
    ok = [o for o in outcomes if o.status == 200]
    if served_ok(before, after) != len(ok):
        raise CheckFailed(f"server counted {served_ok(before, after):g} "
                          f"answered requests, client {len(ok)}")
    if workload == "front-mix" and deltas["solve_decode_prefills_total"]:
        raise CheckFailed("front-mix /solve requests reached prefill; the "
                          "completion memo was bypassed")
    if workload == "solve-distinct":
        prompts = [body["prompt"] for body in bodies]
        if len(set(prompts)) != len(prompts):
            raise CheckFailed("solve-distinct repeated a slotted prompt")
    latencies = [o.latency_ms for o in ok]
    return {"outcomes": outcomes, "wall": wall, "deltas": deltas,
            "window": (window_start, window_end),
            "throughput_rps": len(ok) / wall,
            "latency_p50_ms": loadgen.percentile(latencies, 0.50),
            "latency_p95_ms": loadgen.percentile(latencies, 0.95),
            "samples": len(latencies),
            "peak_rss_mb": service.peak_rss_mb()}


def serving_run(args: argparse.Namespace, scratch: pathlib.Path,
                record: dict) -> dict:
    workload, seed = args.workload, args.seed
    if workload == "solve-distinct":
        stream = workloads.solve_distinct(seed, STREAM_LENGTH[workload])
        warmup = workloads.solve_warmup()
    else:
        stream = workloads.front_mix(seed, STREAM_LENGTH[workload])
        warmup = workloads.front_warmup()
    think = loadgen.think_times(seed, len(stream))
    phases = record["phases"]
    log = scratch / "service.log"

    fill = train_job("micro", range(FILL_SEEDS), scratch)
    store = pathlib.Path(fill["store"])

    setups = []
    reference = None
    for boot in range(BOOTS):
        service = Service(store, log)
        setups.append(service.setup_s)
        if boot == BOOTS - 1:
            break
        try:
            if boot == 0:
                drive(service.port, warmup, phases, "reference")
                outcomes, _, _ = drive(service.port, stream[:N_CHECK],
                                       phases, "reference")
                reference = response_digest(outcomes)
        finally:
            service.stop()
    try:
        measured = measured_phase(service, workload, stream, think,
                                  warmup, phases, "", args.seconds)
    finally:
        service.stop()
    train_walls = fill["train_walls_s"] + train_job(
        "micro", range(FILL_SEEDS, 2 * FILL_SEEDS), scratch)["train_walls_s"]
    digest = response_digest(measured["outcomes"])
    if digest != reference:
        raise CheckFailed("measured answers differ from the sequential "
                          "reference pass on another server process")
    check_persisted_digest(digest_key(workload, seed), digest)
    record.update(response_digest=digest, boot_setups_s=setups,
                  fill_train_walls_s=train_walls,
                  latency_samples=measured["samples"],
                  counter_deltas=measured["deltas"],
                  measured_wall_s=measured["wall"],
                  per_endpoint_p50_ms=per_endpoint(measured["outcomes"],
                                                   stream))
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": measured["throughput_rps"],
        "latency_p50_ms": measured["latency_p50_ms"],
        "latency_p95_ms": measured["latency_p95_ms"],
        "peak_rss_mb": measured["peak_rss_mb"],
        "train_wall_s": statistics.median(train_walls),
    }
    if args.trace:
        trace_out = scratch / "spans.json"
        traced = Service(store, log, trace_out=trace_out)
        try:
            traced_phase = measured_phase(traced, workload, stream, think,
                                          warmup, phases, "traced-",
                                          args.seconds)
        finally:
            traced.stop()
        if response_digest(traced_phase["outcomes"]) != reference:
            raise CheckFailed("traced answers differ from the reference")
        spans = json.loads(trace_out.read_text())["spans"]
        per_layer = layers.serving_layers(
            spans, traced_phase["outcomes"], stream, traced_phase["window"],
            "m", traced_phase["deltas"])
        return with_overhead(workload, per_layer, metrics,
                             traced_phase["throughput_rps"], record)
    return metrics


def per_endpoint(outcomes: list, stream: list) -> dict:
    by_path: dict[str, list[float]] = {}
    for outcome in outcomes:
        if outcome.status == 200:
            by_path.setdefault(stream[outcome.index][0], []).append(
                outcome.latency_ms)
    return {path: loadgen.percentile(values, 0.5)
            for path, values in sorted(by_path.items())}


# -- training ------------------------------------------------------------------------

def train_phase(args: argparse.Namespace, scratch: pathlib.Path,
                phases: dict, name: str,
                trace_dir: pathlib.Path | None = None) -> dict:
    phase = phases.setdefault(name, {"attempted": 0, "succeeded": 0,
                                     "failed": 0})
    jobs = []
    started = time.monotonic()
    while len(jobs) < MIN_JOBS or time.monotonic() - started < args.seconds:
        trace_out = (trace_dir / f"job-{len(jobs)}.json"
                     if trace_dir is not None else None)
        phase["attempted"] += 1
        jobs.append(train_job("quick-cut", range(1), scratch, trace_out))
        phase["succeeded"] += 1
        shutil.rmtree(jobs[-1]["store"], ignore_errors=True)
    wall = time.monotonic() - started
    if len({job["params_digests"][0] for job in jobs}) != 1:
        raise CheckFailed("cold trains of one seed produced different "
                          "parameters")
    job_ms = [job["job_s"] * 1000.0 for job in jobs]
    return {"jobs": jobs, "wall": wall,
            "throughput_rps": len(jobs) / wall,
            "latency_p50_ms": statistics.median(job_ms),
            "latency_p95_ms": loadgen.percentile(job_ms, 0.95),
            "setup_s": statistics.median(job["setup_s"] for job in jobs),
            "train_wall_s": statistics.median(
                job["train_walls_s"][0] for job in jobs),
            "peak_rss_mb": statistics.median(
                job["peak_rss_kb"] for job in jobs) / 1024.0}


def train_run(args: argparse.Namespace, scratch: pathlib.Path,
              record: dict) -> dict:
    phases = record["phases"]
    untraced = train_phase(args, scratch, phases, "measured")
    digest = untraced["jobs"][0]["params_digests"][0]
    check_persisted_digest(digest_key("train-cold", 0), digest)
    record.update(params_digest=digest, jobs=[
        {k: job[k] for k in ("setup_s", "train_walls_s", "job_s",
                             "peak_rss_kb")} for job in untraced["jobs"]])
    metrics = {name: untraced[name] for name in (
        "setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms",
        "peak_rss_mb", "train_wall_s")}
    if args.trace:
        trace_dir = scratch / "spans"
        trace_dir.mkdir()
        traced = train_phase(args, scratch, phases, "traced-measured",
                             trace_dir)
        if traced["jobs"][0]["params_digests"][0] != digest:
            raise CheckFailed("traced cold train produced other parameters")
        spans = []
        for path in sorted(trace_dir.glob("job-*.json")):
            spans += json.loads(path.read_text())["spans"]
        per_layer = layers.training_layers(spans)
        # per-process sums, not per-run: report one job's worth
        for name, value in list(per_layer.items()):
            if name.endswith(("_calls", "_busy_ms", "_busy_s")) or \
                    name == "llm.train_steps":
                per_layer[name] = value / len(traced["jobs"])
        return with_overhead("train-cold", per_layer, metrics,
                             traced["throughput_rps"], record)
    return metrics


# -- result ----------------------------------------------------------------------------

def with_overhead(workload: str, per_layer: dict, untraced: dict,
                  traced_rps: float, record: dict) -> dict:
    """Add the traced run's throughput next to the untraced median."""
    history = WORK / "history.jsonl"
    bases = [untraced["throughput_rps"]]
    if history.exists():
        for line in history.read_text().splitlines():
            entry = json.loads(line)
            if entry["workload"] == workload:
                bases.append(entry["throughput_rps"])
    base = statistics.median(bases)
    per_layer.update({"trace.throughput_rps": traced_rps,
                      "trace.untraced_rps": base,
                      "trace.overhead_ratio": traced_rps / base})
    record["tracing_overhead"] = {
        "traced_rps": traced_rps, "untraced_median_rps": base,
        "untraced_runs": len(bases),
        "ratio": f"{traced_rps:.4g} / {base:.4g} = {traced_rps / base:.4f}"}
    return per_layer


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every started process stops
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "service" / "__main__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    scratch.mkdir()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "clients": CLIENTS, "host": host_info(), "phases": {}}
    correct = True
    steal_before = cpu_ticks()
    try:
        if args.workload == "train-cold":
            metrics = train_run(args, scratch, record)
        else:
            metrics = serving_run(args, scratch, record)
        failed = sum(p["failed"] for p in record["phases"].values())
        if failed:
            raise CheckFailed(f"{failed} requests failed")
    except CheckFailed as exc:
        correct = False
        record["check_failed"] = str(exc)
        metrics = {}
    finally:
        for leftover in [scratch / "spans", *scratch.glob("store-*")]:
            shutil.rmtree(leftover, ignore_errors=True)
    if correct:
        shutil.rmtree(scratch, ignore_errors=True)
    steal_after = cpu_ticks()
    record["host"]["steal_share"] = (
        (steal_after[0] - steal_before[0])
        / max(1, steal_after[1] - steal_before[1]))
    measured = [p for name, p in record["phases"].items()
                if name.endswith("measured")]
    attempted = sum(p["attempted"] for p in measured)
    failed = sum(p["failed"] for p in measured)
    record["error_share"] = failed / attempted if attempted else 1.0
    if correct and not args.trace:
        with (WORK / "history.jsonl").open("a") as history:
            history.write(json.dumps({
                "workload": args.workload,
                "throughput_rps": metrics["throughput_rps"]}) + "\n")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    unit_of = {m["name"]: m["unit"] for m in declared[kind]}
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]}
                    for name in unit_of if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
