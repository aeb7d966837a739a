"""The serving application: state, endpoint handlers, micro-batch wiring.

:class:`DimensionService` owns every long-lived object a request needs --
the shared KB + grounder, the evaluation engine (completion memo +
conversion cache), the optional warm-loaded trained context -- and maps
each endpoint to a handler.  The transport layer
(:mod:`repro.service.http`) stays dumb: it parses JSON, calls
``service.dispatch`` and writes the status/body pair back.

Batching strategy per endpoint:

- ``/solve`` defaults to the continuous decode scheduler
  (:class:`~repro.service.scheduler.ContinuousBatcher`): requests are
  prefilled into live KV rows as rows free up and each answer returns
  the step its row finishes.  ``solve_scheduler="batch"`` keeps the
  run-to-completion micro-batched path instead.
- ``/ground`` and ``/extract`` queue through a
  :class:`~repro.service.batcher.MicroBatcher` each: their backends have
  true batch APIs (``ground_batch``/``extract_batch``) whose throughput
  rides batch size and whose per-item cost is uniform, so
  run-to-completion loses nothing.
- ``/convert``, ``/compare`` and ``/dimension`` answer inline: their
  backends are O(1) after the shared
  :class:`~repro.engine.ConversionCache` warms, so queueing would add
  latency and no throughput.

Trained-model state warm-loads from the PR 3 artifact store at startup
(:func:`repro.experiments.context.get_context`): a host that has trained
the requested profile before -- or restored a CI cache -- boots in
seconds instead of re-training, and ``/healthz`` reports which way it
went.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from repro import faults
from repro.dimension import DimensionError, DimensionLawViolation
from repro.engine import EngineConfig, EvaluationEngine
from repro.experiments.artifacts import set_default_store
from repro.experiments.context import get_context, profile_named
from repro.faults import FaultError
from repro.obs import Trace, Tracer, get_logger, trace_span, use_trace
from repro.quantity.grounder import QuantityGrounder, grounder_for
from repro.service.batcher import BatcherClosed, BatcherSaturated, MicroBatcher
from repro.service.deadline import (
    ClientDisconnected,
    Deadline,
    DeadlineExceeded,
    Probe,
    use_deadline,
    use_probe,
)
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import ContinuousBatcher
from repro.service.schemas import (
    BadRequest,
    UnprocessableRequest,
    encode_dimension,
    encode_quantity,
    encode_unit,
    optional,
    require,
    require_finite,
    require_string_list,
    require_text,
)
from repro.service.solver import MWPSolver
from repro.units import default_kb
from repro.units.conversion import ConversionError
from repro.units.schema import UnitRecord


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving knob in one frozen object."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Micro-batch window: flush at this many queued requests ...
    max_batch_size: int = 32
    #: ... or this many seconds after the first queued request.
    max_latency: float = 0.002
    #: Bounded per-endpoint queue; beyond it requests get 429.
    max_queue: int = 1024
    #: Trained-context profile for /solve: "micro", "quick", "full",
    #: or "off" (KB-backed endpoints only; /solve answers 503).
    profile: str = "off"
    seed: int = 0
    #: Artifact-store override ("" keeps the process default).
    artifact_dir: str = ""
    #: Engine knobs for the completion memo / conversion cache.
    engine_batch_size: int = 32
    completion_cache_size: int = 2048
    #: /solve decode scheduling: "continuous" admits requests into KV
    #: rows mid-flight and retires rows the step they finish; "batch"
    #: keeps the run-to-completion micro-batched path.
    solve_scheduler: str = "continuous"
    #: Continuous-scheduler budget: live KV rows decoding at once.
    #: Queued requests wait for a free row; beyond max_queue they 429.
    max_inflight_rows: int = 32
    #: Probability an un-forced POST request is traced (1.0 = all,
    #: 0.0 = only ``X-Repro-Trace-Force: 1`` / ``?force=1`` requests).
    trace_sample_rate: float = 1.0
    #: Completed traces kept per worker for ``/debug/traces``.
    trace_buffer_size: int = 256
    #: Sampled traces at least this slow (milliseconds) are emitted as
    #: single-line structured JSON log events; 0 disables the emission.
    slow_trace_ms: float = 500.0
    #: Default per-request time budget (milliseconds) when the client
    #: sends no ``X-Repro-Deadline-Ms`` header; 0 disables deadlines
    #: for headerless requests.
    default_deadline_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.profile != "off":
            profile_named(self.profile)  # validate eagerly
        if self.solve_scheduler not in ("continuous", "batch"):
            raise ValueError(
                f"solve_scheduler must be 'continuous' or 'batch', "
                f"got {self.solve_scheduler!r}"
            )
        if self.max_inflight_rows < 1:
            raise ValueError("max_inflight_rows must be at least 1")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be within [0, 1]")
        if self.trace_buffer_size < 1:
            raise ValueError("trace_buffer_size must be at least 1")
        if self.slow_trace_ms < 0:
            raise ValueError("slow_trace_ms must be non-negative")
        if self.default_deadline_ms < 0:
            raise ValueError("default_deadline_ms must be non-negative")


class ServiceUnavailable(RuntimeError):
    """An endpoint whose backend is not loaded (HTTP 503)."""


class TraceNotFound(KeyError):
    """``/debug/traces?id=`` missed every buffer (HTTP 404)."""


#: Routes and their methods, the single source the HTTP layer reads.
ENDPOINTS: dict[str, str] = {
    "/healthz": "GET",
    "/metrics": "GET",
    "/debug/traces": "GET",
    "/ground": "POST",
    "/extract": "POST",
    "/convert": "POST",
    "/compare": "POST",
    "/dimension": "POST",
    "/solve": "POST",
}


class DimensionService:
    """All serving state plus the endpoint dispatch table.

    ``fleet`` (a :class:`repro.service.fleet.FleetContext`) is set when
    this service is one worker of a pre-fork fleet: ``/metrics`` then
    answers with the fleet-wide aggregation (every worker's registry
    merged over the unix-socket peer mesh, ``worker_id``-labelled) and
    ``/healthz`` carries the per-worker liveness block.
    """

    def __init__(self, config: ServiceConfig | None = None, fleet=None):
        self.config = config or ServiceConfig()
        self.fleet = fleet
        self.started_at = time.time()          # wall clock, display only
        self.started_monotonic = time.monotonic()
        self.metrics = MetricsRegistry()
        self._describe_metrics()
        self.log = get_logger("service")
        self.tracer = Tracer(
            sample_rate=self.config.trace_sample_rate,
            buffer_size=self.config.trace_buffer_size,
            slow_seconds=self.config.slow_trace_ms / 1000.0,
            on_finish=self._record_trace,
            on_slow=self._log_slow,
        )
        self.kb = default_kb()
        self.grounder: QuantityGrounder = grounder_for(self.kb)
        self.engine = EvaluationEngine(EngineConfig(
            batch_size=self.config.engine_batch_size,
            completion_cache_size=self.config.completion_cache_size,
        ))
        self.solver: MWPSolver | None = None
        self.warm_loaded: bool | None = None
        if self.config.profile != "off":
            self._load_solver()
        self._batchers: dict[str, MicroBatcher | ContinuousBatcher] = {}
        self._ground_batcher = self._make_batcher(
            "ground", self.grounder.ground_batch
        )
        self._extract_batcher = self._make_batcher(
            "extract", self.grounder.extract_batch
        )
        self._solve_batcher: MicroBatcher | ContinuousBatcher | None = None
        if self.solver is not None:
            if self.config.solve_scheduler == "continuous":
                self._solve_batcher = ContinuousBatcher(
                    self.solver.lm,
                    finish=self.solver.finish,
                    max_inflight_rows=self.config.max_inflight_rows,
                    max_queue=self.config.max_queue,
                    name="solve",
                    on_admit=self._record_batch,
                    on_decode=self._record_decode,
                    on_abandoned=self._record_abandoned,
                    completion_cache=self.engine.runner.completion_cache,
                )
                self._batchers["solve"] = self._solve_batcher
            else:
                self._solve_batcher = self._make_batcher(
                    "solve", self.solver.solve_batch
                )

    # -- construction helpers ------------------------------------------------

    def _make_batcher(self, name: str, fn) -> MicroBatcher:
        batcher = MicroBatcher(
            fn,
            max_batch_size=self.config.max_batch_size,
            max_latency=self.config.max_latency,
            max_queue=self.config.max_queue,
            name=name,
            on_batch=self._record_batch,
        )
        self._batchers[name] = batcher
        return batcher

    def _record_batch(self, name: str, size: int) -> None:
        self.metrics.inc("batches_total", endpoint=name)
        self.metrics.inc("batched_requests_total", size, endpoint=name)

    def _record_abandoned(self, name: str, count: int) -> None:
        self.metrics.inc("requests_abandoned_total", count, endpoint=name)

    def _record_decode(self, stats) -> None:
        """Fold one decode call's :class:`~repro.llm.DecodeStats` into
        the registry -- the serving win of KV-cached decoding shows up
        as tokens per step-second, not just in offline benchmarks."""
        m = self.metrics
        m.inc("solve_decode_tokens_total", stats.tokens)
        m.inc("solve_decode_steps_total", stats.steps)
        m.inc("solve_decode_step_seconds_total", stats.step_seconds)
        m.inc("solve_decode_prefills_total", stats.prefills)
        m.inc("solve_decode_prefill_seconds_total", stats.prefill_seconds)

    def _load_solver(self) -> None:
        """Warm-load the trained context and wire the MWP solver.

        ``get_context`` resolves store-first: when the artifact store
        already holds this (profile, seed) context the boot takes
        seconds; otherwise it cold-trains once and persists, so the
        *next* boot is warm.
        """
        if self.config.artifact_dir:
            set_default_store(self.config.artifact_dir)
        profile = profile_named(self.config.profile)
        cold_trains: list[bool] = []
        context = get_context(
            seed=self.config.seed, profile=profile,
            on_cold_train=lambda: cold_trains.append(True),
        )
        self.warm_loaded = not cold_trains
        lm = context.models.as_dimperc(
            name=f"DimPerc-{self.config.profile}"
        )
        # Every /solve decode reports its token/step/latency counters
        # here: run-to-completion decodes through the LM observer, the
        # continuous scheduler through its own on_decode deltas (both
        # fire from the single solve worker thread).
        lm.decode_observer = self._record_decode
        self.solver = MWPSolver(self.grounder, lm, self.engine.runner)

    def _describe_metrics(self) -> None:
        m = self.metrics
        m.describe("requests_total",
                   "Requests handled, labelled by endpoint and status.")
        m.describe("batches_total",
                   "Micro-batches executed per batched endpoint.")
        m.describe("batched_requests_total",
                   "Requests served through micro-batches (sum of batch "
                   "sizes); divide by batches_total for mean batch size.")
        m.describe("request_seconds_total",
                   "Wall-clock seconds spent handling requests.")
        m.describe("request_seconds",
                   "Per-endpoint request-latency histogram (seconds); "
                   "feed the _bucket rates to histogram_quantile for "
                   "p50/p99.")
        m.describe("queue_depth",
                   "Queued-but-unbatched requests per batched endpoint.")
        m.describe("solve_queue_depth",
                   "/solve requests queued awaiting a decode slot "
                   "(scheduler admission queue; 429 beyond max_queue).")
        m.describe("solve_inflight_rows",
                   "Unique prompts decoding in live KV rows right now "
                   "(continuous scheduler; bounded by max_inflight_rows).")
        m.describe("solve_decode_tokens_total",
                   "Tokens generated by /solve decodes (EOS excluded).")
        m.describe("solve_decode_steps_total",
                   "Incremental decode steps run by /solve.")
        m.describe("solve_decode_step_seconds_total",
                   "Seconds spent in decode steps; divide by "
                   "solve_decode_steps_total for mean per-step latency.")
        m.describe("solve_decode_prefills_total",
                   "KV-cache prefill passes run by /solve.")
        m.describe("solve_decode_prefill_seconds_total",
                   "Seconds spent in KV-cache prefill passes.")
        m.describe("conversion_cache_hits",
                   "Unit-conversion cache hits since boot.")
        m.describe("conversion_cache_misses",
                   "Unit-conversion cache misses since boot.")
        m.describe("traces_sampled_total",
                   "Completed traces that were sampled into the "
                   "/debug/traces ring buffer, per endpoint.")
        m.describe("slow_traces_total",
                   "Sampled traces slower than slow_trace_ms (each one "
                   "also emits a request.slow structured log event).")
        m.describe("trace_stage_seconds_total",
                   "Seconds spent per request lifecycle stage (span "
                   "durations from sampled traces), labelled by "
                   "endpoint and stage.")
        m.describe("trace_stage_samples_total",
                   "Closed spans folded into trace_stage_seconds_total; "
                   "divide for the mean stage latency.")
        m.describe("traces_buffered",
                   "Completed traces currently held in this worker's "
                   "ring buffer (bounded by trace_buffer_size).")
        m.describe("deadline_exceeded_total",
                   "Requests shed because their deadline ran out, "
                   "labelled by endpoint and the lifecycle stage that "
                   "detected the expiry (pre-queue, queued, admitted, "
                   "decoding, waiting); each one answered 504.")
        m.describe("requests_abandoned_total",
                   "Requests dropped at admission because the client "
                   "socket had already disconnected -- the decode work "
                   "those requests would have wasted.")

    # -- tracing --------------------------------------------------------------

    def open_trace(self, endpoint: str, *, trace_id: str | None = None,
                   force: bool = False) -> Trace:
        """Start a request trace (honouring an inbound ``X-Repro-Trace``)."""
        return self.tracer.open(endpoint, trace_id=trace_id, force=force)

    def finish_trace(self, trace: Trace, status: int | None = None) -> None:
        """Seal a request trace after the response bytes are written."""
        self.tracer.finish(trace, status)

    def _record_trace(self, trace: Trace) -> None:
        """Fold one sampled trace's span durations into ``/metrics``."""
        self.metrics.inc("traces_sampled_total", endpoint=trace.endpoint)
        for stage, seconds in trace.stage_seconds().items():
            self.metrics.inc("trace_stage_seconds_total", seconds,
                             endpoint=trace.endpoint, stage=stage)
            self.metrics.inc("trace_stage_samples_total",
                             endpoint=trace.endpoint, stage=stage)

    def _log_slow(self, trace: Trace) -> None:
        """One structured log line per slow trace (the p99 debug trail)."""
        self.metrics.inc("slow_traces_total", endpoint=trace.endpoint)
        self.log.warning(
            "request.slow",
            trace_id=trace.trace_id,
            endpoint=trace.endpoint,
            status=trace.status,
            duration_ms=round((trace.duration or 0.0) * 1000.0, 3),
            threshold_ms=self.config.slow_trace_ms,
            stages={name: round(seconds * 1000.0, 3)
                    for name, seconds in trace.stage_seconds().items()},
        )

    def _worker_label(self) -> int:
        return self.fleet.worker_id if self.fleet is not None else 0

    def dump_traces(self) -> list[dict]:
        """This worker's buffered traces, ``worker_id``-tagged (peer wire)."""
        worker_id = self._worker_label()
        traces = self.tracer.buffer.dump()
        for trace in traces:
            trace["worker_id"] = worker_id
        return traces

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, path: str, payload: dict | None,
                 trace: Trace | None = None,
                 deadline: Deadline | None = None,
                 probe: Probe | None = None) -> tuple[int, dict | str]:
        """Route one parsed request; returns (status, body).

        ``body`` is a dict (JSON-encoded by the transport) except for
        ``/metrics``, which returns the Prometheus text exposition.
        ``trace`` (when the transport opened one) is bound as the
        current trace for the handler's duration, so spans recorded
        anywhere down the call stack -- batcher queues, the decode
        scheduler, the solver -- land on this request's timeline.
        ``deadline`` and ``probe`` (the client-socket liveness check)
        bind the same way: every queue ticket below captures them, and
        expiry anywhere maps to 504 here, disconnection to 499.
        """
        endpoint = path.rstrip("/") or "/"
        handler = {
            "/healthz": self.handle_healthz,
            "/metrics": self.handle_metrics,
            "/debug/traces": self.handle_debug_traces,
            "/ground": self.handle_ground,
            "/extract": self.handle_extract,
            "/convert": self.handle_convert,
            "/compare": self.handle_compare,
            "/dimension": self.handle_dimension,
            "/solve": self.handle_solve,
        }.get(endpoint)
        if handler is None:
            return 404, {"error": f"unknown endpoint {path!r}",
                         "endpoints": sorted(ENDPOINTS)}
        started = time.perf_counter()
        try:
            with use_trace(trace), use_deadline(deadline), use_probe(probe):
                if deadline is not None:
                    deadline.raise_if_expired("pre-queue")
                body = handler(payload if payload is not None else {})
            status = 200
        except BadRequest as exc:
            status, body = 400, {"error": str(exc)}
        except UnprocessableRequest as exc:
            status, body = 422, {"error": str(exc)}
        except BatcherSaturated as exc:
            status, body = 429, {"error": str(exc)}
        except DeadlineExceeded as exc:
            status, body = 504, {"error": str(exc), "stage": exc.stage}
            self.metrics.inc("deadline_exceeded_total",
                             endpoint=endpoint, stage=exc.stage)
            if trace is not None:
                trace.annotate(deadline_exceeded=True,
                               deadline_stage=exc.stage)
        except ClientDisconnected as exc:
            # 499 (nginx convention): the client went away first, so
            # nobody reads this body -- the status keeps the books honest.
            status, body = 499, {"error": str(exc)}
        except (BatcherClosed, ServiceUnavailable) as exc:
            status, body = 503, {"error": str(exc)}
        except FaultError as exc:
            # An injected fault that reached the edge un-degraded:
            # answer as a transient backend outage, never a 500.
            status, body = 503, {"error": f"injected fault: {exc}"}
        except TraceNotFound as exc:
            status, body = 404, {
                "error": exc.args[0] if exc.args else str(exc)
            }
        except Exception as exc:  # noqa: BLE001 -- a backend bug must
            # still answer (and count): batch-fn errors fan out through
            # futures and would otherwise drop the socket with no
            # response and no requests_total sample.
            status, body = 500, {
                "error": f"internal error: {type(exc).__name__}: {exc}"
            }
        elapsed = time.perf_counter() - started
        self.metrics.inc("requests_total",
                         endpoint=endpoint, status=str(status))
        self.metrics.inc("request_seconds_total", elapsed, endpoint=endpoint)
        self.metrics.observe("request_seconds", elapsed, endpoint=endpoint)
        return status, body

    # -- endpoint handlers ----------------------------------------------------

    def handle_healthz(self, payload: dict) -> dict:
        """Liveness/readiness: model state, KB size, batching knobs.

        Fleet mode adds a ``fleet`` block: per-worker warm/cold and
        pid (queried live over the peer mesh) plus the supervisor's
        alive/restart bookkeeping.
        """
        body = self._healthz_body()
        if self.fleet is not None:
            body["fleet"] = self.fleet.health_block(self)
        return body

    def _healthz_body(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "started_at": self.started_at,
            "endpoints": sorted(ENDPOINTS),
            "kb_units": self.kb.statistics().num_units,
            "model": {
                "profile": self.config.profile,
                "loaded": self.solver is not None,
                "warm_loaded": self.warm_loaded,
            },
            "batching": {
                "max_batch_size": self.config.max_batch_size,
                "max_latency_seconds": self.config.max_latency,
                "max_queue": self.config.max_queue,
                "solve_scheduler": self.config.solve_scheduler,
                "max_inflight_rows": self.config.max_inflight_rows,
            },
            "default_deadline_ms": self.config.default_deadline_ms,
            "faults": self._faults_block(),
        }

    @staticmethod
    def _faults_block() -> dict | None:
        """The armed fault plan's counters, or ``None`` when disarmed --
        so an operator (and the chaos harness) can see from ``/healthz``
        which injections actually fired."""
        plan = faults.active()
        if plan is None:
            return None
        return {"seed": plan.seed, "sites": plan.snapshot()}

    def sample_gauges(self) -> None:
        """Refresh every point-in-time gauge from live state.

        Called before any registry read that leaves the process -- the
        local ``/metrics`` rendering and the fleet peer protocol's
        ``dump_state`` both want queue depths as of *now*.
        """
        for name, batcher in self._batchers.items():
            self.metrics.set_gauge("queue_depth", batcher.pending(),
                                   endpoint=name)
        if isinstance(self._solve_batcher, ContinuousBatcher):
            self.metrics.set_gauge("solve_queue_depth",
                                   self._solve_batcher.pending())
            self.metrics.set_gauge("solve_inflight_rows",
                                   self._solve_batcher.inflight_rows())
        stats = self.engine.conversion_cache.stats()
        self.metrics.set_gauge("conversion_cache_hits", stats.hits)
        self.metrics.set_gauge("conversion_cache_misses", stats.misses)
        self.metrics.set_gauge("traces_buffered", len(self.tracer.buffer))

    def handle_metrics(self, payload: dict) -> str:
        """The Prometheus text exposition (queue depths sampled now).

        In fleet mode any worker answers with the merged fleet view:
        its own registry plus every peer's, per-worker series labelled
        ``worker_id=<n>`` and summed totals labelled
        ``worker_id="fleet"``.
        """
        self.sample_gauges()
        if self.fleet is not None:
            return self.fleet.render_metrics(self)
        return self.metrics.render()

    def handle_debug_traces(self, payload: dict) -> dict:
        """Completed request traces from the ring buffer(s).

        Query parameters (the transport passes the query string as the
        payload dict): ``n`` caps the list views (default 20, max 200);
        ``view=recent`` (default) orders newest-completed first,
        ``view=slowest`` by total duration; ``id=<trace_id>`` returns
        that one trace (404 when no buffer holds it).  In fleet mode
        any worker answers with every worker's buffer merged -- same
        peer mesh as ``/metrics`` -- and each trace carries the
        ``worker_id`` that served it.
        """
        trace_id = str(payload.get("id", "") or "")
        view = str(payload.get("view", "recent") or "recent")
        if view not in ("recent", "slowest"):
            raise BadRequest(
                f"query 'view' must be 'recent' or 'slowest', got {view!r}"
            )
        try:
            limit = int(payload.get("n", 20))
        except (TypeError, ValueError) as exc:
            raise BadRequest("query 'n' must be an integer") from exc
        limit = max(1, min(limit, 200))
        if trace_id:
            found = self.tracer.buffer.get(trace_id)
            if found is not None:
                found["worker_id"] = self._worker_label()
            elif self.fleet is not None:
                found = self.fleet.find_trace(trace_id)
            if found is None:
                raise TraceNotFound(
                    f"no buffered trace with id {trace_id!r}"
                )
            return {"trace": found}
        traces = self.dump_traces()
        if self.fleet is not None:
            traces.extend(self.fleet.peer_traces())
        key = "started_unix" if view == "recent" else "duration_ms"
        traces.sort(key=lambda t: t.get(key, 0.0), reverse=True)
        return {
            "view": view,
            "total_buffered": len(traces),
            "count": len(traces[:limit]),
            "traces": traces[:limit],
        }

    def handle_ground(self, payload: dict) -> dict:
        """Grounded quantities of one text (micro-batched Definition 2)."""
        text = require_text(payload)
        quantities = self._ground_batcher(text)
        return {"text": text,
                "quantities": [encode_quantity(q) for q in quantities]}

    def handle_extract(self, payload: dict) -> dict:
        """Every extracted quantity, bare numbers included (micro-batched)."""
        text = require_text(payload)
        quantities = self._extract_batcher(text)
        return {"text": text,
                "quantities": [encode_quantity(q) for q in quantities]}

    def handle_convert(self, payload: dict) -> dict:
        """Affine-safe unit conversion through the shared cache pool."""
        value = require(payload, "value", float)
        source = self._link_unit(require_text(payload, "source"), "source")
        target = self._link_unit(require_text(payload, "target"), "target")
        try:
            converted = self.engine.conversion_cache.convert(
                float(value), source, target
            )
        except (DimensionLawViolation, ConversionError) as exc:
            raise UnprocessableRequest(str(exc)) from exc
        require_finite([converted], "converted magnitude")
        return {
            "magnitude": converted,
            "unit": target.symbol,
            "source": encode_unit(source),
            "target": encode_unit(target),
        }

    def handle_compare(self, payload: dict) -> dict:
        """Rank comparable quantities by SI magnitude (422 otherwise)."""
        items = require(payload, "quantities", list)
        if len(items) < 2:
            raise BadRequest("field 'quantities' needs at least two entries")
        values, units = [], []
        for index, item in enumerate(items):
            values.append(float(require(item, "value", float)))
            units.append(self._link_unit(
                require_text(item, "unit"), f"quantities[{index}].unit"
            ))
        first = units[0].dimension
        for unit in units[1:]:
            if unit.dimension != first:
                raise UnprocessableRequest(
                    f"magnitudes of different dimensions are not "
                    f"comparable: {units[0].symbol} vs {unit.symbol}"
                )
        si_values = [
            unit.conversion_value * value + unit.conversion_offset
            for value, unit in zip(values, units)
        ]
        require_finite(si_values, "SI magnitude")
        ranking = sorted(range(len(si_values)),
                         key=lambda i: si_values[i], reverse=True)
        return {
            "largest": ranking[0],
            "smallest": ranking[-1],
            "ranking": ranking,
            "si_values": si_values,
            "dimension": encode_dimension(first),
        }

    def handle_dimension(self, payload: dict) -> dict:
        """Dimension vector of a mention or a ``mentions``/``ops`` expression."""
        if "mention" in payload:
            mentions = [require_text(payload, "mention")]
            ops: list[str] = []
        else:
            mentions = require_string_list(payload, "mentions")
            ops = optional(payload, "ops", list, [])
            if len(ops) != max(len(mentions) - 1, 0):
                raise BadRequest(
                    "field 'ops' must hold one operator per mention pair "
                    f"({len(mentions) - 1} expected, got {len(ops)})"
                )
            if not all(op in ("*", "/") for op in ops):
                raise BadRequest("field 'ops' entries must be '*' or '/'")
        context = optional(payload, "context", str, "")
        try:
            dimension = self.grounder.dimension_of_mentions(mentions, ops) \
                if ops or len(mentions) > 1 else \
                self.grounder.dimension_of_mention(mentions[0], context)
        except KeyError as exc:
            raise UnprocessableRequest(
                exc.args[0] if exc.args else str(exc)
            ) from exc
        except DimensionError as exc:
            raise UnprocessableRequest(str(exc)) from exc
        return {
            "mentions": mentions,
            "ops": ops,
            "dimension": encode_dimension(dimension),
        }

    def handle_solve(self, payload: dict) -> dict:
        """Ground + decode + calculate one MWP (503 without a model)."""
        if self._solve_batcher is None or self.solver is None:
            raise ServiceUnavailable(
                "no trained model loaded (boot with --profile "
                "micro/quick/full to enable /solve)"
            )
        text = require_text(payload)
        with trace_span("validate"):
            prepared = self.solver.prepare(text)
        result = self._solve_batcher(prepared)
        return {"text": text, **result.to_wire()}

    # -- helpers --------------------------------------------------------------

    def retry_after_seconds(self) -> int:
        """A queue-depth-derived backoff hint for 429/503/504 responses.

        One batch window per queued batch-worth of work, floored at 1s
        and capped at 30s -- honest enough for a client to spread its
        retries without the server promising a precise drain time.
        """
        depth = sum(batcher.pending() for batcher in self._batchers.values())
        return max(1, min(30, 1 + depth // max(self.config.max_batch_size, 1)))

    def _link_unit(self, mention: str, field: str) -> UnitRecord:
        unit = self.grounder.link_best(mention)
        if unit is None:
            raise UnprocessableRequest(
                f"cannot link unit mention {mention!r} (field {field!r})"
            )
        return unit

    # -- lifecycle ------------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new work everywhere while queued work keeps running.

        Every batcher flips to :class:`BatcherClosed` (the dispatch
        table answers 503) without waiting for its queue -- the fleet's
        SIGTERM ordering guarantee: the whole worker stops admitting
        *before* anything exits.  Follow with :meth:`close` to wait the
        queues out.
        """
        for batcher in self._batchers.values():
            batcher.drain()

    def close(self) -> None:
        """Graceful shutdown: drain every batcher's queue, then stop."""
        for batcher in self._batchers.values():
            batcher.close()


def encode_body(body: dict | str) -> tuple[bytes, str]:
    """Serialize a handler body: (payload bytes, content type)."""
    if isinstance(body, str):
        return body.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
    data = json.dumps(body, ensure_ascii=False, sort_keys=True)
    return data.encode("utf-8"), "application/json; charset=utf-8"
