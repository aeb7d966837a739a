"""repro.service: the online serving layer over the whole scenario surface.

Everything PRs 1-3 built runs offline (engine batches, experiment
scheduler, annotation pipeline); this package turns the same hot paths
into JSON endpoints behind a stdlib-only threaded HTTP server::

    python -m repro.service --port 8080 --profile quick

    POST /ground     {"text": "货车以9.9m/s行驶了3 h"}
    POST /extract    {"text": "..."}                    # ungrounded too
    POST /convert    {"value": 2.06, "source": "m", "target": "cm"}
    POST /compare    {"quantities": [{"value": 1, "unit": "km"}, ...]}
    POST /dimension  {"mentions": ["km", "h"], "ops": ["/"]}
    POST /solve      {"text": "..."}                    # trained MWP decode
    GET  /healthz
    GET  /metrics                                       # Prometheus text

``/ground``, ``/extract``, ``/convert``, ``/compare`` and ``/dimension``
answer inline on the handler thread.  ``/solve`` decodes through a
continuous-batching scheduler (:class:`~repro.service.scheduler.ContinuousBatcher`):
requests prefill into live KV-cache rows as rows free up, each response
returns the step its row finishes, and a bounded in-flight budget turns
overload into 429s.  Trained model contexts warm-load from the
experiment artifact store at startup instead of retraining.

``--workers N`` escapes the single GIL-bound process entirely: a
pre-fork supervisor (:mod:`repro.service.fleet`) warms the shared
state once, forks N workers onto the same port via ``SO_REUSEPORT``
(or a parent fd-passing acceptor), restarts crashed workers with
backoff, drains gracefully on SIGTERM, and aggregates every worker's
metrics so one scrape sees the whole fleet.  See ``docs/SERVING.md``
for the operator runbook and ``docs/METRICS.md`` for every exported
``/metrics`` series.
"""

from repro.service.app import (
    ENDPOINTS,
    DimensionService,
    ServiceConfig,
    ServiceUnavailable,
)
from repro.service.deadline import (
    DEADLINE_HEADER,
    ClientDisconnected,
    Deadline,
    DeadlineExceeded,
    Ticket,
)
from repro.service.fleet import FleetConfig, FleetContext, FleetSupervisor
from repro.service.http import ServiceServer, build_server
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import (
    BatcherClosed,
    BatcherSaturated,
    ContinuousBatcher,
)
from repro.service.schemas import BadRequest, UnprocessableRequest
from repro.service.solver import MWPSolver, SolveResult

__all__ = [
    "DEADLINE_HEADER",
    "ENDPOINTS",
    "BadRequest",
    "BatcherClosed",
    "BatcherSaturated",
    "ClientDisconnected",
    "ContinuousBatcher",
    "Deadline",
    "DeadlineExceeded",
    "DimensionService",
    "FleetConfig",
    "FleetContext",
    "FleetSupervisor",
    "MWPSolver",
    "MetricsRegistry",
    "ServiceConfig",
    "ServiceServer",
    "ServiceUnavailable",
    "SolveResult",
    "Ticket",
    "UnprocessableRequest",
    "build_server",
]
