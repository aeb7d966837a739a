"""Thread-safe service counters with a Prometheus text rendering.

A deliberately small registry: labelled monotonic counters,
point-in-time gauges and cumulative histograms, enough for ``/metrics``
to answer the questions an operator actually asks of this service
(request rates per endpoint and status, ``/solve`` admission-wave
width, request-latency percentiles) without pulling in a client
library the container doesn't have.  ``docs/METRICS.md`` is the
reference for every series the service exports; the CI docs check
fails when an exported name is missing there.
"""

from __future__ import annotations

import bisect
import threading
from collections import defaultdict

#: Prefix every exported sample so scrapes can't collide with other jobs.
_NAMESPACE = "repro_service"

#: Default histogram upper bounds (seconds): request latencies here span
#: sub-millisecond KB lookups to multi-second saturated /solve decodes.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _format_le(bound: float) -> str:
    """Prometheus-style bucket label: trim trailing zeros, keep '+Inf'."""
    if bound == float("inf"):
        return "+Inf"
    return f"{bound:g}"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Order matters: backslashes first, then quotes and newlines -- a
    value like ``he said "hi"\\n`` must render as
    ``he said \\"hi\\"\\n`` or the sample line stops parsing (and a raw
    newline would smear one sample across two exposition lines).
    """
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"'
                    for key, value in labels)
    return "{" + body + "}"


class MetricsRegistry:
    """Labelled counters/gauges/histograms behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, dict[tuple[tuple[str, str], ...], float]] = (
            defaultdict(dict)
        )  # guarded by: self._lock
        self._gauges: dict[str, dict[tuple[tuple[str, str], ...], float]] = (
            defaultdict(dict)
        )  # guarded by: self._lock
        #: name -> labels -> [per-bucket counts..., sum, count]; bucket
        #: bounds live per name in _bounds (fixed at first observe).
        self._histograms: dict[
            str, dict[tuple[tuple[str, str], ...], dict]
        ] = defaultdict(dict)  # guarded by: self._lock
        self._bounds: dict[str, tuple[float, ...]] = {}  # guarded by: self._lock
        self._help: dict[str, str] = {}  # guarded by: self._lock

    # -- write side ---------------------------------------------------------

    def describe(self, name: str, help_text: str) -> None:
        """Attach a HELP line to a metric name."""
        with self._lock:
            self._help[name] = help_text

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` to a labelled counter (created at 0)."""
        key = tuple(sorted(labels.items()))
        with self._lock:
            series = self._counters[name]
            series[key] = series.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a labelled gauge to ``value``."""
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._gauges[name][key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> None:
        """Record ``value`` into a cumulative histogram series.

        Renders as the standard Prometheus histogram triple --
        ``<name>_bucket{le="..."}`` (cumulative counts), ``<name>_sum``
        and ``<name>_count`` -- so p50/p99 are derivable downstream
        (``histogram_quantile`` over the bucket rates).  The bucket
        bounds are fixed by the first observation of ``name``; later
        ``buckets`` arguments are ignored, keeping every labelled
        series of one name comparable.
        """
        key = tuple(sorted(labels.items()))
        with self._lock:
            bounds = self._bounds.setdefault(name, tuple(sorted(buckets)))
            series = self._histograms[name]
            hist = series.get(key)
            if hist is None:
                hist = series[key] = {
                    "buckets": [0] * len(bounds), "sum": 0.0, "count": 0,
                }
            index = bisect.bisect_left(bounds, value)
            if index < len(bounds):
                hist["buckets"][index] += 1
            hist["sum"] += value
            hist["count"] += 1

    # -- read side ----------------------------------------------------------

    def histogram(self, name: str, **labels: str) -> dict | None:
        """One histogram series as ``{bounds, buckets, sum, count}``.

        ``buckets`` holds *cumulative* counts aligned with ``bounds``
        (the ``le`` upper bounds, ``+Inf`` excluded -- ``count`` is the
        ``+Inf`` bucket).  ``None`` when the series was never observed.
        """
        key = tuple(sorted(labels.items()))
        with self._lock:
            hist = self._histograms.get(name, {}).get(key)
            if hist is None:
                return None
            cumulative: list[int] = []
            running = 0
            for bucket in hist["buckets"]:
                running += bucket
                cumulative.append(running)
            return {
                "bounds": self._bounds[name],
                "buckets": cumulative,
                "sum": hist["sum"],
                "count": hist["count"],
            }

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge series (0.0 if unset)."""
        key = tuple(sorted(labels.items()))
        with self._lock:
            if name in self._counters and key in self._counters[name]:
                return self._counters[name][key]
            return self._gauges.get(name, {}).get(key, 0.0)

    def snapshot(self) -> dict:
        """Every series as nested plain dicts (the JSON rendering)."""
        with self._lock:
            out: dict = {}
            for kind in (self._counters, self._gauges):
                for name, series in kind.items():
                    rendered = out.setdefault(f"{_NAMESPACE}_{name}", {})
                    for labels, value in series.items():
                        label_key = _render_labels(labels) or "total"
                        rendered[label_key] = value
            for name, series in self._histograms.items():
                rendered = out.setdefault(f"{_NAMESPACE}_{name}", {})
                for labels, hist in series.items():
                    label_key = _render_labels(labels) or "total"
                    rendered[label_key] = {
                        "sum": hist["sum"], "count": hist["count"],
                    }
            return out

    def dump_state(self) -> dict:
        """Every raw series as a JSON-able structure for fleet merges.

        Unlike :meth:`snapshot` (a human-facing rendering), this
        preserves enough structure -- label tuples, per-bucket
        (non-cumulative) histogram counts, bounds, HELP text -- for
        :meth:`absorb` on another process's registry to reconstruct and
        sum the series exactly.  Labels ship as ``[[key, value], ...]``
        pairs because JSON has no tuples.
        """
        with self._lock:
            return {
                "counters": {
                    name: [[[list(pair) for pair in labels], value]
                           for labels, value in series.items()]
                    for name, series in self._counters.items()
                },
                "gauges": {
                    name: [[[list(pair) for pair in labels], value]
                           for labels, value in series.items()]
                    for name, series in self._gauges.items()
                },
                "histograms": {
                    name: {
                        "bounds": list(self._bounds[name]),
                        "series": [
                            [[list(pair) for pair in labels],
                             list(hist["buckets"]), hist["sum"],
                             hist["count"]]
                            for labels, hist in series.items()
                        ],
                    }
                    for name, series in self._histograms.items()
                },
                "help": dict(self._help),
            }

    def absorb(self, state: dict, **extra_labels: str) -> None:
        """Merge a :meth:`dump_state` payload into this registry.

        ``extra_labels`` are appended to every absorbed series -- the
        fleet aggregator absorbs each worker's dump once with
        ``worker_id=<n>`` (per-worker series) and once with
        ``worker_id="fleet"`` (summed totals).  Counters and gauges
        add; histograms merge bucket-wise when the bounds agree (they
        always do inside one fleet -- every worker runs the same code)
        and fall back to sum/count-only otherwise.  HELP text is kept
        from the first description seen.
        """
        def _key(raw_labels) -> tuple[tuple[str, str], ...]:
            merged = {str(k): str(v) for k, v in raw_labels}
            merged.update(extra_labels)
            return tuple(sorted(merged.items()))

        with self._lock:
            for name, text in state.get("help", {}).items():
                self._help.setdefault(name, text)
            for name, series in state.get("counters", {}).items():
                target = self._counters[name]
                for raw_labels, value in series:
                    key = _key(raw_labels)
                    target[key] = target.get(key, 0.0) + value
            for name, series in state.get("gauges", {}).items():
                target = self._gauges[name]
                for raw_labels, value in series:
                    key = _key(raw_labels)
                    target[key] = target.get(key, 0.0) + value
            for name, payload in state.get("histograms", {}).items():
                bounds = tuple(payload["bounds"])
                known = self._bounds.setdefault(name, bounds)
                target = self._histograms[name]
                for raw_labels, buckets, total, count in payload["series"]:
                    key = _key(raw_labels)
                    hist = target.get(key)
                    if hist is None:
                        hist = target[key] = {
                            "buckets": [0] * len(known),
                            "sum": 0.0, "count": 0,
                        }
                    if known == bounds:
                        for index, bucket in enumerate(buckets):
                            hist["buckets"][index] += bucket
                    hist["sum"] += total
                    hist["count"] += count

    def render(self) -> str:
        """The Prometheus text-format exposition."""
        lines: list[str] = []
        with self._lock:
            names = sorted(set(self._counters) | set(self._gauges)
                           | set(self._histograms))
            for name in names:
                full = f"{_NAMESPACE}_{name}"
                if name in self._help:
                    lines.append(f"# HELP {full} {self._help[name]}")
                if name in self._histograms:
                    lines.append(f"# TYPE {full} histogram")
                    bounds = self._bounds[name]
                    series = self._histograms[name]
                    for labels in sorted(series):
                        hist = series[labels]
                        running = 0
                        for bound, bucket in zip(bounds, hist["buckets"]):
                            running += bucket
                            le = (*labels, ("le", _format_le(bound)))
                            lines.append(
                                f"{full}_bucket{_render_labels(le)} "
                                f"{running}"
                            )
                        inf = (*labels, ("le", "+Inf"))
                        lines.append(
                            f"{full}_bucket{_render_labels(inf)} "
                            f"{hist['count']}"
                        )
                        rendered = _render_labels(labels)
                        lines.append(f"{full}_sum{rendered} "
                                     f"{hist['sum']:g}")
                        lines.append(f"{full}_count{rendered} "
                                     f"{hist['count']}")
                    continue
                kind = "counter" if name in self._counters else "gauge"
                lines.append(f"# TYPE {full} {kind}")
                series = {**self._gauges.get(name, {}),
                          **self._counters.get(name, {})}
                for labels in sorted(series):
                    value = series[labels]
                    lines.append(f"{full}{_render_labels(labels)} {value:g}")
        return "\n".join(lines) + "\n"
