"""Per-layer metrics from the spans ``launch.py`` records.

Request-path layers count only spans inside the measured phase; the
training, DimEval and artifact layers count the whole process, because
on the serving workloads their work (a warm load) happens at set-up.
A timed call ``B`` yields ``B_ms`` (median per call), ``B_calls`` and
``B_busy_ms`` (summed duration); ``_s`` replaces ``_ms`` for the
seconds-scale calls.
"""

from __future__ import annotations

import statistics

from loadgen import percentile

ENDPOINTS = ("solve", "ground", "extract", "convert", "compare",
             "dimension")

#: (span name, unit, count-metric name or None for ``<span>_calls``)
TIMED = [
    ("http.handle", "ms", None),
    ("solver.prepare", "ms", None),
    ("solver.finish", "ms", None),
    ("quantity.extract", "ms", None),
    ("quantity.ground_batch", "ms", None),
    ("quantity.extract_batch", "ms", None),
    ("linking.link_best", "ms", None),
    ("llm.prefill", "ms", None),
    ("llm.step", "ms", None),
    ("llm.kv_concat", "ms", None),
    ("llm.kv_select", "ms", None),
    ("llm.train_step", "ms", "llm.train_steps"),
    ("llm.adam_step", "ms", None),
    ("dimeval.split_build", "s", None),
    ("artifacts.save", "s", None),
    ("artifacts.load", "s", None),
]
#: Spans counted over the whole process rather than the measured phase.
WHOLE_PROCESS = ("llm.train_step", "llm.adam_step", "dimeval.split_build",
                 "artifacts.save", "artifacts.load")
SCALE = {"ms": 1000.0, "s": 1.0}
#: Seconds a phase's spans may end after its last response arrived: the
#: handler span closes after the last byte is written.
SLACK = 1.0


def metric_names() -> list[str]:
    """Every per-layer metric name, in a stable order."""
    names = []
    for base, unit, count_name in TIMED:
        names += [f"{base}_{unit}", count_name or f"{base}_calls",
                  f"{base}_busy_{unit}"]
    for endpoint in ENDPOINTS:
        names += [f"app.dispatch_ms.{endpoint}", f"app.requests.{endpoint}"]
    return names + [
        "http.outside_dispatch_ms", "batcher.texts_per_call",
        "batcher.wait_ms", "scheduler.memo_hit_share",
        "scheduler.rows_per_step", "scheduler.steps_per_request",
        "engine.conversion_cache_hit_share", "llm.prefill_rows",
        "llm.step_busy_share", "llm.window_calls", "llm.tokens_per_request",
        "trace.unaccounted_p50_ms", "trace.unaccounted_p95_ms",
        "trace.throughput_rps", "trace.untraced_rps",
        "trace.overhead_ratio",
    ]


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def timed_calls(spans: list, window: tuple[float, float] | None) -> dict:
    """The TIMED triples over ``spans`` (zeros for calls never made)."""
    durations: dict[str, list[float]] = {}
    for name, start, end, *_ in spans:
        if (window is not None and name not in WHOLE_PROCESS
                and not (window[0] <= start and end <= window[1])):
            continue
        durations.setdefault(name, []).append(end - start)
    metrics = {}
    for base, unit, count_name in TIMED:
        values = durations.get(base, [])
        scale = SCALE[unit]
        metrics[f"{base}_{unit}"] = (
            statistics.median(values) * scale if values else 0.0)
        metrics[count_name or f"{base}_calls"] = len(values)
        metrics[f"{base}_busy_{unit}"] = sum(values) * scale
    return metrics


def serving_layers(spans: list, outcomes: list, stream: list,
                   window: tuple[float, float], prefix: str,
                   deltas: dict[str, float]) -> dict:
    """Per-layer metrics of one traced measured phase.

    ``outcomes`` are the phase's client results (request ids are
    ``prefix`` + index into ``stream``); ``deltas`` holds the /metrics
    counter changes over the phase.
    """
    bounds = (window[0], window[1] + SLACK)
    metrics = timed_calls(spans, bounds)
    inside = [s for s in spans if bounds[0] <= s[1] and s[2] <= bounds[1]]
    by_rid: dict[str, list] = {}
    for span in inside:
        if span[4]:
            by_rid.setdefault(span[4], []).append(span)

    dispatch: dict[str, list[float]] = {e: [] for e in ENDPOINTS}
    for name, start, end, _, _, extra in inside:
        if name == "app.dispatch" and extra["endpoint"][1:] in dispatch:
            dispatch[extra["endpoint"][1:]].append(end - start)
    for endpoint, values in dispatch.items():
        metrics[f"app.dispatch_ms.{endpoint}"] = (
            statistics.median(values) * 1000.0 if values else 0.0)
        metrics[f"app.requests.{endpoint}"] = len(values)

    batch_seconds: dict[tuple[str, str], float] = {}
    batch_sizes = []
    for name, start, end, _, _, extra in inside:
        if name in ("quantity.ground_batch", "quantity.extract_batch"):
            batch_sizes.append(len(extra["texts"]))
            for text in extra["texts"]:
                batch_seconds[(name, text)] = end - start

    outside, waits, unaccounted = [], [], []
    for outcome in outcomes:
        if outcome.status != 200:
            continue
        path, body = stream[outcome.index]
        own = by_rid.get(f"{prefix}{outcome.index}", [])
        served = [end - start for name, start, end, *_ in own
                  if name == "app.dispatch"]
        if not served:
            continue
        latency = outcome.done - outcome.sent
        outside.append((latency - served[0]) * 1000.0)
        if path in ("/ground", "/extract"):
            batch = batch_seconds.get(
                (f"quantity.{path[1:]}_batch", body["text"]))
            if batch is not None:
                waits.append((served[0] - batch) * 1000.0)
        if path == "/solve":
            covered = _union_seconds([(s[1], s[2]) for s in own])
            unaccounted.append((latency - covered) * 1000.0)
    metrics["http.outside_dispatch_ms"] = percentile(outside, 0.5)
    metrics["batcher.texts_per_call"] = (
        statistics.fmean(batch_sizes) if batch_sizes else 0.0)
    metrics["batcher.wait_ms"] = percentile(waits, 0.5)
    metrics["trace.unaccounted_p50_ms"] = percentile(unaccounted, 0.5)
    metrics["trace.unaccounted_p95_ms"] = percentile(unaccounted, 0.95)

    solves = len(dispatch["solve"])
    prefill_rows = sum(s[5]["rows"] for s in inside if s[0] == "llm.prefill")
    step_rows = [s[5]["rows"] for s in inside if s[0] == "llm.step"]
    metrics["scheduler.memo_hit_share"] = (
        1.0 - prefill_rows / solves if solves else 0.0)
    metrics["scheduler.rows_per_step"] = (
        statistics.fmean(step_rows) if step_rows else 0.0)
    metrics["scheduler.steps_per_request"] = (
        len(step_rows) / solves if solves else 0.0)
    metrics["llm.prefill_rows"] = prefill_rows
    metrics["llm.step_busy_share"] = (
        metrics["llm.step_busy_ms"] / 1000.0 / (window[1] - window[0]))
    metrics["llm.window_calls"] = sum(
        1 for s in inside if s[0] == "llm.window")
    metrics["llm.tokens_per_request"] = (
        deltas["solve_decode_tokens_total"] / solves if solves else 0.0)
    lookups = (deltas["conversion_cache_hits"]
               + deltas["conversion_cache_misses"])
    metrics["engine.conversion_cache_hit_share"] = (
        deltas["conversion_cache_hits"] / lookups if lookups else 0.0)
    return metrics


def training_layers(spans: list) -> dict:
    """Per-layer metrics of traced training processes (no requests)."""
    metrics = timed_calls(spans, None)
    for name in metric_names():
        metrics.setdefault(name, 0)
    return metrics
