"""Start a service or a training process, optionally with span recording.

    python perfbench/launch.py [--trace-out F] serve [service CLI args...]
    python perfbench/launch.py [--trace-out F] train --profile P [--first-seed S] [--seeds N] --store DIR

``serve`` calls the service CLI's own ``main`` with the given arguments.
``train`` cold-trains the contexts of seeds ``S..S+N-1`` into an empty
artifact store through ``get_context`` and prints one JSON line: when
the KB was ready (on the host-wide monotonic clock, so the parent can
subtract its spawn time), the wall clock of each ``get_context``, a
digest of each context's trained parameters and the process's peak
RSS.

With ``--trace-out``, the public calls in ``WRAPPED`` are wrapped before
anything runs.  Each call becomes a span (name, start, end, thread,
request id, extra) kept in memory and written to ``F`` as JSON when the
process finishes.  The request id is the ``X-Repro-Trace`` header of the
HTTP request being handled; ``MWPSolver.finish`` runs on the resolver
thread, so it inherits the id of the ``prepare`` call that built its
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import pathlib
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

REQUEST_ID_HEADER = "X-Repro-Trace"

#: QUICK's example and step budgets are divided by this, its model shape
#: kept, so one cold train lasts a few seconds on a 2-core host.
TRAIN_BUDGET_DIVISOR = 150
_BUDGETS = ("train_per_task", "eval_per_task", "instruction_examples",
            "instruction_steps", "dimeval_steps", "mwp_train_count",
            "mwp_eval_count", "mwp_steps", "curve_steps")

_spans: list[tuple] = []
_local = threading.local()
#: id(prepared tuple) -> (tuple, request id); the tuple is kept so its
#: id cannot be reused while the mapping lives.
_prepared: dict[int, tuple] = {}


def _rid() -> str:
    return getattr(_local, "rid", "")


def _rows(args) -> dict:
    return {"rows": int(len(args[1]))}


def _texts(args) -> dict:
    return {"texts": list(args[1])}


def _endpoint(args) -> dict:
    return {"endpoint": args[1].rstrip("/") or "/"}


def _finish_rid(args) -> str:
    entry = _prepared.get(id(args[1]))
    return entry[1] if entry is not None else _rid()


#: (module, attribute path, span name, extra-of-args, rid-of-args)
WRAPPED = [
    ("repro.service.http", "ServiceRequestHandler.do_POST", "http.handle",
     None, None),
    ("repro.service.app", "DimensionService.dispatch", "app.dispatch",
     _endpoint, None),
    ("repro.service.solver", "MWPSolver.prepare", "solver.prepare",
     None, None),
    ("repro.service.solver", "MWPSolver.finish", "solver.finish",
     None, _finish_rid),
    ("repro.quantity.grounder", "QuantityGrounder.extract",
     "quantity.extract", None, None),
    ("repro.quantity.grounder", "QuantityGrounder.ground_batch",
     "quantity.ground_batch", _texts, None),
    ("repro.quantity.grounder", "QuantityGrounder.extract_batch",
     "quantity.extract_batch", _texts, None),
    ("repro.quantity.grounder", "QuantityGrounder.link_best",
     "linking.link_best", None, None),
    ("repro.llm.model", "TransformerModel.infer_prefill", "llm.prefill",
     _rows, None),
    ("repro.llm.model", "TransformerModel.infer_step", "llm.step",
     _rows, None),
    ("repro.llm.model", "TransformerModel.infer_window", "llm.window",
     _rows, None),
    ("repro.llm.model", "KVCache.concat", "llm.kv_concat", None, None),
    ("repro.llm.model", "KVCache.select", "llm.kv_select", None, None),
    ("repro.llm.model", "TransformerModel.loss_and_grads",
     "llm.train_step", None, None),
    ("repro.llm.optimizer", "Adam.step", "llm.adam_step", None, None),
    ("repro.dimeval.benchmark", "DimEvalBenchmark.train_split",
     "dimeval.split_build", None, None),
    ("repro.dimeval.benchmark", "DimEvalBenchmark.eval_split",
     "dimeval.split_build", None, None),
    ("repro.experiments.artifacts", "ArtifactStore.save_context",
     "artifacts.save", None, None),
    ("repro.experiments.artifacts", "ArtifactStore.load_context",
     "artifacts.load", None, None),
]


def _wrap(owner, attr: str, name: str, extra, rid_of) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        start = time.monotonic()
        try:
            return original(*args, **kwargs)
        finally:
            _spans.append((
                name, start, time.monotonic(), threading.get_ident(),
                rid_of(args) if rid_of else _rid(),
                extra(args) if extra else None,
            ))

    setattr(owner, attr, traced)


def _wrap_request_entry(handler_cls) -> None:
    """Bind the request id to the handler thread for the request's span."""
    original = handler_cls.do_POST

    @functools.wraps(original)
    def do_post(self):
        _local.rid = (self.headers.get(REQUEST_ID_HEADER) or "").strip()
        try:
            return original(self)
        finally:
            _local.rid = ""

    handler_cls.do_POST = do_post


def _wrap_prepare(solver_cls) -> None:
    """Remember which request each prepared /solve input belongs to."""
    original = solver_cls.prepare

    @functools.wraps(original)
    def prepare(self, text):
        prepared = original(self, text)
        _prepared[id(prepared)] = (prepared, _rid())
        return prepared

    solver_cls.prepare = prepare


def install() -> None:
    """Wrap every call in ``WRAPPED``; call once per process."""
    for module_name, path, name, extra, rid_of in WRAPPED:
        owner_name, attr = path.split(".")
        owner = getattr(importlib.import_module(module_name), owner_name)
        _wrap(owner, attr, name, extra, rid_of)
    from repro.service.http import ServiceRequestHandler
    from repro.service.solver import MWPSolver

    _wrap_prepare(MWPSolver)
    _wrap_request_entry(ServiceRequestHandler)


def write_spans(path: str) -> None:
    spans = list(_spans)
    tmp = pathlib.Path(path + ".tmp")
    tmp.write_text(json.dumps({"spans": spans}), encoding="utf-8")
    tmp.replace(path)


def peak_rss_kb(pid: int | str = "self") -> int:
    """VmHWM of a process, in kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def train_profile(name: str):
    from repro.experiments import context

    if name == "micro":
        return context.MICRO
    if name == "quick-cut":
        return dataclasses.replace(context.QUICK, **{
            field: max(1, round(getattr(context.QUICK, field)
                                / TRAIN_BUDGET_DIVISOR))
            for field in _BUDGETS})
    raise ValueError(f"unknown training profile {name!r}")


def params_digest(models) -> str:
    digest = hashlib.sha256()
    for params in (models.llama_ift_params, models.dimperc_params):
        for key in sorted(params):
            digest.update(key.encode("utf-8"))
            digest.update(params[key].tobytes())
    return digest.hexdigest()


def train(profile_name: str, seeds: range, store_dir: str) -> dict:
    """Cold-train the contexts of ``seeds`` one after another."""
    from repro.units import default_kb

    default_kb()
    kb_ready = time.monotonic()
    from repro.experiments.artifacts import ArtifactStore
    from repro.experiments.context import get_context

    store = ArtifactStore(store_dir)
    profile = train_profile(profile_name)
    walls, digests = [], []
    for seed in seeds:
        cold: list[bool] = []
        started = time.perf_counter()
        context = get_context(seed=seed, profile=profile, store=store,
                              on_cold_train=lambda: cold.append(True))
        walls.append(time.perf_counter() - started)
        digests.append(params_digest(context.models))
        if not cold:
            raise RuntimeError(f"seed {seed} was not trained cold")
    saved = list(pathlib.Path(store_dir).glob("ctx-*"))
    if len(saved) != len(seeds):
        raise RuntimeError(f"{len(saved)} contexts saved, {len(seeds)} "
                           f"trained")
    return {"kb_ready": kb_ready, "train_walls_s": walls,
            "params_digests": digests, "peak_rss_kb": peak_rss_kb()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--trace-out", default="")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("serve")
    training = sub.add_parser("train")
    training.add_argument("--profile", required=True)
    training.add_argument("--first-seed", type=int, default=0)
    training.add_argument("--seeds", type=int, default=1,
                          help="how many consecutive seeds to train")
    training.add_argument("--store", required=True)
    args, service_args = parser.parse_known_args(argv)
    if args.mode == "train" and service_args:
        parser.error(f"unrecognized arguments: {' '.join(service_args)}")
    if args.trace_out:
        install()
    try:
        if args.mode == "serve":
            from repro.service.__main__ import main as service_main

            return service_main(service_args)
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        print(json.dumps(train(args.profile, seeds, args.store)),
              flush=True)
        return 0
    finally:
        if args.trace_out:
            write_spans(args.trace_out)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
