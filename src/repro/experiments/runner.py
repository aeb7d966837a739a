"""Experiment CLI: ``python -m repro.experiments.runner table7``.

The CLI plans from the :mod:`repro.experiments.spec` registry, dedupes
requested ids (``runner table7 all`` runs ``table7`` once), runs them
through the parallel scheduler (``--jobs``), and can export structured
JSON results alongside the rendered text (``--out``).  Trained contexts
persist across processes through the artifact store (``--artifact-dir``
overrides the location, ``--no-artifacts`` disables persistence).
"""

from __future__ import annotations

import argparse
import sys

from repro.engine import EngineConfig, set_default_engine
from repro.experiments.artifacts import set_default_store
from repro.experiments.manifest import write_manifest
from repro.experiments.scheduler import run_experiments
from repro.experiments.spec import SPECS, get_spec, light_ids, resolve, shard

#: Experiments cheap enough to run by default with ``all``.
LIGHT = light_ids()


def run_experiment(name: str, quick: bool = True, seed: int = 0):
    """Run one registered experiment by id.

    Resolves through the spec registry.  Unknown ids raise ``KeyError``
    (not ``SystemExit``), so programmatic callers can catch the failure.
    """
    return get_spec(name).run(quick=quick, seed=seed)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment ids ({', '.join(SPECS)}), 'light', or 'all'",
    )
    parser.add_argument("--full", action="store_true",
                        help="use the fuller training budgets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="run up to N independent experiments "
                             "concurrently (heavy experiments share one "
                             "trained context and serialize on it)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="also write per-experiment JSON results and "
                             "a run manifest (timings, seeds, engine "
                             "config, git rev) into DIR")
    parser.add_argument("--workers", type=int, default=0,
                        help="evaluation worker-pool width (0 = sequential)")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="generate_batch chunk size for evaluation")
    parser.add_argument("--artifact-dir", metavar="DIR", default=None,
                        help="persist trained contexts under DIR "
                             "(default: $REPRO_ARTIFACT_DIR or "
                             "~/.cache/repro/artifacts)")
    parser.add_argument("--no-artifacts", action="store_true",
                        help="disable cross-process context persistence")
    parser.add_argument("--shard", metavar="K/N", default=None,
                        help="run shard K of N (1-based): the resolved "
                             "id set is hash-partitioned so N runner "
                             "invocations cover it exactly once; "
                             "cross-shard dependencies run where needed "
                             "but report only on their home shard, and "
                             "trained contexts come from the shared "
                             "artifact store so no shard re-trains")
    args = parser.parse_args(argv)
    # Every experiment's DimEval scoring routes through the process-wide
    # evaluation engine; these flags configure it once for the whole run.
    engine_config = EngineConfig(
        max_workers=args.workers, batch_size=args.batch_size,
    )
    set_default_engine(engine_config)
    if args.no_artifacts:
        set_default_store(None)
    elif args.artifact_dir is not None:
        set_default_store(args.artifact_dir)
    try:
        # Validate the requested ids/jobs up front (usage errors exit 2
        # without a traceback); experiment-internal failures still
        # propagate with their full stack.
        names = resolve(args.experiments)
        owned = names
        if args.shard is not None:
            index, count = _parse_shard(args.shard)
            owned, names = shard(names, index, count)
            pulled = [name for name in names if name not in owned]
            print(f"shard {index}/{count}: {len(owned)} of "
                  f"{len(resolve(args.experiments))} experiments "
                  f"({', '.join(owned) or 'none'})"
                  + (f"; running {len(pulled)} foreign dependenc"
                     f"{'y' if len(pulled) == 1 else 'ies'} "
                     f"({', '.join(pulled)})" if pulled else ""))
        if args.jobs < 1:
            raise ValueError("jobs must be at least 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    delivered = []

    def emit(record) -> None:
        # Stream each report as soon as it is deliverable in request
        # order, so a crash late in a long run keeps earlier results.
        print(record.result.render())
        breakdown = "".join(
            f", {stage} {seconds:.1f}s"
            for stage, seconds in sorted(record.stages.items())
        )
        print(f"  [{record.name} took {record.seconds:.1f}s{breakdown}]")
        print()
        delivered.append(record)

    try:
        run_experiments(
            names, jobs=args.jobs, quick=not args.full, seed=args.seed,
            on_record=emit,
        )
    finally:
        # Persist whatever finished even if a later experiment failed:
        # hours of completed results must not evaporate with the error.
        # A shard's manifest carries only the ids it owns -- foreign
        # dependencies it executed report on their home shard, so
        # merged shard manifests have exact row parity with an
        # unsharded run (tools/merge_shards.py asserts this in CI).
        reported = [record for record in delivered if record.name in owned]
        if args.out is not None and (reported or args.shard is not None):
            manifest_path = write_manifest(
                args.out, reported,
                quick=not args.full, seed=args.seed, jobs=args.jobs,
                engine_config=engine_config, requested=owned,
                shard=args.shard,
            )
            print(f"wrote {manifest_path}")
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    """Parse ``K/N`` into ``(index, count)``; ``ValueError`` on misuse."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"--shard expects K/N (e.g. 1/2), got {text!r}") from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"--shard expects 1 <= K <= N, got {text!r}")
    return index, count


if __name__ == "__main__":
    sys.exit(main())
