"""Smoke test of the benchmark itself: every workload, both modes, tiny.

    python3 perfbench/smoke.py

Runs ``run.py`` on every workload for one second with ``--trace 0`` and
``--trace 1`` and fails unless each run is correct and reports exactly
the metrics ``BENCHMARK.json`` declares for its mode, and unless each
workload's bypass holds in its traced run: no prefill and only memo hits
on front-mix, no memo hits on solve-distinct, training steps only on
train-cold.  Last, it checks that the command refuses to report from a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: pathlib.Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout + proc.stderr


def bypass_errors(workload: str, metrics: dict) -> list[str]:
    value = {name: entry["value"] for name, entry in metrics.items()}
    expect = {
        "front-mix": [("scheduler.memo_hit_share", 1.0),
                      ("llm.prefill_calls", 0), ("llm.train_steps", 0)],
        "solve-distinct": [("scheduler.memo_hit_share", 0.0),
                           ("llm.train_steps", 0)],
        "train-cold": [],
    }[workload]
    errors = [f"{name} is {value[name]}, expected {want}"
              for name, want in expect if value[name] != want]
    if workload == "train-cold" and not value["llm.train_steps"] > 0:
        errors.append("train-cold ran no training steps")
    return errors


def main() -> int:
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, output = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(output.strip().splitlines()[-1])
            except (ValueError, IndexError):
                failures.append(f"{label}: no result line (exit {code})")
                continue
            declared = {m["name"]: m["unit"] for m in SPEC[kind]}
            reported = {name: entry["unit"]
                        for name, entry in result["metrics"].items()}
            if code != 0 or not result["correct"]:
                failures.append(f"{label}: exit {code}, "
                                f"correct={result['correct']}")
            if reported != declared:
                failures.append(f"{label}: metrics differ from "
                                f"BENCHMARK.json: missing "
                                f"{sorted(set(declared) - set(reported))}")
            if trace:
                failures += [f"{label}: {error}" for error in
                             bypass_errors(workload, result["metrics"])]
            print(f"{label}: {len(reported)} metrics, exit {code}",
                  flush=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        bare = pathlib.Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, output = run(bare, SPEC["workloads"][0]["name"], 0)
        if code == 0 or '"metrics"' in output:
            failures.append("a checkout without sources still reported")
    for failure in failures:
        print("FAIL", failure)
    print("smoke:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
