"""Tests for the experiment orchestration subsystem.

Covers the spec registry, id resolution/dedup, the artifact store's
cold-train -> warm-load round trip (including corruption fallback), the
parallel scheduler's sequential parity, and JSON manifest export.
"""

import json

import pytest

import repro.experiments.context as context_module
from repro.core.dimperc import evaluate_checkpoint
from repro.experiments import table7
from repro.experiments.artifacts import (
    ArtifactStore,
    context_key,
    default_store,
    reset_default_store,
    set_default_store,
)
from repro.experiments.context import MICRO
from repro.experiments.manifest import write_manifest
from repro.experiments.reporting import ExperimentResult
from repro.experiments.scheduler import ExperimentRecord, run_experiments
from repro.experiments.spec import SPECS, get_spec, light_ids, resolve

#: A light, deterministic subset for scheduler parity runs.
PARITY_SET = ("table3", "table4", "fig3", "fig4")


@pytest.fixture
def micro(monkeypatch, tmp_path):
    """Micro training budgets + an isolated artifact store."""
    monkeypatch.setattr(context_module, "QUICK", MICRO)
    monkeypatch.setattr(context_module, "_CACHE", {})
    return ArtifactStore(tmp_path / "store")


class TestSpecRegistry:
    def test_heavy_specs_declare_contexts(self):
        for spec in SPECS.values():
            if spec.heavy:
                assert spec.contexts, spec.id
            else:
                assert not spec.contexts, spec.id

    def test_fig7_needs_both_contexts(self):
        assert set(get_spec("fig7").contexts) == {"plain", "et"}

    def test_resolve_dedupes_preserving_order(self):
        assert resolve(["table7", "light", "table3"]) == (
            "table7", "table3", "table4", "fig3", "fig4", "table6",
        )

    def test_resolve_all_is_registry_order(self):
        assert resolve(["all"]) == tuple(SPECS)

    def test_resolve_unknown_raises_value_error(self):
        with pytest.raises(ValueError, match="table99"):
            resolve(["table99"])

    def test_light_ids_are_light(self):
        assert all(not SPECS[name].heavy for name in light_ids())

    def test_bad_cost_class_rejected(self):
        from repro.experiments.spec import ExperimentSpec
        with pytest.raises(ValueError):
            ExperimentSpec(id="x", module="m", cost="enormous")

    def _synthetic_specs(self, monkeypatch, deps_of_a=()):
        import repro.experiments.spec as spec_module
        module = "repro.experiments.table3"
        specs = {
            "a": spec_module.ExperimentSpec(
                id="a", module=module, deps=tuple(deps_of_a)),
            "b": spec_module.ExperimentSpec(id="b", module=module,
                                            deps=("a",)),
            "c": spec_module.ExperimentSpec(id="c", module=module,
                                            deps=("b",)),
        }
        monkeypatch.setattr(spec_module, "SPECS", specs)
        return spec_module

    def test_resolve_pulls_deps_ahead_of_dependents(self, monkeypatch):
        spec_module = self._synthetic_specs(monkeypatch)
        assert spec_module.resolve(["c"]) == ("a", "b", "c")
        assert spec_module.resolve(["c", "a"]) == ("a", "b", "c")

    def test_resolve_detects_dependency_cycles(self, monkeypatch):
        spec_module = self._synthetic_specs(monkeypatch, deps_of_a=("c",))
        with pytest.raises(ValueError, match="cycle"):
            spec_module.resolve(["c"])

    def test_scheduler_honours_deps_in_parallel(self, monkeypatch):
        self._synthetic_specs(monkeypatch)
        streamed = []
        records = run_experiments(
            ("c",), jobs=3, on_record=lambda r: streamed.append(r.name)
        )
        assert [r.name for r in records] == ["a", "b", "c"]
        assert streamed == ["a", "b", "c"]

    def test_dependents_of_failed_dependency_do_not_run(self, monkeypatch):
        spec_module = self._synthetic_specs(monkeypatch)
        real_run = spec_module.ExperimentSpec.run
        ran = []

        def fake_run(self, quick=True, seed=0):
            ran.append(self.id)
            if self.id == "a":
                raise RuntimeError("boom")
            return real_run(self, quick=quick, seed=seed)

        monkeypatch.setattr(spec_module.ExperimentSpec, "run", fake_run)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiments(("c",), jobs=3)
        assert ran == ["a"]  # b and c are skipped, not run


class TestArtifactStore:
    def test_cold_warm_round_trip_identical_scores(self, micro, monkeypatch):
        cold = context_module.get_context(quick=True, seed=3, store=micro)
        cold_scores = evaluate_checkpoint(cold.models, "dimperc")
        cold_rows = table7.run(quick=True, seed=3).rows
        # Simulate a fresh process: empty in-process cache, and training
        # is forbidden -- the store must serve the context.
        context_module._CACHE.clear()
        monkeypatch.setattr(
            context_module.DimPercPipeline, "run",
            lambda *a, **k: pytest.fail("re-trained despite warm store"),
        )
        monkeypatch.setattr(
            context_module, "default_store", lambda: micro
        )
        warm = context_module.get_context(quick=True, seed=3)
        assert warm.models.tokenizer.vocab_size == \
            cold.models.tokenizer.vocab_size
        assert evaluate_checkpoint(warm.models, "dimperc") == cold_scores
        assert table7.run(quick=True, seed=3).rows == cold_rows

    def test_corrupt_artifact_falls_back_to_training(self, micro, monkeypatch):
        context_module.get_context(quick=True, seed=3, store=micro)
        for npz in micro.root.rglob("dimperc.npz"):
            npz.write_bytes(b"not an npz archive")
        context_module._CACHE.clear()
        calls = []
        original = context_module.DimPercPipeline.run

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(context_module.DimPercPipeline, "run", counting)
        context_module.get_context(quick=True, seed=3, store=micro)
        assert calls == [1]
        # The retrain heals the store: the next fresh process loads warm.
        context_module._CACHE.clear()
        monkeypatch.setattr(
            context_module.DimPercPipeline, "run",
            lambda *a, **k: pytest.fail("store was not healed"),
        )
        context_module.get_context(quick=True, seed=3, store=micro)

    def test_partial_artifact_is_a_miss(self, micro):
        context_module.get_context(quick=True, seed=3, store=micro)
        for meta in micro.root.rglob("llama_ift.json"):
            meta.unlink()
        kb = context_module.default_kb()
        config = context_module.config_for(MICRO, 3, False)
        assert micro.load_context(kb, config, MICRO, 3, False) is None

    def test_key_distinguishes_profiles_modes_and_config(self):
        import dataclasses

        def key(profile, seed, et, **config_overrides):
            config = dataclasses.replace(
                context_module.config_for(profile, seed, et),
                **config_overrides,
            )
            return context_key(profile, seed, et, config)

        base = key(MICRO, 0, False)
        assert key(MICRO, 1, False) != base
        assert key(MICRO, 0, True) != base
        assert key(
            dataclasses.replace(MICRO, dimeval_steps=11), 0, False
        ) != base
        # Hyperparameters not derived from the profile must invalidate
        # persisted contexts too.
        assert key(MICRO, 0, False, learning_rate=1e-3) != base
        assert key(MICRO, 0, False, instruction_replay=0.25) != base

    def test_default_store_env_override(self, monkeypatch, tmp_path):
        reset_default_store()
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "env-store"))
        try:
            store = default_store()
            assert store is not None
            assert store.root == tmp_path / "env-store"
            monkeypatch.setenv("REPRO_ARTIFACT_DIR", "off")
            reset_default_store()
            assert default_store() is None
        finally:
            reset_default_store()

    def test_set_default_store_accepts_paths(self, tmp_path):
        try:
            store = set_default_store(tmp_path / "explicit")
            assert isinstance(store, ArtifactStore)
            assert set_default_store(None) is None
        finally:
            reset_default_store()

    def test_code_fingerprint_is_part_of_the_key(self, monkeypatch):
        import repro.experiments.artifacts as artifacts_module

        config = context_module.config_for(MICRO, 0, False)
        base = context_key(MICRO, 0, False, config)
        monkeypatch.setattr(artifacts_module, "code_fingerprint",
                            lambda: "an edited trainer")
        assert context_key(MICRO, 0, False, config) != base

    def test_code_change_invalidates_persisted_context(
        self, micro, monkeypatch
    ):
        import repro.experiments.artifacts as artifacts_module

        context_module.get_context(quick=True, seed=3, store=micro)
        kb = context_module.default_kb()
        config = context_module.config_for(MICRO, 3, False)
        assert micro.load_context(kb, config, MICRO, 3, False) is not None
        # The same store after a training-code edit: a clean miss (the
        # old checkpoints were trained by different code), not a stale
        # hit and not an error.
        monkeypatch.setattr(artifacts_module, "code_fingerprint",
                            lambda: "an edited trainer")
        assert micro.load_context(kb, config, MICRO, 3, False) is None

    def test_prune_race_during_warm_load_is_a_miss(self, micro, monkeypatch):
        import shutil

        import repro.experiments.artifacts as artifacts_module

        context_module.get_context(quick=True, seed=3, store=micro)
        kb = context_module.default_kb()
        config = context_module.config_for(MICRO, 3, False)
        (entry,) = micro.entries()
        real_load = artifacts_module.load_checkpoint

        def racing_load(prefix):
            # A concurrent `prune` evicts the directory between the
            # meta.json read and the checkpoint loads.
            shutil.rmtree(entry.path, ignore_errors=True)
            return real_load(prefix)

        monkeypatch.setattr(artifacts_module, "load_checkpoint", racing_load)
        # A miss (cold-train path), not FileNotFoundError out of a boot.
        assert micro.load_context(kb, config, MICRO, 3, False) is None

    def test_load_checkpoint_wraps_missing_files_in_checkpoint_error(
        self, tmp_path
    ):
        from repro.llm.persistence import CheckpointError, load_checkpoint

        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "evicted" / "dimperc")


class TestArtifactPrune:
    def _fake_context(self, root, name: str, *, age_days: float,
                      size: int = 1000) -> None:
        directory = root / f"ctx-plain-seed0-{name}"
        directory.mkdir(parents=True)
        (directory / "meta.json").write_text("{}", encoding="utf-8")
        (directory / "dimperc.npz").write_bytes(b"x" * size)
        import os
        import time as time_module
        stamp = time_module.time() - age_days * 86400
        os.utime(directory / "meta.json", (stamp, stamp))

    def test_entries_sort_least_recently_used_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._fake_context(tmp_path, "aaa", age_days=1)
        self._fake_context(tmp_path, "bbb", age_days=30)
        self._fake_context(tmp_path, "ccc", age_days=5)
        names = [entry.path.name for entry in store.entries()]
        assert [n.rsplit("-", 1)[1] for n in names] == ["bbb", "ccc", "aaa"]

    def test_prune_by_age(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._fake_context(tmp_path, "old", age_days=30)
        self._fake_context(tmp_path, "new", age_days=1)
        report = store.prune(max_age_days=7)
        assert [e.path.name for e in report.removed] \
            == ["ctx-plain-seed0-old"]
        assert not (tmp_path / "ctx-plain-seed0-old").exists()
        assert (tmp_path / "ctx-plain-seed0-new").exists()

    def test_prune_by_size_budget_evicts_lru_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._fake_context(tmp_path, "old", age_days=20, size=600)
        self._fake_context(tmp_path, "mid", age_days=10, size=600)
        self._fake_context(tmp_path, "new", age_days=1, size=600)
        report = store.prune(max_total_bytes=1300)
        assert [e.path.name for e in report.removed] \
            == ["ctx-plain-seed0-old"]
        assert report.kept_bytes <= 1300

    def test_dry_run_deletes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._fake_context(tmp_path, "old", age_days=30)
        report = store.prune(max_age_days=7, dry_run=True)
        assert report.dry_run and len(report.removed) == 1
        assert (tmp_path / "ctx-plain-seed0-old").exists()

    def test_prune_sweeps_stale_staging_dirs(self, tmp_path):
        import os
        import time as time_module

        store = ArtifactStore(tmp_path)
        staging = tmp_path / ".tmp-ctx-plain-seed0-crashed"
        staging.mkdir(parents=True)
        stamp = time_module.time() - 7200
        os.utime(staging, (stamp, stamp))
        report = store.prune(max_age_days=9999)
        assert report.staging_swept == (staging,)
        assert not staging.exists()

    def test_loads_refresh_recency(self, micro):
        context_module.get_context(quick=True, seed=3, store=micro)
        (entry,) = micro.entries()
        import os
        stamp = entry.used_at - 40 * 86400
        os.utime(entry.path / "meta.json", (stamp, stamp))
        kb = context_module.default_kb()
        config = context_module.config_for(MICRO, 3, False)
        assert micro.load_context(kb, config, MICRO, 3, False) is not None
        (refreshed,) = micro.entries()
        # the warm load touched meta.json: the context is MRU again
        assert refreshed.used_at > stamp + 86400

    def test_parse_size_suffixes(self):
        from repro.experiments.artifacts import parse_size

        assert parse_size("1024") == 1024
        assert parse_size("2K") == 2048
        assert parse_size("1.5M") == int(1.5 * (1 << 20))
        assert parse_size("2GB") == 2 << 30

    def test_cli_list_and_prune(self, tmp_path, capsys):
        from repro.experiments.artifacts import main

        self._fake_context(tmp_path, "old", age_days=30)
        self._fake_context(tmp_path, "new", age_days=1)
        assert main(["--store", str(tmp_path), "list"]) == 0
        assert "2 contexts" in capsys.readouterr().out
        assert main(["--store", str(tmp_path), "prune",
                     "--max-age-days", "7", "--dry-run"]) == 0
        assert "would remove 1 context" in capsys.readouterr().out
        assert main(["--store", str(tmp_path), "prune",
                     "--max-age-days", "7"]) == 0
        assert "removed 1 context" in capsys.readouterr().out
        assert not (tmp_path / "ctx-plain-seed0-old").exists()
        # prune without a policy is a usage error
        assert main(["--store", str(tmp_path), "prune"]) == 2


class TestScheduler:
    def test_parallel_matches_sequential(self):
        sequential = run_experiments(PARITY_SET, jobs=1)
        parallel = run_experiments(PARITY_SET, jobs=4)
        assert [r.name for r in sequential] == list(PARITY_SET)
        assert [r.name for r in parallel] == list(PARITY_SET)
        assert ([r.result.to_dict() for r in sequential]
                == [r.result.to_dict() for r in parallel])

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_experiments(("table3",), jobs=0)

    def test_duplicate_request_runs_once(self):
        records = run_experiments(("table3", "table3"), jobs=2)
        assert [r.name for r in records] == ["table3"]

    def test_records_carry_perf_timings(self):
        (record,) = run_experiments(("table3",))
        assert record.seconds >= 0.0
        assert record.result.experiment_id == "Table III"

    def test_failure_does_not_block_later_results(self, monkeypatch):
        import repro.experiments.spec as spec_module
        module = "repro.experiments.table3"
        specs = {
            name: spec_module.ExperimentSpec(id=name, module=module)
            for name in ("a", "b", "c")
        }
        monkeypatch.setattr(spec_module, "SPECS", specs)
        real_run = spec_module.ExperimentSpec.run

        def fake_run(self, quick=True, seed=0):
            if self.id == "a":
                raise RuntimeError("boom")
            return real_run(self, quick=quick, seed=seed)

        monkeypatch.setattr(spec_module.ExperimentSpec, "run", fake_run)
        streamed = []
        with pytest.raises(RuntimeError, match="boom"):
            run_experiments(
                ("a", "b", "c"), jobs=3,
                on_record=lambda r: streamed.append(r.name),
            )
        # The failed slot is skipped; completed experiments still stream.
        assert streamed == ["b", "c"]

    def test_on_record_streams_in_request_order(self):
        streamed = []
        records = run_experiments(
            PARITY_SET, jobs=4, on_record=lambda r: streamed.append(r.name)
        )
        assert streamed == list(PARITY_SET)
        assert [r.name for r in records] == list(PARITY_SET)

    def test_concurrent_get_context_hits_do_not_block_on_cold_train(
        self, micro, monkeypatch
    ):
        import threading
        context_module.get_context(quick=True, seed=3, store=micro)
        started = threading.Event()
        release = threading.Event()
        original = context_module.DimPercPipeline.run

        def slow_run(self, *args, **kwargs):
            started.set()
            assert release.wait(timeout=30)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(context_module.DimPercPipeline, "run", slow_run)
        # Cold-train a *different* key in the background...
        cold = threading.Thread(
            target=context_module.get_context,
            kwargs=dict(quick=True, seed=4, store=micro),
        )
        cold.start()
        try:
            assert started.wait(timeout=30)
            # ...while a cache hit for the first key returns immediately.
            hit = context_module.get_context(quick=True, seed=3, store=micro)
            assert hit is context_module._CACHE[(MICRO, 3, False)]
        finally:
            release.set()
            cold.join(timeout=60)
        assert not cold.is_alive()


class TestManifest:
    def _records(self):
        result = ExperimentResult("Table III", "demo", ("a", "b"))
        result.add_row(1, 2.5)
        result.add_note("n1")
        return [ExperimentRecord(name="table3", result=result, seconds=1.25)]

    def test_manifest_and_result_files(self, tmp_path):
        path = write_manifest(
            tmp_path / "out", self._records(), quick=True, seed=7, jobs=2,
        )
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["schema"] == 1
        assert manifest["seed"] == 7
        assert manifest["jobs"] == 2
        assert manifest["requested"] == ["table3"]
        assert manifest["incomplete"] == []
        assert manifest["engine"]["batch_size"] >= 1
        assert len(manifest["git_revision"]) >= 7  # hash or "unknown"
        (entry,) = manifest["experiments"]
        assert entry["name"] == "table3"
        assert entry["seconds"] == 1.25
        payload = json.loads(
            (tmp_path / "out" / entry["result_file"]).read_text("utf-8")
        )
        assert payload["headers"] == ["a", "b"]
        assert payload["rows"] == [[1, 2.5]]
        assert payload["notes"] == ["n1"]
        assert payload["seed"] == 7

    def test_manifest_records_incomplete_experiments(self, tmp_path):
        path = write_manifest(
            tmp_path / "out", self._records(),
            requested=("table3", "table8"),
        )
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["requested"] == ["table3", "table8"]
        assert manifest["incomplete"] == ["table8"]
        assert [e["name"] for e in manifest["experiments"]] == ["table3"]

    def test_runner_cli_writes_manifest(self, tmp_path, capsys):
        from repro.experiments.runner import main
        code = main([
            "table3", "table3", "--jobs", "2",
            "--out", str(tmp_path / "cli"), "--no-artifacts",
        ])
        try:
            assert code == 0
            out = capsys.readouterr().out
            # deduped: the table renders exactly once
            assert out.count("== Table III") == 1
            manifest = json.loads(
                (tmp_path / "cli" / "manifest.json").read_text("utf-8")
            )
            assert [e["name"] for e in manifest["experiments"]] == ["table3"]
        finally:
            reset_default_store()

    def test_runner_cli_unknown_id_exits_2(self, capsys):
        from repro.experiments.runner import main
        assert main(["table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


def _load_merge_shards():
    """Import ``tools/merge_shards.py`` (not an installed package)."""
    import importlib.util
    import pathlib

    path = (pathlib.Path(__file__).resolve().parent.parent
            / "tools" / "merge_shards.py")
    spec = importlib.util.spec_from_file_location("merge_shards", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSharding:
    def test_shard_index_stable_and_in_range(self):
        from repro.experiments.spec import shard_index
        for name in SPECS:
            for count in (1, 2, 3, 5):
                index = shard_index(name, count)
                assert 1 <= index <= count
                assert index == shard_index(name, count)
        # Content-addressed (sha256), not salted hash(): these exact
        # assignments hold in every process, which is what lets CI
        # matrix jobs agree on the partition without coordinating.
        assert shard_index("table3", 2) == 1
        assert shard_index("table4", 2) == 2

    def test_shard_union_is_exact_partition(self):
        from repro.experiments.spec import shard
        full = resolve(["all"])
        for count in (1, 2, 3, 4):
            owned_sets = [shard(full, index, count)[0]
                          for index in range(1, count + 1)]
            combined = [name for owned in owned_sets for name in owned]
            assert sorted(combined) == sorted(full)  # complete + disjoint
            for owned in owned_sets:
                # each shard keeps the full resolution's relative order
                members = set(owned)
                assert tuple(n for n in full if n in members) == owned

    def test_shard_validates_arguments(self):
        from repro.experiments.spec import shard
        with pytest.raises(ValueError):
            shard(("table3",), 0, 2)
        with pytest.raises(ValueError):
            shard(("table3",), 3, 2)
        with pytest.raises(ValueError):
            shard(("table3",), 1, 0)

    def test_foreign_dependency_executes_but_is_not_owned(self, monkeypatch):
        import repro.experiments.spec as spec_module
        module = "repro.experiments.table3"
        specs = {
            "a": spec_module.ExperimentSpec(id="a", module=module),
            "b": spec_module.ExperimentSpec(id="b", module=module,
                                            deps=("a",)),
            "c": spec_module.ExperimentSpec(id="c", module=module,
                                            deps=("b",)),
        }
        monkeypatch.setattr(spec_module, "SPECS", specs)
        full = spec_module.resolve(["c"])
        # find a shard count that separates c from one of its deps so
        # the test exercises an actual cross-shard dependency
        for count in range(2, 10):
            owner = spec_module.shard_index("c", count)
            if any(spec_module.shard_index(dep, count) != owner
                   for dep in ("a", "b")):
                break
        else:
            pytest.fail("sha256 partition never split c from its deps")
        owned, execution = spec_module.shard(full, owner, count)
        assert "c" in owned
        # the dependency chain is pulled into the execution plan ...
        assert execution == spec_module.resolve(owned)
        assert {"a", "b"} <= set(execution)
        # ... but only owned ids report (manifest-row parity on merge)
        assert set(owned) < set(execution)

    def test_sharded_manifests_merge_to_the_unsharded_run(
        self, tmp_path, capsys
    ):
        from repro.experiments.runner import main
        ids = ["table3", "table4"]  # split 1/2 vs 2/2 by the sha partition
        try:
            for out, extra in (("ref", []),
                               ("s1", ["--shard", "1/2"]),
                               ("s2", ["--shard", "2/2"])):
                assert main([*ids, "--out", str(tmp_path / out),
                             "--no-artifacts", *extra]) == 0
        finally:
            reset_default_store()
        merge_shards = _load_merge_shards()
        problems = merge_shards.merge(
            [tmp_path / "s1", tmp_path / "s2"], tuple(ids),
            tmp_path / "merged", tmp_path / "ref" / "manifest.json",
        )
        assert problems == []
        reference = json.loads(
            (tmp_path / "ref" / "manifest.json").read_text("utf-8"))
        merged = json.loads(
            (tmp_path / "merged" / "manifest.json").read_text("utf-8"))
        assert ([e["name"] for e in merged["experiments"]]
                == [e["name"] for e in reference["experiments"]] == ids)
        assert merged["shards"] == ["1/2", "2/2"]
        for entry in reference["experiments"]:
            ref_payload = json.loads(
                (tmp_path / "ref" / entry["result_file"]).read_text("utf-8"))
            merged_payload = json.loads(
                (tmp_path / "merged"
                 / entry["result_file"]).read_text("utf-8"))
            ref_payload.pop("seconds")
            merged_payload.pop("seconds")
            # wall-clock aside, sharded results are identical rows
            assert merged_payload == ref_payload
        # the same merge with a duplicated shard is caught, not averaged
        problems = merge_shards.merge(
            [tmp_path / "s1", tmp_path / "s1"], tuple(ids), None, None)
        assert any("two shards" in p for p in problems)
        assert any("reported by no shard" in p for p in problems)

    def test_sharded_runs_share_the_artifact_store(
        self, micro, monkeypatch, tmp_path, capsys
    ):
        from repro.experiments.runner import main
        from repro.experiments.spec import shard_index
        owner = shard_index("table7", 2)
        other = 3 - owner
        try:
            assert main(["table7", "--shard", f"{owner}/2",
                         "--artifact-dir", str(micro.root),
                         "--out", str(tmp_path / "owner")]) == 0
            # A different shard of the same run: owns nothing, and with
            # the store already warm it must never touch training.
            context_module._CACHE.clear()
            monkeypatch.setattr(
                context_module.DimPercPipeline, "run",
                lambda *a, **k: pytest.fail("a non-owning shard trained"),
            )
            assert main(["table7", "--shard", f"{other}/2",
                         "--artifact-dir", str(micro.root),
                         "--out", str(tmp_path / "other")]) == 0
            # ... and a later unsharded run warm-loads the shard's work.
            context_module._CACHE.clear()
            assert main(["table7", "--artifact-dir", str(micro.root),
                         "--out", str(tmp_path / "warm")]) == 0
        finally:
            reset_default_store()
        owner_manifest = json.loads(
            (tmp_path / "owner" / "manifest.json").read_text("utf-8"))
        other_manifest = json.loads(
            (tmp_path / "other" / "manifest.json").read_text("utf-8"))
        warm_manifest = json.loads(
            (tmp_path / "warm" / "manifest.json").read_text("utf-8"))
        assert [e["name"] for e in owner_manifest["experiments"]] \
            == ["table7"]
        assert owner_manifest["shard"] == f"{owner}/2"
        assert other_manifest["experiments"] == []
        assert other_manifest["requested"] == []
        assert other_manifest["incomplete"] == []
        assert (owner_manifest["experiments"][0]["rows"]
                == warm_manifest["experiments"][0]["rows"])
