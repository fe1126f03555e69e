"""Tests for trial-cache compaction, eviction, and shard-safe concurrent writes."""

import json
import os
import socket
import subprocess
import threading
import time

import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import trial_metrics_to_dict
from repro.runtime import OpCostCache, TrialCache, problem_fingerprint
from store_format1 import opcost_to_dict


def _problem():
    return SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)


def _metrics(score: float = 1.0, feasible: bool = True) -> TrialMetrics:
    return TrialMetrics(
        config=None,
        area_mm2=100.0,
        tdp_w=50.0,
        feasible=feasible,
        failure_reason=None if feasible else "constraints",
        aggregate_score=score,
        objective_value=-score if feasible else float("inf"),
    )


class CountingEvaluator(TrialEvaluator):
    def __init__(self, problem):
        super().__init__(problem)
        self.calls = 0

    def evaluate_params(self, params, space):
        self.calls += 1
        return super().evaluate_params(params, space)


# ---------------------------------------------------------------------------
class TestCompaction:
    def test_compaction_deduplicates_keys(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TrialCache(path)
        racer = TrialCache(path)  # opened before any put, like a concurrent writer
        for _ in range(3):
            cache.put("k1", _metrics(1.0))
        racer.put("k1", _metrics(1.0))
        cache.put("k2", _metrics(2.0))
        # A put never re-appends a key the store indexes: the three puts of
        # k1 append one line, and only the racing writer duplicates it.
        assert len(path.read_text().splitlines()) == 3
        stats = cache.compact()
        assert stats.kept == 2
        assert stats.duplicates_dropped == 1
        assert stats.evicted == 0
        assert len(path.read_text().splitlines()) == 2

    def test_compaction_respects_size_cap_evicting_oldest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TrialCache(path)
        for i in range(10):
            cache.put(f"k{i}", _metrics(float(i)))
        stats = cache.compact(max_entries=4)
        assert stats.kept == 4
        assert stats.evicted == 6
        keys = [json.loads(line)["key"] for line in path.read_text().splitlines()]
        assert keys == ["k6", "k7", "k8", "k9"]  # earliest-written evicted

    def test_warm_hit_after_compaction_returns_identical_metrics(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cold = FASTSearch(_problem(), optimizer="random", seed=3,
                          cache=TrialCache(path)).run(8, batch_size=2)
        TrialCache(path).compact()

        evaluator = CountingEvaluator(_problem())
        warm = FASTSearch(_problem(), optimizer="random", seed=3,
                          evaluator=evaluator, cache=TrialCache(path)).run(8, batch_size=2)
        assert evaluator.calls == 0
        assert warm.runtime.cache_hits == 8
        assert [trial_metrics_to_dict(m) for m in warm.history] == [
            trial_metrics_to_dict(m) for m in cold.history
        ]

    def test_compaction_is_atomic_and_drops_corrupt_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TrialCache(path)
        cache.put("good", _metrics(1.0))
        with path.open("a") as handle:
            handle.write('{"key": "trunca')  # killed-run torso
        stats = TrialCache(path).compact()
        assert stats.kept == 1
        assert not (tmp_path / "cache.jsonl.tmp").exists()
        assert TrialCache(path).get("good") is not None

    def test_entries_remain_readable_after_capped_compaction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TrialCache(path, max_memory_entries=1)
        for i in range(60):
            cache.put(f"k{i}", _metrics(float(i)))
        assert cache.compact(8).kept == 8
        # The compacting cache reads survivors back from its reloaded index.
        hit = cache.get("k58")
        assert hit is not None
        assert trial_metrics_to_dict(hit) == trial_metrics_to_dict(_metrics(58.0))
        assert cache.get("k51") is None  # evicted: older than the newest eight
        reloaded = TrialCache(path)
        assert reloaded.stats.disk_entries_loaded == 8
        assert trial_metrics_to_dict(reloaded.get("k59")) == trial_metrics_to_dict(_metrics(59.0))

    def test_a_key_that_capped_compaction_evicted_is_appended_again(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TrialCache(path, max_memory_entries=1)
        for i in range(4):
            cache.put(f"k{i}", _metrics(float(i)))
        assert cache.compact(2).evicted == 2
        assert cache.get("k0") is None
        cache.put("k0", _metrics(0.0))  # compaction forgot what this cache wrote
        assert [json.loads(line)["key"] for line in path.read_text().splitlines()] == [
            "k2", "k3", "k0"
        ]
        reloaded = TrialCache(path)
        assert trial_metrics_to_dict(reloaded.get("k0")) == trial_metrics_to_dict(_metrics(0.0))

    def test_compact_requires_a_path(self):
        with pytest.raises(ValueError):
            TrialCache().compact()

    def test_compaction_refuses_a_store_of_another_kind(self, tmp_path):
        from repro.mapping.costmodel import OpCost
        from repro.workloads.ops import OpType

        ops = tmp_path / "ops.jsonl"
        cost = OpCost(op_name="op", op_type=OpType.MATMUL, compute_cycles=5.0)
        ops.write_text(
            json.dumps({"key": OpCostCache.digest(("k",)), "cost": opcost_to_dict(cost)})
            + "\n"
        )
        trials = tmp_path / "trials.jsonl"
        TrialCache(trials).put("k", _metrics(1.0))
        for store, cache in ((ops, TrialCache(ops)), (trials, OpCostCache(path=trials))):
            before = store.read_bytes()
            with pytest.raises(ValueError, match="another kind of store"):
                cache.compact()
            assert store.read_bytes() == before
            assert not store.with_name(store.name + ".tmp").exists()

    def test_compaction_keeps_the_last_record_at_the_first_position(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = [
            {"key": "a", "metrics": trial_metrics_to_dict(_metrics(1.0))},
            {"key": "b", "metrics": trial_metrics_to_dict(_metrics(2.0))},
            {"key": "a", "ts": 0.0, "metrics": trial_metrics_to_dict(_metrics(3.0))},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        stats = TrialCache(path).compact()
        assert (stats.kept, stats.duplicates_dropped) == (2, 1)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["key"] for record in records] == ["a", "b"]
        assert records[0]["metrics"]["aggregate_score"] == 3.0
        assert all("ts" not in record for record in records)  # old stamps dropped


# ---------------------------------------------------------------------------
class TestShardSafeWrites:
    def test_writer_id_appends_to_sidecar(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        shard = TrialCache(path, writer_id=2)
        shard.put("k", _metrics(1.0))
        assert not path.exists()
        assert (tmp_path / "cache.jsonl.shard-2").exists()
        # A plain reader sees the sidecar entry.
        assert TrialCache(path).get("k") is not None

    def test_concurrent_shard_writers_never_corrupt_the_store(self, tmp_path):
        """The latent bug class: N concurrent writers appending to one JSONL.
        With per-shard sidecar files every record survives intact."""
        path = tmp_path / "cache.jsonl"
        num_writers, per_writer = 4, 25

        def write_shard(writer_id: int) -> None:
            cache = TrialCache(path, writer_id=writer_id)
            for i in range(per_writer):
                cache.put(f"w{writer_id}-k{i}", _metrics(float(i)))

        threads = [threading.Thread(target=write_shard, args=(w,))
                   for w in range(num_writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        merged = TrialCache(path)
        assert merged.stats.disk_entries_loaded == num_writers * per_writer
        for w in range(num_writers):
            for i in range(per_writer):
                assert f"w{w}-k{i}" in merged

    def test_writer_recreates_its_sidecar_after_compaction_folded_it(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        sidecar = tmp_path / "cache.jsonl.shard-0"
        shard = TrialCache(path, writer_id=0)
        shard.put("k1", _metrics(1.0))
        shard.compact()  # folds this writer's own sidecar and deletes it
        assert not sidecar.exists()
        shard.put("k2", _metrics(2.0))
        assert sidecar.exists()
        assert (tmp_path / "cache.jsonl.shard-0.owner").exists()  # re-claimed
        reopened = TrialCache(path)
        assert reopened.get("k1") is not None and reopened.get("k2") is not None

    def test_compaction_folds_sidecars_into_base_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        # All writers open before any put, as concurrent shards do, so none
        # indexes another's "shared" record and each appends it.
        shards = [TrialCache(path, writer_id=w) for w in range(3)]
        for w, shard in enumerate(shards):
            shard.put(f"k{w}", _metrics(float(w)))
            shard.put("shared", _metrics(9.0))
        stats = TrialCache(path).compact()
        assert stats.files_merged == 3
        assert stats.kept == 4  # k0, k1, k2, shared
        assert stats.duplicates_dropped == 2
        assert path.exists()
        assert list(tmp_path.glob("cache.jsonl.shard-*")) == []
        reloaded = TrialCache(path)
        assert reloaded.stats.disk_entries_loaded == 4

    def test_orphaned_sidecar_is_folded_by_compaction(self, tmp_path):
        """A sidecar left by a crashed writer must not block compaction."""
        path = tmp_path / "cache.jsonl"
        shard = TrialCache(path, writer_id=7)
        shard.put("crashed-key", _metrics(99.0))
        # Simulate the crash: the owner marker points at a pid that is gone.
        dead = subprocess.Popen(["sleep", "0"])
        dead.wait()
        owner = tmp_path / "cache.jsonl.shard-7.owner"
        owner.write_text(json.dumps({"pid": dead.pid, "host": socket.gethostname()}))

        exclusive = TrialCache(path)
        for i in range(64):
            exclusive.put(f"k{i}", _metrics(float(i)))
        stats = exclusive.compact(4)
        assert stats.files_merged == 2
        assert stats.live_writers_skipped == 0
        assert not (tmp_path / "cache.jsonl.shard-7").exists()
        assert not owner.exists()
        # The cap keeps the last four records read (base file first, then
        # sidecars): the orphan's record was folded in, not left behind in
        # a stale sidecar.
        reloaded = TrialCache(path)
        assert reloaded.get("k63") is not None
        assert reloaded.get("crashed-key") is not None

    def test_ownerless_sidecar_counts_as_orphaned(self, tmp_path):
        """Legacy / pre-crash sidecars without owner markers are foldable."""
        path = tmp_path / "cache.jsonl"
        sidecar = tmp_path / "cache.jsonl.shard-3"
        record = {"key": "legacy", "ts": time.time(),
                  "metrics": trial_metrics_to_dict(_metrics(1.0))}
        sidecar.write_text(json.dumps(record) + "\n")
        exclusive = TrialCache(path)
        for i in range(64 + 17):
            exclusive.put(f"k{i}", _metrics(float(i)))
        assert exclusive.compact(64).files_merged == 2
        assert not sidecar.exists()

    def test_compact_skips_live_foreign_writer_sidecar(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        base = TrialCache(path)
        base.put("base-key", _metrics(1.0))
        sidecar = tmp_path / "cache.jsonl.shard-5"
        record = {"key": "live-key", "ts": time.time(),
                  "metrics": trial_metrics_to_dict(_metrics(2.0))}
        sidecar.write_text(json.dumps(record) + "\n")
        # pid 1 is alive and never ours: a live writer in another process.
        (tmp_path / "cache.jsonl.shard-5.owner").write_text(
            json.dumps({"pid": 1, "host": socket.gethostname()})
        )
        stats = TrialCache(path).compact()
        assert stats.live_writers_skipped == 1
        assert sidecar.exists()  # untouched: the live writer keeps appending
        # The live shard's records stay readable through the union view.
        assert TrialCache(path).get("live-key") is not None

    def test_release_orphans_the_sidecar(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        shard = TrialCache(path, writer_id=2)
        shard.put("k", _metrics(1.0))
        assert (tmp_path / "cache.jsonl.shard-2.owner").exists()
        shard.release()
        assert not (tmp_path / "cache.jsonl.shard-2.owner").exists()
        exclusive = TrialCache(path)
        for i in range(64):
            exclusive.put(f"k{i}", _metrics(float(i)))
        assert exclusive.compact(4).files_merged == 2
        assert not (tmp_path / "cache.jsonl.shard-2").exists()

    def test_sharded_writer_reclaims_ownership_after_its_own_compaction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        shard = TrialCache(path, writer_id=4)
        shard.put("k0", _metrics(1.0))
        shard.compact()  # folds the shard's own sidecar + owner marker
        assert not (tmp_path / "cache.jsonl.shard-4.owner").exists()
        shard.put("k1", _metrics(2.0))  # recreates the sidecar...
        # ...and must re-claim it, or other compactions would treat the
        # still-live writer's sidecar as orphaned and race its appends.
        assert (tmp_path / "cache.jsonl.shard-4.owner").exists()
        assert shard._sidecar_writer_state(tmp_path / "cache.jsonl.shard-4") == "self"

    def test_unknown_host_owner_is_treated_as_live(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        sidecar = tmp_path / "cache.jsonl.shard-9"
        record = {"key": "far-key", "ts": time.time(),
                  "metrics": trial_metrics_to_dict(_metrics(3.0))}
        sidecar.write_text(json.dumps(record) + "\n")
        (tmp_path / "cache.jsonl.shard-9.owner").write_text(
            json.dumps({"pid": 12345, "host": "another-host.example"})
        )
        stats = TrialCache(path).compact()
        assert stats.live_writers_skipped == 1
        assert sidecar.exists()

    def test_search_results_identical_with_and_without_writer_id(self, tmp_path):
        plain = FASTSearch(_problem(), optimizer="random", seed=1,
                           cache=TrialCache(tmp_path / "a.jsonl")).run(6, batch_size=2)
        sharded = FASTSearch(_problem(), optimizer="random", seed=1,
                             cache=TrialCache(tmp_path / "b.jsonl", writer_id=0)).run(
            6, batch_size=2
        )
        assert [trial_metrics_to_dict(m) for m in plain.history] == [
            trial_metrics_to_dict(m) for m in sharded.history
        ]
