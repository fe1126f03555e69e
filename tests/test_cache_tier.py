"""Tests for the shared cost caches beyond one process's memory.

Covers the persistent region store (JSONL, digest-keyed, duplicate-tolerant
under concurrent writers), the pool workers that inherit a warm parent's
caches through fork, and ``repro serve`` as the place several searches
share evaluated regions.  The invariant under test everywhere: a store
entry is bit-identical to a fresh evaluation, so search histories never
depend on where an entry came from.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.designs import FAST_LARGE
from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.fusion.fast_fusion import RegionStats
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import (
    params_to_jsonable,
    search_problem_to_dict,
    simulation_options_to_dict,
    trial_metrics_to_dict,
)
from repro.runtime.cache import problem_fingerprint
from repro.runtime.executor import ParallelExecutor
from repro.runtime.faults import FaultPlan, clear_faults, set_fault_plan
from repro.runtime.opcache import (
    RegionCostCache,
    get_region_cache,
    region_entry_from_dict,
    reset_op_caches,
)
from repro.runtime.remote import AsyncRemoteExecutor
from repro.runtime.service import EvaluationService, serve
from repro.simulator.engine import SimulationOptions
from repro.simulator.enginespec import EngineSpec
from repro.simulator.result import RegionPerformance
from repro.workloads.ops import OpType
from store_format1 import region_entry_to_dict


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    yield
    reset_op_caches()


def _region_entry(index: int = 0, scale: float = 1.0) -> tuple:
    """A realistic (RegionPerformance, RegionStats) pair with awkward floats."""
    record = RegionPerformance(
        index=index,
        name=f"region_{index}",
        op_names=[f"conv_{index}", f"relu_{index}"],
        primary_op_type=OpType.CONV2D,
        flops=123456789,
        compute_cycles=0.1 + 0.2,  # 0.30000000000000004: exact round-trip test
        vector_cycles=scale * 7.25,
        dram_input_bytes=scale * 1e6 / 3.0,
        dram_weight_bytes=1.0 + 1e-16,
        dram_output_bytes=98304.0,
        pre_fusion_cycles=scale * 1234.5678901234567,
        matrix_utilization=2.0 / 3.0,
        op_busy_cycles={f"conv_{index}": scale * 999.125},
    )
    stats = RegionStats(
        index=index,
        name=f"region_{index}",
        busy_cycles=scale * 1234.5678901234567,
        t_max_cycles=scale * 2000.0,
        input_dram_cycles=scale * 10.0 / 7.0,
        weight_dram_cycles=0.0,
        output_dram_cycles=scale * 3.3333333333333335,
        input_bytes=4096,
        weight_bytes=2048,
        output_bytes=8192,
        blocking_gm_bytes=0,
        predecessor=None if index == 0 else index - 1,
        is_graph_output=index == 0,
    )
    return (record, stats)


# ---------------------------------------------------------------------------
class TestRegionEntryCodec:
    def test_roundtrip_is_exact(self):
        entry = _region_entry(index=3, scale=1.7)
        decoded = region_entry_to_dict(entry)
        # The wire form must survive actual JSON serialization.
        wire = json.loads(json.dumps(decoded))
        record, stats = region_entry_from_dict(wire)
        assert record == entry[0]
        assert stats == entry[1]

    def test_failure_sentinel(self):
        wire = json.loads(json.dumps(region_entry_to_dict((None,))))
        assert wire == {"failed": True}
        assert region_entry_from_dict(wire) == (None,)


# ---------------------------------------------------------------------------
class TestRegionStore:
    def test_store_roundtrip_and_disk_hits(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        writer = RegionCostCache(path=store)
        entries = {(i, "key"): _region_entry(i) for i in range(4)}
        entries[(9, "fail")] = (None,)
        for key, entry in entries.items():
            writer.put(key, entry)
        assert store.exists()

        reader = RegionCostCache(path=store)
        assert reader.stats.disk_entries_loaded == len(entries)
        for key, entry in entries.items():
            assert reader.get(key) == entry
        assert reader.stats.disk_hits == len(entries)
        assert reader.stats.hits == len(entries)
        # A second read of the same key is a memory hit, not a disk hit.
        assert reader.get((0, "key")) == entries[(0, "key")]
        assert reader.stats.disk_hits == len(entries)

    def test_single_writer_never_duplicates(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        cache = RegionCostCache(path=store)
        entry = _region_entry()
        for _ in range(5):
            cache.put(("same", "key"), entry)
        assert len(store.read_text().splitlines()) == 1

    def test_a_put_of_a_key_the_store_holds_appends_nothing(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        RegionCostCache(path=store).put(("key",), _region_entry())
        written = store.read_bytes()
        RegionCostCache(path=store).put(("key",), _region_entry())
        assert store.read_bytes() == written


def _append_worker(store_path: str, writer_id: int, opened) -> None:
    """One writer process: race the shared key, then add a private one.

    Every writer opens the store before any of them writes, so none sees
    the contested key in its loaded index and all four append it.
    """
    cache = RegionCostCache(path=store_path)
    opened.wait(timeout=60)
    cache.put(("contested", "key"), _region_entry(index=7, scale=2.5))
    cache.put(("private", writer_id), _region_entry(index=writer_id))


class TestConcurrentAppends:
    def test_multiprocess_append_race_same_key(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        ctx = multiprocessing.get_context("spawn")
        opened = ctx.Barrier(4)
        workers = [
            ctx.Process(target=_append_worker, args=(str(store), i, opened))
            for i in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0

        # Every line is intact JSON (single-write appends never interleave).
        lines = store.read_text().splitlines()
        assert len(lines) == 8  # 4 x contested + 4 x private
        records = [json.loads(line) for line in lines]
        contested_digest = RegionCostCache.digest(("contested", "key"))
        contested = [r for r in records if r["key"] == contested_digest]
        assert len(contested) == 4
        # Duplicate records are bitwise-identical: loading serves the entry
        # regardless of which writer's record wins.
        assert all(r == contested[0] for r in contested)

        loaded = RegionCostCache(path=store)
        assert loaded.stats.corrupt_records == 0
        assert loaded.get(("contested", "key")) == _region_entry(index=7, scale=2.5)
        for i in range(4):
            assert loaded.get(("private", i)) == _region_entry(index=i)

        # Compaction folds the duplicates down to one record per key.
        assert loaded.compact().kept == 5
        assert len(store.read_text().splitlines()) == 5
        recompacted = RegionCostCache(path=store)
        assert recompacted.get(("contested", "key")) == _region_entry(
            index=7, scale=2.5
        )


def _forked_child_puts(cache: RegionCostCache, parent_fd: int) -> None:
    """Append two records from a forked child; exit 3 if it wrote through
    the descriptor it inherited instead of opening its own."""
    for i in range(2):
        cache.put(("child", i), _region_entry(index=10 + i))
    if cache._appender._fd == parent_fd:
        raise SystemExit(3)


class TestHeldAppendDescriptor:
    """Each store appends through one descriptor it holds open."""

    def test_puts_open_the_store_once(self, tmp_path, monkeypatch):
        store = tmp_path / "regions.jsonl"
        opened = []
        real_open = os.open

        def counting_open(path, *args, **kwargs):
            if str(path) == str(store):
                opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", counting_open)
        cache = RegionCostCache(path=store)
        for i in range(50):
            cache.put(("key", i), _region_entry(index=i))
        assert len(opened) == 1
        assert len(store.read_text().splitlines()) == 50

    def test_a_put_after_compaction_lands_in_the_compacted_file(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        cache = RegionCostCache(path=store)
        cache.put(("before",), _region_entry(index=1))
        cache.compact()  # replaces the file the descriptor was open on
        cache.put(("after",), _region_entry(index=2))
        reloaded = RegionCostCache(path=store)
        assert reloaded.stats.disk_entries_loaded == 2
        assert reloaded.get(("after",)) == _region_entry(index=2)

    def test_forked_child_and_parent_appends_are_all_read_back(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        cache = RegionCostCache(path=store)
        cache.put(("parent", 0), _region_entry(index=0))  # opens the descriptor
        child = multiprocessing.get_context("fork").Process(
            target=_forked_child_puts, args=(cache, cache._appender._fd)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        cache.put(("parent", 1), _region_entry(index=1))

        reloaded = RegionCostCache(path=store)
        assert reloaded.stats.corrupt_records == 0
        assert reloaded.stats.disk_entries_loaded == 4
        for key, index in (
            (("parent", 0), 0), (("parent", 1), 1), (("child", 0), 10), (("child", 1), 11)
        ):
            assert reloaded.get(key) == _region_entry(index=index)


class TestStoreLoadFreezesTheHeap:
    """A store load pauses the cyclic collector, then freezes what it read."""

    def _store(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        RegionCostCache(path=store).put(("key",), _region_entry())
        return store

    def test_loading_a_store_freezes_the_heap(self, tmp_path):
        store = self._store(tmp_path)
        frozen = gc.get_freeze_count()
        RegionCostCache(path=store)
        assert gc.get_freeze_count() > frozen
        assert gc.isenabled()

    def test_loading_a_missing_store_freezes_nothing(self, tmp_path):
        frozen = gc.get_freeze_count()
        RegionCostCache(path=tmp_path / "missing.jsonl")
        assert gc.get_freeze_count() == frozen

    def test_the_collector_state_comes_back(self, tmp_path, monkeypatch):
        store = self._store(tmp_path)
        gc.disable()
        try:
            RegionCostCache(path=store)
            assert not gc.isenabled()  # the caller's choice stands
        finally:
            gc.enable()

        def failing_read(self, files):
            raise OSError("disk gone")

        monkeypatch.setattr(RegionCostCache, "_read", failing_read)
        with pytest.raises(OSError):
            RegionCostCache(path=store)
        assert gc.isenabled()


# ---------------------------------------------------------------------------
class _CountingEvaluator(TrialEvaluator):
    """Counts parent-side ``warm_caches`` calls; optionally makes them fail."""

    def __init__(self, *args, fail: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.warm_calls = 0
        self.fail = fail

    def warm_caches(self, batch_sizes=None) -> None:
        self.warm_calls += 1
        if self.fail:
            raise RuntimeError("warm-up failed")
        super().warm_caches(batch_sizes)


class TestForkWarmWorkers:
    """Pool workers start warm by forking from a parent that warmed once."""

    @pytest.fixture(autouse=True)
    def _no_leaked_plan(self):
        clear_faults()
        yield
        clear_faults()

    @pytest.mark.parametrize(
        "faults, restarts", [(None, 0), ("worker-crash:n=1", 1)],
        ids=["first-start", "respawn"],
    )
    def test_forked_workers_serve_the_parent_store(self, tmp_path, faults, restarts):
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)

        def run(executor=None, store=None):
            reset_op_caches()
            options = SimulationOptions(
                fusion_solver="greedy", region_store_path=store
            )
            search = FASTSearch(
                problem,
                optimizer="random",
                seed=17,
                evaluator=TrialEvaluator(problem, simulation_options=options),
                executor=executor,
            )
            result = search.run(num_trials=6, batch_size=3)
            return [trial_metrics_to_dict(m) for m in result.history], result

        store = str(tmp_path / "regions.jsonl")
        serial_history, _ = run(store=store)  # write the store serially

        if faults is not None:
            set_fault_plan(FaultPlan(faults, seed=0))
        executor = ParallelExecutor(num_workers=2)
        try:
            parallel_history, result = run(executor=executor, store=store)
        finally:
            executor.close()
        assert parallel_history == serial_history
        stats = result.runtime
        # Every worker, respawned ones included, forked from a parent whose
        # warm-up loaded the store: no region was recomputed.
        assert stats.region_cache_misses == 0
        assert stats.region_cache_disk_hits > 0
        assert stats.worker_restarts == restarts

    def _batch(self, count: int = 3):
        space = DatapathSearchSpace()
        rng = np.random.default_rng(5)
        return space, [space.sample(rng) for _ in range(count)]

    def test_parent_warms_once_per_pool_build(self):
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        evaluator = _CountingEvaluator(
            problem, simulation_options=SimulationOptions(fusion_solver="greedy")
        )
        space, batch = self._batch()
        executor = ParallelExecutor(num_workers=2)
        try:
            executor.evaluate_batch(evaluator, space, batch)
            executor.evaluate_batch(evaluator, space, batch)
            assert evaluator.warm_calls == 1  # one pool, reused
            set_fault_plan(FaultPlan("worker-crash:n=1", seed=0))
            executor.evaluate_batch(evaluator, space, batch)
            assert executor.worker_restarts == 1
            assert evaluator.warm_calls == 2  # once more for the respawn
        finally:
            executor.close()

    def test_failing_warm_up_does_not_stop_the_batch(self):
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        options = SimulationOptions(fusion_solver="greedy")
        evaluator = _CountingEvaluator(problem, simulation_options=options, fail=True)
        space, batch = self._batch()
        with ParallelExecutor(num_workers=2) as executor:
            got = executor.evaluate_batch(evaluator, space, batch)
        assert evaluator.warm_calls == 1
        expected = TrialEvaluator(problem, simulation_options=options)
        assert [trial_metrics_to_dict(m) for m in got] == [
            trial_metrics_to_dict(expected.evaluate_params(p, space)) for p in batch
        ]


# ---------------------------------------------------------------------------
def _lines_by_key(store) -> dict:
    """Each key digest of a store, with the set of lines written for it."""
    lines = {}
    for line in store.read_text().splitlines():
        lines.setdefault(json.loads(line)["key"], set()).add(line)
    return lines


class TestPoolWrittenStores:
    def test_pool_written_stores_fold_to_the_serial_stores(self, tmp_path):
        """A 2-worker pool's cold stores hold the serial ones' lines, duplicates aside."""
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)

        def run(directory, executor=None):
            options = SimulationOptions(
                fusion_solver="greedy",
                op_cache_path=str(directory / "ops.jsonl"),
                region_store_path=str(directory / "regions.jsonl"),
            )
            search = FASTSearch(
                problem, optimizer="lcs", seed=0, executor=executor,
                evaluator=TrialEvaluator(problem, simulation_options=options),
            )
            result = search.run(num_trials=48, batch_size=8)
            return [trial_metrics_to_dict(m) for m in result.history]

        serial = run(tmp_path / "serial")
        with ParallelExecutor(num_workers=2) as executor:
            pooled = run(tmp_path / "pool", executor)
        assert pooled == serial
        for name in ("ops.jsonl", "regions.jsonl"):
            serial_lines = _lines_by_key(tmp_path / "serial" / name)
            pool_lines = _lines_by_key(tmp_path / "pool" / name)
            assert pool_lines.keys() == serial_lines.keys()
            assert all(len(lines) == 1 for lines in serial_lines.values())
            assert pool_lines == serial_lines  # every duplicate is byte-identical


# ---------------------------------------------------------------------------
class TestServiceRegionCache:
    """``repro serve`` is where searches on different hosts share regions."""

    def _bounded_service_cache(self, store=None) -> RegionCostCache:
        """The region cache a service prices one batch with, its LRU cut to 20."""
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        options = SimulationOptions(fusion_solver="greedy")
        space = DatapathSearchSpace()
        rng = np.random.default_rng(3)
        params = [space.from_config(FAST_LARGE)] + [space.sample(rng) for _ in range(5)]
        client = TrialEvaluator(problem, simulation_options=options)
        payload = {
            "fingerprint": problem_fingerprint(problem, client, space),
            "problem": search_problem_to_dict(problem),
            "options": {
                "num_cores": 1,
                "simulation_options": simulation_options_to_dict(options),
            },
            "params": [params_to_jsonable(p) for p in params],
        }
        path = None if store is None else str(store)
        overrides = None if path is None else {"region_store_path": path}
        with EvaluationService(simulation_overrides=overrides) as service:
            cache = get_region_cache(path)
            cache.max_memory_entries = 20
            status, _ = service.evaluate_payload(payload)
        assert status == 200
        # One batch prices far more distinct regions than the bound.
        assert cache.stats.puts > 2 * cache.max_memory_entries
        assert len(cache) <= cache.max_memory_entries
        return cache

    def test_store_less_service_stays_within_its_lru_bound(self):
        self._bounded_service_cache()

    def test_store_backed_service_stays_within_its_lru_bound(self, tmp_path):
        store = tmp_path / "svc.jsonl"
        cache = self._bounded_service_cache(store)
        # Every priced region is on disk; the service keeps only its digest.
        keys = [json.loads(line)["key"] for line in store.read_text().splitlines()]
        assert len(keys) > 2 * cache.max_memory_entries
        assert cache._disk_index == {}
        assert cache._written == set(keys)

    def test_remote_searches_share_the_service_region_store(self, tmp_path):
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)

        def run(executor=None):
            search = FASTSearch(problem, optimizer="random", seed=23, executor=executor)
            try:
                result = search.run(num_trials=5, batch_size=5)
            finally:
                if executor is not None:
                    executor.close()
            return [trial_metrics_to_dict(m) for m in result.history]

        local = run()
        store = tmp_path / "svc.jsonl"
        engine = EngineSpec.parse(f"graph-batched:region_store={store}")
        reset_op_caches()
        with serve(port=0, engine=engine) as svc:
            cache = get_region_cache(str(store))

            def run_remote():
                return run(AsyncRemoteExecutor([svc.url], timeout=120.0))

            assert run_remote() == local
            assert store.stat().st_size > 0
            hits, misses = cache.snapshot_counters()
            assert run_remote() == local
        # The repeat is served from the regions the first run left behind.
        assert cache.stats.misses == misses
        assert cache.stats.hits > hits


# ---------------------------------------------------------------------------
class TestEngineSpecCacheKeys:
    def test_parse_str_roundtrip(self):
        text = "graph-batched:op_cache=off,region_store=runs/r.jsonl"
        spec = EngineSpec.parse(text)
        assert spec.region_store == "runs/r.jsonl"
        assert spec.op_cache is False
        assert EngineSpec.parse(str(spec)) == spec

    def test_options_roundtrip(self):
        spec = EngineSpec.parse("graph-batched:region_store=r.jsonl")
        options = spec.to_simulation_options(fusion_solver="greedy")
        assert options.region_store_path == "r.jsonl"
        assert EngineSpec.from_simulation_options(options) == spec

    def test_cache_keys_are_perf_only(self):
        """A region store must not change the problem fingerprint."""
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        plain = TrialEvaluator(
            problem,
            simulation_options=SimulationOptions(fusion_solver="greedy"),
        )
        tiered = TrialEvaluator(
            problem,
            simulation_options=SimulationOptions(
                fusion_solver="greedy", region_store_path="x.jsonl"
            ),
        )
        assert problem_fingerprint(problem, plain) == problem_fingerprint(
            problem, tiered
        )
