"""Tests for the region-result cache, warm workers and shared op stores.

The contract under test is *bit-for-bit equivalence*: any region-cache or
warm-worker configuration must produce identical simulation results and
identical search histories (the scalar-vs-fast engine suite is
tests/test_mapper_engines.py).
"""

from __future__ import annotations

import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.hardware.datapath import DatapathConfig
from repro.reporting.serialization import trial_metrics_to_dict
from repro.runtime import ParallelExecutor, run_sharded_sweep
from repro.runtime.opcache import (
    RegionCostCache,
    get_region_cache,
    reset_op_caches,
    reset_region_caches,
)
from repro.runtime.telemetry import Tracer, get_tracer, set_tracer
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.enginespec import EngineSpec
from test_mapper_engines import _spy_mapper_calls


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    yield
    reset_op_caches()


# ---------------------------------------------------------------------------
def _simulate(graph, config, **options):
    simulator = Simulator(
        config,
        SimulationOptions(fusion_solver="greedy", **options),
    )
    return simulator.simulate(graph)


def _result_signature(result):
    return (
        result.schedule_failed,
        [
            (
                record.index,
                record.compute_cycles,
                record.vector_cycles,
                record.dram_input_bytes,
                record.dram_weight_bytes,
                record.dram_output_bytes,
                record.pre_fusion_cycles,
                post_fusion_cycles,
                record.matrix_utilization,
                fusion,
                record.op_busy_cycles,
            )
            for record, post_fusion_cycles, fusion in zip(
                result.regions,
                result.region_post_fusion_cycles,
                result.region_fusion_decisions,
                strict=True,
            )
        ],
        result.qps if not result.schedule_failed else None,
    )


class TestRegionCachedSimulator:
    def test_region_cache_on_off_identical(self, efficientnet_b0):
        config = DatapathConfig()
        without = _simulate(efficientnet_b0, config, region_cache_enabled=False)
        cold = _simulate(efficientnet_b0, config)
        warm = _simulate(efficientnet_b0, config)
        assert _result_signature(cold) == _result_signature(without)
        assert _result_signature(warm) == _result_signature(without)
        cache = get_region_cache()
        assert cache.stats.hits > 0

    def test_warm_trial_skips_the_mapper_entirely(self, efficientnet_b0, monkeypatch):
        config = DatapathConfig()
        _simulate(efficientnet_b0, config)
        warm_simulator = Simulator(config, SimulationOptions(fusion_solver="greedy"))
        calls = _spy_mapper_calls(monkeypatch)
        saved = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            warm_simulator.simulate(efficientnet_b0)
        finally:
            set_tracer(saved)
        # All regions came from the cache: the mapper never ran.
        assert "regions" in tracer.totals
        assert not {"batch_map", "map_op"} & tracer.totals.keys()
        assert calls == {"map_op": 0, "map_ops_batch": 0}


# ---------------------------------------------------------------------------
class TestRegionCostCache:
    def test_lru_eviction_and_counters(self):
        cache = RegionCostCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a"; "b" becomes LRU
        cache.put(("c",), 3)
        assert len(cache) == 2
        assert cache.get(("b",)) is None  # evicted
        assert cache.get(("c",)) == 3
        assert cache.stats.puts == 3
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_peek_does_not_count_or_touch_lru(self):
        cache = RegionCostCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.peek(("a",)) == 1
        assert cache.peek(("missing",)) is None
        # No hit/miss accounting from peeks...
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        # ...and no LRU refresh: "a" is still the eviction victim.
        cache.put(("c",), 3)
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) == 2

    def test_snapshot_counters(self):
        cache = RegionCostCache()
        cache.put(("x",), 1)
        cache.get(("x",))
        cache.get(("y",))
        assert cache.snapshot_counters() == (1, 1)

    def test_registry_is_shared_and_resettable(self):
        first = get_region_cache()
        assert get_region_cache() is first
        reset_region_caches()
        assert get_region_cache() is not first
        # reset_op_caches clears the region registry too.
        second = get_region_cache()
        reset_op_caches()
        assert get_region_cache() is not second

    def test_search_runtime_stats_surface_region_counters(self):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)

        def run():
            evaluator = TrialEvaluator(
                problem,
                simulation_options=SimulationOptions(fusion_solver="greedy"),
            )
            search = FASTSearch(problem, optimizer="lcs", seed=5, evaluator=evaluator)
            return search.run(num_trials=8, batch_size=4)

        cold = run()
        warm = run()
        assert cold.runtime.region_cache_misses > 0
        assert cold.runtime.region_cache_hits == 0
        assert warm.runtime.region_cache_hits > 0
        assert warm.runtime.region_cache_hit_rate == 1.0
        history = lambda r: [trial_metrics_to_dict(m) for m in r.history]  # noqa: E731
        assert history(warm) == history(cold)


# ---------------------------------------------------------------------------
class TestWarmWorkers:
    def _run(self, executor=None, op_cache_path=None, trials=8):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(
            problem,
            simulation_options=SimulationOptions(
                fusion_solver="greedy",
                op_cache_path=str(op_cache_path) if op_cache_path else None,
            ),
        )
        search = FASTSearch(
            problem, optimizer="lcs", seed=1, evaluator=evaluator, executor=executor
        )
        return search.run(num_trials=trials, batch_size=4)

    def test_warm_caches_is_safe_and_idempotent(self):
        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(
            problem, simulation_options=SimulationOptions(fusion_solver="greedy")
        )
        evaluator.warm_caches()
        evaluator.warm_caches(batch_sizes=(1, 2))

    def test_parallel_run_reports_worker_op_cache_hits(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        serial = self._run(op_cache_path=store)  # populates the store
        assert store.exists()
        reset_op_caches()
        with ParallelExecutor(num_workers=2) as executor:
            parallel = self._run(executor=executor, op_cache_path=store)
            counters = executor.runtime_counters()
        # The satellite fix: parallel modes used to report op_cache_hits: 0
        # even with a warm persistent store on disk.
        assert parallel.runtime.op_cache_hits > 0
        assert counters["op_cache_hits"] == parallel.runtime.op_cache_hits
        history = lambda r: [trial_metrics_to_dict(m) for m in r.history]  # noqa: E731
        assert history(parallel) == history(serial)


# ---------------------------------------------------------------------------
class TestSweepOpCacheSharing:
    def test_sweep_shares_op_store_across_shards(self, tmp_path):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        store = tmp_path / "sweep-ops.jsonl"
        with_store = run_sharded_sweep(
            problem, total_trials=8, num_shards=2, optimizer="random", seed=9,
            op_cache_path=store,
        )
        assert store.exists()
        reset_op_caches()
        without = run_sharded_sweep(
            problem, total_trials=8, num_shards=2, optimizer="random", seed=9,
            engine=EngineSpec(op_cache=False),
        )
        assert [trial_metrics_to_dict(t.metrics) for t in with_store.trials] == [
            trial_metrics_to_dict(t.metrics) for t in without.trials
        ]
        # A second sweep over the warm store starts from disk hits.
        reset_op_caches()
        rerun = run_sharded_sweep(
            problem, total_trials=8, num_shards=2, optimizer="random", seed=9,
            op_cache_path=store,
        )
        assert rerun.runtime.op_cache_hits > 0
