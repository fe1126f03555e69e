"""Tests for the cross-trial op-cost cache.

The contract under test is *bit-for-bit equivalence*: any op-cache
configuration must produce identical op costs and identical search
histories (the scalar-vs-fast engine suite is tests/test_mapper_engines.py).
"""

from __future__ import annotations

import json

import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.mapping.loopnest import extract_problem
from repro.mapping.mapper import Mapper
from repro.reporting.serialization import (
    runtime_stats_from_dict,
    runtime_stats_to_dict,
    trial_metrics_to_dict,
)
from repro.runtime.opcache import (
    OpCostCache,
    get_op_cache,
    opcost_from_dict,
    reset_op_caches,
)
from repro.runtime.telemetry import Tracer, get_tracer, set_tracer
from repro.simulator.engine import SimulationOptions, Simulator
from repro.workloads.ops import is_matrix_op
from repro.workloads.registry import build_workload
from store_format1 import opcost_to_dict


@pytest.fixture(autouse=True)
def _fresh_op_caches():
    reset_op_caches()
    yield
    reset_op_caches()


def _matrix_ops(graph):
    return [op for op in graph.ops if is_matrix_op(op.op_type)]


class TestOpCostCache:
    def test_shared_across_mapper_instances(self, small_config):
        graph = build_workload("mobilenet-v2", batch_size=1)
        tensors = graph.tensors
        cache = OpCostCache()
        first = Mapper(small_config, op_cache=cache)
        for op in _matrix_ops(graph):
            first.map_op(op, tensors)
        puts = cache.stats.puts
        assert puts > 0
        second = Mapper(small_config, op_cache=cache)
        for op in _matrix_ops(graph):
            second.map_op(op, tensors)
        assert cache.stats.puts == puts  # every lookup served from the cache
        assert cache.stats.hits >= puts

    def test_different_mapping_config_does_not_collide(self, small_config):
        graph = build_workload("mobilenet-v2", batch_size=1)
        tensors = graph.tensors
        op = _matrix_ops(graph)[0]
        cache = OpCostCache()
        Mapper(small_config, op_cache=cache).map_op(op, tensors)
        other = small_config.evolve(systolic_array_x=64, systolic_array_y=64)
        mapper = Mapper(other, op_cache=cache)
        before = cache.stats.misses
        cost = mapper.map_op(op, tensors)
        assert cache.stats.misses > before
        assert cost == Mapper(other).map_op(op, tensors)

    def test_cached_costs_are_relabeled_per_op(self, small_config):
        graph = build_workload("efficientnet-b0", batch_size=1)
        tensors = graph.tensors
        cache = OpCostCache()
        mapper = Mapper(small_config, op_cache=cache)
        costs = {op.name: mapper.map_op(op, tensors) for op in _matrix_ops(graph)}
        fresh = Mapper(small_config, op_cache=cache)
        for op in _matrix_ops(graph):
            cost = fresh.map_op(op, tensors)
            assert cost.op_name == op.name
            assert cost == costs[op.name]

    def test_a_cost_labelled_for_its_op_is_not_copied(self, small_config):
        graph = build_workload("efficientnet-b0", batch_size=1)
        tensors = graph.tensors
        ops = _matrix_ops(graph)
        cache = OpCostCache()
        first = Mapper(small_config, op_cache=cache).map_ops_batch(ops, tensors)
        again = Mapper(small_config, op_cache=cache).map_ops_batch(ops, tensors)
        # Each cached cost carries the label of the op that mapped it first.
        cached = {cost.op_name: cost for cost in cache._memory.values()}
        assert len(cached) < len(ops)  # ops sharing a problem share its cost
        for op in ops:
            assert again[op.name] == first[op.name]
            assert (again[op.name] is cached.get(op.name)) == (op.name in cached)
            scalar = Mapper(small_config, op_cache=cache).map_op(op, tensors)
            assert (scalar is cached.get(op.name)) == (op.name in cached)

    def test_persistence_round_trip(self, small_config, tmp_path):
        graph = build_workload("mobilenet-v2", batch_size=1)
        tensors = graph.tensors
        store = tmp_path / "opcache.jsonl"
        writer = OpCostCache(path=store)
        mapper = Mapper(small_config, op_cache=writer)
        expected = {op.name: mapper.map_op(op, tensors) for op in _matrix_ops(graph)}
        assert store.exists()

        reader = OpCostCache(path=store)
        assert reader.stats.disk_entries_loaded == writer.stats.puts
        mapper = Mapper(small_config, op_cache=reader)
        for op in _matrix_ops(graph):
            assert mapper.map_op(op, tensors) == expected[op.name]
        assert reader.stats.misses == 0

    def test_opcost_dict_round_trip(self, small_config):
        graph = build_workload("efficientnet-b0", batch_size=1)
        tensors = graph.tensors
        for op in _matrix_ops(graph)[:5]:
            cost = Mapper(small_config).map_op(op, tensors)
            assert opcost_from_dict(opcost_to_dict(cost)) == cost

    def test_disk_store_never_reappends_known_keys(self, small_config, tmp_path):
        graph = build_workload("mobilenet-v2", batch_size=1)
        tensors = graph.tensors
        store = tmp_path / "opcache.jsonl"
        # Tiny memory front forces evictions; re-puts of evicted keys must
        # still not grow the disk store.
        cache = OpCostCache(path=store, max_memory_entries=1)
        for _ in range(3):
            mapper = Mapper(small_config, op_cache=cache)
            for op in _matrix_ops(graph):
                mapper.map_op(op, tensors)
        lines = store.read_text().splitlines()
        assert len(lines) == len(set(json.loads(l)["key"] for l in lines))

        reopened = OpCostCache(path=store, max_memory_entries=1)
        mapper = Mapper(small_config, op_cache=reopened)
        for op in _matrix_ops(graph):
            mapper.map_op(op, tensors)
        assert store.read_text().splitlines() == lines

    def test_compact_folds_duplicate_records(self, small_config, tmp_path):
        store = tmp_path / "opcache.jsonl"
        from repro.mapping.costmodel import OpCost
        from repro.workloads.ops import OpType

        cost = OpCost(op_name="op", op_type=OpType.MATMUL, compute_cycles=5.0)
        record = {"key": OpCostCache.digest(("k",)), "cost": opcost_to_dict(cost)}
        # Simulate two racing writers appending the same key.
        store.write_text((json.dumps(record) + "\n") * 3)
        cache = OpCostCache(path=store)
        stats = cache.compact()
        assert (stats.kept, stats.duplicates_dropped) == (1, 2)
        assert len(store.read_text().splitlines()) == 1
        assert cache.get(("k",)) == cost

    def test_memory_lru_bounded(self):
        cache = OpCostCache(max_memory_entries=4)
        from repro.mapping.costmodel import OpCost
        from repro.workloads.ops import OpType

        for i in range(10):
            cache.put(("key", i), OpCost(op_name=f"op{i}", op_type=OpType.MATMUL))
        assert len(cache._memory) == 4

    def test_process_registry_shares_instances(self, tmp_path):
        assert get_op_cache() is get_op_cache()
        path = tmp_path / "store.jsonl"
        assert get_op_cache(path) is get_op_cache(path)
        assert get_op_cache(path) is not get_op_cache()


class TestSearchEquivalence:
    def _run(self, op_cache, trials=10, seed=3):
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(
            problem,
            simulation_options=SimulationOptions(
                fusion_solver="greedy",
                op_cache_enabled=op_cache,
                # This class tests the op-cache layer in isolation; with the
                # region cache on, warm trials would never reach the mapper
                # (see test_region_cache.py for the layered caches).
                region_cache_enabled=False,
            ),
        )
        search = FASTSearch(problem, optimizer="lcs", seed=seed, evaluator=evaluator)
        return search.run(num_trials=trials, batch_size=4)

    @staticmethod
    def _history(result):
        return [trial_metrics_to_dict(m) for m in result.history]

    def test_op_cache_on_off_identical_histories(self):
        without = self._run(op_cache=False)
        reset_op_caches()
        with_cache = self._run(op_cache=True)
        rerun = self._run(op_cache=True)  # warm, same process
        assert self._history(with_cache) == self._history(without)
        assert self._history(rerun) == self._history(without)
        assert rerun.runtime.op_cache_hits > 0

    def test_runtime_stats_surface_op_cache_and_stage_times(self):
        result = self._run(op_cache=True)
        stats = result.runtime
        assert stats.op_cache_hits + stats.op_cache_misses > 0
        assert 0.0 <= stats.op_cache_hit_rate <= 1.0


class TestRuntimeStatsSerialization:
    def test_round_trip(self):
        from repro.core.fast import RuntimeStats

        stats = RuntimeStats(
            trials_evaluated=12, cache_hits=3, batches=2, duplicates_avoided=1,
            resumed_trials=0, elapsed_seconds=1.5, op_cache_hits=40,
            op_cache_misses=8,
        )
        data = runtime_stats_to_dict(stats)
        assert data["op_cache_hits"] == 40
        assert runtime_stats_from_dict(data) == stats

    def test_from_dict_tolerates_old_and_unknown_keys(self):
        from repro.core.fast import RuntimeStats

        old = {"trials_evaluated": 5, "cache_hits": 1, "batches": 2,
               "duplicates_avoided": 0, "resumed_trials": 0,
               "elapsed_seconds": 0.1, "not_a_field": 99}
        # The four counters of the removed shared-memory cache tier: stats
        # written while it existed must still load.
        old.update({f"{tier}_cache_shared_hits": 3 for tier in ("op", "region")})
        old.update({f"shared_cache_{name}": 2 for name in ("attached", "entries")})
        # The five counters of the removed cluster cache tier.
        old.update(
            {f"remote_cache_{name}": 4
             for name in ("hits", "misses", "puts", "requests", "failures")}
        )
        # The per-stage timings that span totals replaced.
        old.update({f"{stage}_seconds": 0.5 for stage in ("mapper", "vector", "fusion", "eval")})
        stats = runtime_stats_from_dict(old)
        assert stats.trials_evaluated == 5
        assert stats.op_cache_hits == 0
        assert isinstance(stats, RuntimeStats)

    def test_search_result_payload_includes_new_fields(self):
        from repro.reporting.serialization import search_result_to_dict

        problem = SearchProblem(["mobilenet-v2"], ObjectiveKind.PERF_PER_TDP)
        evaluator = TrialEvaluator(problem)
        search = FASTSearch(problem, optimizer="random", seed=0, evaluator=evaluator)
        result = search.run(num_trials=3, batch_size=2)
        payload = search_result_to_dict(result)
        assert "op_cache_hits" in payload["runtime"]


class TestSimulatorIntegration:
    def test_simulator_modes_identical_results(self, small_config, tiny_graph):
        results = []
        for engine, op_cache in [
            ("scalar", False), ("scalar", True), ("graph-batched", False), ("graph-batched", True)
        ]:
            simulator = Simulator(small_config, SimulationOptions(
                fusion_solver="greedy",
                mapper_engine=engine,
                op_cache_enabled=op_cache,
            ))
            results.append(simulator.simulate(tiny_graph))
        base = results[0]
        for other in results[1:]:
            assert other.latency_ms == base.latency_ms
            assert other.qps == base.qps
            assert [r.pre_fusion_cycles for r in other.regions] == [
                r.pre_fusion_cycles for r in base.regions
            ]

    def test_stage_seconds_accumulate(self, small_config, tiny_graph):
        simulator = Simulator(small_config, SimulationOptions(fusion_solver="greedy"))
        saved = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            simulator.simulate(tiny_graph)
        finally:
            set_tracer(saved)
        assert tracer.totals["batch_map"][1] > 0

    @staticmethod
    def _span_counts(config, options, graph):
        saved = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            Simulator(config, options).simulate(graph)
        finally:
            set_tracer(saved)
        return {name: count for name, (count, _) in tracer.totals.items()}

    def test_only_the_scalar_engine_times_map_op_spans(self, small_config, tiny_graph):
        matrix_ops = len(_matrix_ops(tiny_graph))
        scalar = self._span_counts(small_config, SimulationOptions(
            fusion_solver="greedy", mapper_engine="scalar",
            op_cache_enabled=False, region_cache_enabled=False,
        ), tiny_graph)
        assert scalar["map_op"] == matrix_ops
        assert "batch_map" not in scalar
        batched = self._span_counts(small_config, SimulationOptions(
            fusion_solver="greedy", op_cache_enabled=False, region_cache_enabled=False,
        ), tiny_graph)
        assert batched["batch_map"] == 1
        assert "map_op" not in batched  # every matrix op was premapped

    def test_vector_ops_open_no_span_and_use_no_op_cache_key(
        self, small_config, tiny_graph, monkeypatch
    ):
        # Vector ops are priced from their plans' lane work: cold or warm, a
        # simulate opens no span for them and looks up or stores only the
        # mapper's (mapping config key, problem key) op-cache keys.
        keys = []
        for name in ("get", "put"):
            original = getattr(OpCostCache, name)

            def recording(self, key, *args, _original=original, **kwargs):
                keys.append(key)
                return _original(self, key, *args, **kwargs)

            monkeypatch.setattr(OpCostCache, name, recording)
        cached = SimulationOptions(fusion_solver="greedy", region_cache_enabled=False)
        config_key = Mapper(small_config).mapping_config_key()
        for _ in range(2):  # cold, then warm
            keys.clear()
            assert "vector_op" not in self._span_counts(small_config, cached, tiny_graph)
            assert keys and all(len(key) == 2 and key[0] == config_key for key in keys)

    def test_problem_memo_is_correct_across_graphs(self, small_config):
        """Two ops with identical names in different graphs must not collide."""
        from repro.workloads.builder import GraphBuilder

        def build(features):
            builder = GraphBuilder("g", batch_size=1)
            x = builder.input("x", (1, 64))
            builder.matmul(x, features, name="op")
            return builder.graph

        a, b = build(64), build(256)
        mapper = Mapper(small_config)
        cost_a = mapper.map_op(a.op("op"), a.tensors)
        cost_b = mapper.map_op(b.op("op"), b.tensors)
        assert extract_problem(b.op("op"), b.tensors).n == 256
        assert cost_a != cost_b
