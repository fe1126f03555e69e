"""Region-cache hits and fusion solves are shared, not copied, and stay exact.

A region-cache hit puts the cached ``(RegionPerformance, RegionStats)`` pair
itself into the simulation result, and a repeated fusion input returns the
simulator's memoized :class:`FusionResult`.  These tests pin what makes that
sharing exact: nothing writes to a shared record or fusion result, a
memoized solve equals a fresh one, digests derived from a key prefix equal
:meth:`CostCacheBase.digest`, and the region store still reads the lines of
the format whose records carried post-fusion fields (format 1) while it
writes positional rows (format 2).
"""

from __future__ import annotations

import copy
import enum
import json
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from repro.core.designs import FAST_LARGE
from repro.fusion.fast_fusion import FastFusionOptimizer, FusionResult, RegionStats
from repro.runtime.opcache import (
    CostCacheBase,
    OpCostCache,
    RegionCostCache,
    region_entry_from_dict,
    reset_op_caches,
)
from repro.simulator import engine
from repro.simulator.engine import SimulationOptions, Simulator, clear_compiled_cache
from repro.simulator.result import RegionPerformance
from repro.workloads.registry import build_workload
from store_format1 import region_entry_to_dict

#: A line of a FAST-Large efficientnet-b0 region store (greedy fusion, native
#: batch 8), written by the format whose records carried post-fusion fields.
PARENT_STORE_LINE = (
    '{"key": "640a2631cbe65b16d6fa8c5aff8073e036f0e45ae87b463b9880f5be55a3456f", '
    '"entry": {"record": {"index": 2, "name": "fusion[block1_0.project]", '
    '"op_names": ["block1_0.project", "block1_0.project_bn"], '
    '"primary_op_type": "conv2d", "flops": 104366080, "compute_cycles": 1569.0, '
    '"vector_cycles": 784.0, "dram_input_bytes": 6422528.0, '
    '"dram_weight_bytes": 1088.0, "dram_output_bytes": 3211264.0, '
    '"pre_fusion_cycles": 20216.042857142857, '
    '"post_fusion_cycles": 20216.042857142857, '
    '"matrix_utilization": 0.4996813256851498, '
    '"op_busy_cycles": {"block1_0.project": 1569.0, "block1_0.project_bn": 784.0}}, '
    '"stats": {"index": 2, "name": "fusion[block1_0.project]", "busy_cycles": 1569.0, '
    '"t_max_cycles": 20216.042857142857, "input_dram_cycles": 13475.84, '
    '"weight_dram_cycles": 2.282857142857143, "output_dram_cycles": 6737.92, '
    '"input_bytes": 6422528, "weight_bytes": 1088, "output_bytes": 3211264, '
    '"blocking_gm_bytes": 0, "predecessor": 1, "is_graph_output": false}}}'
)

#: The line this version writes for the region of :data:`PARENT_STORE_LINE`: its
#: format-2 row.
CURRENT_STORE_LINE = (
    '{"key": "640a2631cbe65b16d6fa8c5aff8073e036f0e45ae87b463b9880f5be55a3456f", '
    '"entry": [2, "fusion[block1_0.project]", ["block1_0.project", "block1_0.project_bn"], '
    '"conv2d", 104366080, 1569.0, 784.0, 6422528.0, 1088.0, 3211264.0, '
    '20216.042857142857, 0.4996813256851498, [1569.0, 784.0], 1569.0, '
    '20216.042857142857, 13475.84, 2.282857142857143, 6737.92, 6422528, 1088, 3211264, '
    '0, 1, false]}'
)

#: efficientnet-b0's distinct region shapes among its 50 regions at batch 8:
#: only these first-of-shape regions are looked up in and written to the
#: region cache; the 17 twins take their numbers in the region walk.
EFFICIENTNET_B0_SHAPES = 33

#: The op-store digest of the vector op-cost key of bert-seq128's first
#: softmax (``layer0.attention.softmax``) on FAST-Large at its native batch
#: 8 with the three-pass lowering, as written by the version that built the
#: key from the graph, the op and the datapath.
PARENT_SOFTMAX_KEY_DIGEST = "2f7e3d6844f31e5858b93876d15a2b175c99fe138f7fa0db6a6a94cbc11bd496"


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    clear_compiled_cache()
    yield
    reset_op_caches()
    clear_compiled_cache()


def _simulator(config=FAST_LARGE, solver="greedy", **options):
    return Simulator(config, SimulationOptions(fusion_solver=solver, **options))


def _recording_gets():
    """Patch RegionCostCache.get to record every entry it returns."""
    returned = []
    original = RegionCostCache.get

    def get(self, key, prefix=None):
        entry = original(self, key, prefix)
        returned.append(entry)
        return entry

    return returned, mock.patch.object(RegionCostCache, "get", get)


# ---------------------------------------------------------------------------
class TestSharedRegionRecords:
    def test_records_carry_no_fusion_outcome(self):
        names = {f.name for f in fields(RegionPerformance)}
        assert "post_fusion_cycles" not in names
        assert "fusion" not in names

    def test_hit_returns_the_cached_objects_unchanged(self):
        graph = build_workload("efficientnet-b0", batch_size=FAST_LARGE.native_batch_size)
        simulator = _simulator()
        first = simulator.simulate(graph)
        assert any(d.any for d in first.region_fusion_decisions)  # fusion pinned
        before = copy.deepcopy(first.regions)

        returned, patch = _recording_gets()
        with patch:
            second = simulator.simulate(graph)
        _, plans = engine._compile_with_plans(graph, FAST_LARGE.use_two_pass_softmax)
        firsts = [position for position, plan in enumerate(plans) if plan.twin is None]
        assert len(returned) == len(firsts) == EFFICIENTNET_B0_SHAPES  # one per shape
        for entry, position in zip(returned, firsts):
            assert entry is not None  # every first-of-shape region is a hit
            assert second.regions[position] is entry[0]  # the cached record, not a copy
            assert second.regions[position] is first.regions[position]  # the miss stored it
        for plan, record, original in zip(plans, second.regions, first.regions):
            if plan.twin is not None:
                assert record == original
        # Two fused simulations later, no record has been written to.
        assert second.regions == before
        assert second.region_post_fusion_cycles == first.region_post_fusion_cycles


class TestFusionMemo:
    def test_memoized_result_equals_a_fresh_solve(self):
        graph = build_workload("efficientnet-b0", batch_size=FAST_LARGE.native_batch_size)
        simulator = _simulator()
        solved = []
        optimize = FastFusionOptimizer.optimize

        def recording(self, stats):
            solved.append(list(stats))
            return optimize(self, stats)

        with mock.patch.object(FastFusionOptimizer, "optimize", recording):
            first = simulator.simulate(graph)
        with mock.patch.object(
            FastFusionOptimizer, "optimize", side_effect=AssertionError("not memoized")
        ):
            second = simulator.simulate(graph)
        assert second.fusion_result is first.fusion_result

        [stats] = solved  # every region's stats of the first simulation
        assert len(stats) == len(first.regions) == 50
        fresh = FastFusionOptimizer(FAST_LARGE.global_buffer_bytes, solver="greedy").optimize(
            stats
        )
        for field in fields(FusionResult):
            assert getattr(second.fusion_result, field.name) == getattr(fresh, field.name)

    def test_the_memo_sees_through_equal_lowerings(self):
        # efficientnet-b0 has no softmax, so its plans and stats are equal
        # under both lowerings and one solve serves both; bert-seq128's
        # softmax traffic differs, so it solves once per lowering.
        optimize = FastFusionOptimizer.optimize
        for workload, solves in (("efficientnet-b0", 1), ("bert-seq128", 2)):
            graph = build_workload(workload, batch_size=FAST_LARGE.native_batch_size)
            solved = []

            def recording(self, stats):
                solved.append(len(stats))
                return optimize(self, stats)

            with mock.patch.object(FastFusionOptimizer, "optimize", recording):
                for two_pass in (False, True):
                    _simulator(FAST_LARGE.evolve(use_two_pass_softmax=two_pass)).simulate(graph)
            assert len(solved) == solves, workload

    def test_memo_keys_on_the_solver(self, tiny_graph):
        greedy = _simulator(solver="greedy").simulate(tiny_graph)
        ilp = _simulator(solver="ilp").simulate(tiny_graph)
        assert greedy.fusion_result.solver_status == "greedy"
        assert ilp.fusion_result.solver_status.startswith("ilp")

    def test_memo_is_a_bounded_lru(self):
        results = {}
        for n in range(engine._FUSION_MEMO_MAX + 8):
            results[n] = FusionResult([], [], 0.0, 0.0, 0, 0, n, "greedy")
            engine._fusion_memo_put((n,), results[n])
            if n == engine._FUSION_MEMO_MAX - 1:
                assert engine._fusion_memo_get((0,)) is results[0]  # refresh 0
        assert len(engine._FUSION_MEMO) == engine._FUSION_MEMO_MAX
        assert engine._fusion_memo_get((0,)) is results[0]
        for evicted in range(1, 9):  # the least recently used
            assert engine._fusion_memo_get((evicted,)) is None
        assert engine._fusion_memo_get((9,)) is results[9]


# ---------------------------------------------------------------------------
class _Color(enum.Enum):
    RED = "red"


def _random_scalar(rng):
    kind = int(rng.integers(7))
    if kind == 0:
        return int(rng.integers(-(10**12), 10**12))
    if kind == 1:
        return float(rng.normal() * 10.0 ** int(rng.integers(-12, 12)))
    if kind == 2:
        return bool(rng.integers(2))
    if kind == 3:
        return None
    if kind == 4:
        return "".join(chr(int(c)) for c in rng.integers(32, 0x2FF, size=int(rng.integers(0, 12))))
    if kind == 5:
        return _Color.RED
    return {"b": float(rng.random()), "a": [int(rng.integers(9)), "x"]}


def _random_key_base(rng, depth=0):
    items = []
    for _ in range(int(rng.integers(1, 8))):
        if depth < 2 and rng.random() < 0.25:
            items.append(_random_key_base(rng, depth + 1))
        else:
            items.append(_random_scalar(rng))
    return tuple(items)


class TestDerivedDigest:
    def test_equals_the_definition_on_random_keys(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            key_base = _random_key_base(rng)
            prefix = CostCacheBase.key_prefix(key_base)
            lasts = (
                0,
                1,
                int(rng.integers(2, 10**6)),
                bool(rng.integers(2)),
                float(rng.normal() * 10.0 ** int(rng.integers(-12, 12))),
                _random_scalar(rng),
                _random_key_base(rng),  # a tuple, as the mapper's problem keys are
                "".join(chr(int(c)) for c in rng.integers(32, 0x2FF, size=4)),
            )
            for last in lasts:
                key = key_base + (last,)
                assert CostCacheBase.digest(key, prefix) == CostCacheBase.digest(key)

    def test_equals_the_definition_on_mapper_op_keys(self):
        calls = []
        original = OpCostCache.get

        def get(self, key, prefix=None):
            calls.append((key, prefix))
            return original(self, key, prefix)

        graph = build_workload("bert-seq128", batch_size=2)
        with mock.patch.object(OpCostCache, "get", get):
            _simulator().simulate(graph)
        op_keys = [(key, prefix) for key, prefix in calls if key[0] != "vector"]
        assert op_keys
        for key, prefix in op_keys:
            assert prefix is not None
            assert CostCacheBase.digest(key, prefix) == CostCacheBase.digest(key)

    def test_equals_the_definition_on_simulator_keys(self):
        graph = build_workload("bert-seq128", batch_size=2)
        simulator = _simulator()
        compiled = engine._compile_cached(graph, False)
        key_base = simulator._region_key_base(graph, compiled)
        prefix = CostCacheBase.key_prefix(key_base)
        for region in compiled.regions:
            key = key_base + (region.index,)
            assert CostCacheBase.digest(key, prefix) == CostCacheBase.digest(key)


class TestStoreFormatCompatibility:
    def test_vector_op_keys_hash_to_the_previous_versions_digest(self):
        # An op store written before this version keeps serving vector costs
        # only if the key built now for the same op hashes the same.
        keys = []
        original = OpCostCache.get

        def get(self, key, prefix=None):
            keys.append(key)
            return original(self, key, prefix)

        graph = build_workload("bert-seq128", batch_size=FAST_LARGE.native_batch_size)
        with mock.patch.object(OpCostCache, "get", get):
            _simulator().simulate(graph)
        softmax = [
            key for key in keys if key[0] == "vector" and key[2] == "layer0.attention.softmax"
        ]
        assert len(softmax) == 1
        assert CostCacheBase.digest(softmax[0]) == PARENT_SOFTMAX_KEY_DIGEST

    def test_previous_format_line_decodes_and_reencodes_identically(self, tmp_path):
        parent = json.loads(PARENT_STORE_LINE)
        record, stats = region_entry_from_dict(parent["entry"])
        reencoded = json.dumps({"key": parent["key"], "entry": region_entry_to_dict((record, stats))})
        assert reencoded == PARENT_STORE_LINE

        # The same region, evaluated now, is the object the old line decodes to,
        # and the store this version writes holds its format-2 line.
        store = tmp_path / "regions.jsonl"
        result = _simulator(region_store_path=str(store)).simulate_workload("efficientnet-b0")
        assert result.regions[record.index] == record
        assert isinstance(stats, RegionStats)
        lines = {json.loads(line)["key"]: line for line in store.read_text().splitlines()}
        assert lines[parent["key"]] == CURRENT_STORE_LINE

        # A fresh process-local cache loads that store and serves every region
        # from it.
        reset_op_caches()
        simulator = _simulator(region_store_path=str(store))
        again = simulator.simulate_workload("efficientnet-b0")
        assert len(again.regions) == 50
        assert simulator.region_cache.stats.disk_hits == EFFICIENTNET_B0_SHAPES
        assert again.region_post_fusion_cycles == result.region_post_fusion_cycles

    def test_a_store_of_the_previous_format_line_serves_it_from_disk(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        store.write_text(PARENT_STORE_LINE + "\n")
        record, _ = region_entry_from_dict(json.loads(PARENT_STORE_LINE)["entry"])
        simulator = _simulator(region_store_path=str(store))
        result = simulator.simulate_workload("efficientnet-b0")
        assert simulator.region_cache.stats.disk_entries_loaded == 1
        assert simulator.region_cache.stats.disk_hits == 1
        assert result.regions[record.index] == record
        # The served entry is never re-appended: the store grows by the
        # other first-of-shape regions.
        lines = store.read_text().splitlines()
        assert lines[0] == PARENT_STORE_LINE
        assert len(lines) == EFFICIENTNET_B0_SHAPES
