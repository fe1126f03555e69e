"""Region plans price every fusion region exactly as the per-miss walk did.

The simulator builds one plan per fusion region, once per compiled graph,
and a region-cache miss is arithmetic over that plan and the trial's op
costs.  The oracle below is the region walk the plans replaced: the
region-evaluation body and the ``producer_region`` bookkeeping of
``Simulator.simulate``, which recomputed every graph-only fact on every
miss.  Each region's ``(RegionPerformance, RegionStats)`` must equal the
oracle's under ``==``, encode to the same store record (so an int never
turns into a float) and keep the same ``op_busy_cycles`` key order, so a
reordered float sum or a misattributed amplification fails here.  The
oracle prices each vector op with ``vector_op_cost``; the planned walk
prices it from its plan's lane work and never calls that cost model.  A
twin (a region repeating an earlier region's every cost input) shares that
region's records instead of being evaluated, so the views a simulation
result builds for it must equal the oracle's entry too.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.compiler.passes import CompiledModel, compile_graph
from repro.compiler.xla_fusion import FusionRegion
from repro.core.designs import FAST_LARGE, TPU_V3
from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.fusion.fast_fusion import FastFusionOptimizer, RegionStats
from repro.hardware.datapath import BufferConfig, DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace
from repro.mapping.costmodel import OpCost
from repro.runtime.opcache import RegionCostCache, reset_op_caches
from repro.simulator import engine
from repro.simulator.engine import MAPPER_MODES, SimulationOptions, Simulator, clear_compiled_cache
from repro.simulator.result import RegionPerformance
from repro.simulator.vector_ops import vector_op_cost, vpu_lanes_per_core
from repro.workloads.builder import GraphBuilder
from repro.workloads.graph import TensorKind
from repro.workloads.ops import OpType, is_matrix_op
from repro.workloads.registry import available_workloads, build_workload
from store_format1 import region_entry_to_dict

#: Every op of every model fails to map on these 1 KiB L1 buffers, so a
#: simulation stops at the first region holding a matrix op.
UNSCHEDULABLE = DatapathConfig(
    systolic_array_x=256,
    systolic_array_y=256,
    l1_buffer_config=BufferConfig.PRIVATE,
    l1_input_buffer_kib=1,
    l1_weight_buffer_kib=1,
    l1_output_buffer_kib=1,
)
SAMPLE_SEED = 11
NUM_SAMPLED = 3

#: (workload, softmax lowering); ``None`` keeps the design's own lowering.
CASES = [
    ("efficientnet-b0", False),
    ("efficientnet-b0", True),
    ("bert-seq128", False),
    ("bert-seq128", True),
    ("mobilenet-v2", None),
    ("ocr-rpn", None),
    ("plan-probe", False),
    ("plan-probe", True),
]


def _probe_graph(batch_size: int):
    """Branches no registered model reaches, in three regions.

    Region 0 is ``proj`` plus the small ``side`` matmul, both reading the
    graph input, so the last matrix op reading a tensor sets its
    amplification (on the first sampled design ``proj`` re-reads the input
    4x and spills partial sums, ``side`` reads it once).  ``mix`` anchors
    region 1, and the softmax reads region 0's output, so it starts region
    2 with a softmax input on the region boundary.
    """
    builder = GraphBuilder("plan-probe", batch_size=batch_size)
    tokens = builder.input("tokens", (batch_size, 2048, 1024))
    projected = builder.matmul(tokens, 1024, name="proj")
    side = builder.matmul(tokens, 16, name="side")
    mixed = builder.matmul(projected, 1024, name="mix")
    probs = builder.softmax(projected, name="probs")
    return builder.finish(outputs=[builder.add(mixed, probs, name="merge"), side])


def _graph(workload: str, batch_size: int = 2):
    if workload == "plan-probe":
        return _probe_graph(batch_size)
    return build_workload(workload, batch_size=batch_size)


def _designs():
    space = DatapathSearchSpace()
    rng = np.random.default_rng(SAMPLE_SEED)
    sampled = [space.to_config(space.sample(rng)) for _ in range(NUM_SAMPLED)]
    return [TPU_V3, FAST_LARGE, *sampled, UNSCHEDULABLE]


DESIGNS = _designs()


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    clear_compiled_cache()
    yield
    reset_op_caches()
    clear_compiled_cache()


# ---------------------------------------------------------------------------
# The oracle: the region walk as it was before region plans
# ---------------------------------------------------------------------------
def _matrix_ops(region: FusionRegion):
    return [op for op in region.ops if is_matrix_op(op.op_type)]


def _dominant_vector_type(region: FusionRegion) -> OpType:
    if not region.ops:
        return OpType.ELEMENTWISE_ADD
    preferred = (OpType.SOFTMAX, OpType.LAYERNORM, OpType.POOLING, OpType.REDUCE)
    for op_type in preferred:
        for op in region.ops:
            if op.op_type is op_type:
                return op_type
    return region.ops[0].op_type


def reference_evaluate_region(
    simulator: Simulator,
    compiled: CompiledModel,
    region: FusionRegion,
    dram_bpc: float,
    producer_region: Dict[str, int],
    premapped: Optional[Dict[str, OpCost]] = None,
):
    """The region evaluation before plans: every graph-only fact per call.

    Every vector op is costed by ``engine.vector_op_cost``, which the
    planned walk must never call (the tests count the calls).
    """
    graph = compiled.graph
    tensors = graph.tensors
    core = simulator._core_config

    matrix_costs: List[OpCost] = []
    anchor_cost: Optional[OpCost] = None
    vector_costs: List[OpCost] = []
    op_busy_cycles: Dict[str, float] = {}
    for op in region.ops:
        if is_matrix_op(op.op_type):
            cost = premapped.get(op.name) if premapped is not None else None
            if cost is None:
                cost = simulator.mapper.map_op(op, tensors)
            if cost.schedule_failed:
                return None, None
            matrix_costs.append(cost)
            op_busy_cycles[op.name] = cost.compute_cycles
            if region.matrix_op is not None and op.name == region.matrix_op.name:
                anchor_cost = cost
        else:
            cost = engine.vector_op_cost(op, tensors, core, compiled.softmax_factors)
            vector_costs.append(cost)
            op_busy_cycles[op.name] = cost.vector_cycles
    if anchor_cost is None and matrix_costs:
        anchor_cost = matrix_costs[0]

    compute_cycles = sum(c.compute_cycles for c in matrix_costs)
    vector_cycles = sum(c.vector_cycles for c in vector_costs)
    flops = sum(c.flops for c in matrix_costs) + sum(c.flops for c in vector_costs)

    input_amp_by_tensor: Dict[str, float] = {}
    weight_amp_by_tensor: Dict[str, float] = {}
    for matrix_op, cost in zip(_matrix_ops(region), matrix_costs):
        act_bytes = sum(
            tensors[t].size_bytes
            for t in matrix_op.inputs
            if tensors[t].kind is TensorKind.ACTIVATION
        )
        w_bytes = sum(
            tensors[t].size_bytes
            for t in matrix_op.inputs
            if tensors[t].kind in (TensorKind.WEIGHT, TensorKind.CONSTANT)
        )
        in_amp = max(1.0, cost.dram_input_bytes / act_bytes) if act_bytes else 1.0
        w_amp = max(1.0, cost.dram_weight_bytes / w_bytes) if w_bytes else 1.0
        for t in matrix_op.inputs:
            if tensors[t].kind is TensorKind.ACTIVATION:
                input_amp_by_tensor[t] = in_amp
            else:
                weight_amp_by_tensor[t] = w_amp

    softmax_ops = {op.name for op in region.ops if op.op_type is OpType.SOFTMAX}
    softmax_inputs = set()
    softmax_outputs = set()
    for op in region.ops:
        if op.name in softmax_ops:
            softmax_inputs.update(op.inputs)
            softmax_outputs.update(op.outputs)

    input_traffic = 0.0
    for tname in region.input_tensors:
        size = tensors[tname].size_bytes
        if tname in input_amp_by_tensor:
            input_traffic += size * input_amp_by_tensor[tname]
        elif tname in softmax_inputs:
            input_traffic += size * compiled.softmax_factors.input_traffic_factor
        else:
            input_traffic += size

    weight_traffic = 0.0
    for tname in region.weight_tensors:
        size = tensors[tname].size_bytes
        weight_traffic += size * weight_amp_by_tensor.get(tname, 1.0)

    output_traffic = 0.0
    for tname in region.output_tensors:
        size = tensors[tname].size_bytes
        if tname in softmax_outputs:
            output_traffic += size * compiled.softmax_factors.output_traffic_factor
        else:
            output_traffic += size
    for matrix_op, cost in zip(_matrix_ops(region), matrix_costs):
        matrix_out_bytes = sum(tensors[t].size_bytes for t in matrix_op.outputs)
        output_traffic += max(0.0, cost.dram_output_bytes - matrix_out_bytes)

    busy_cycles = max(compute_cycles, vector_cycles)
    total_traffic = input_traffic + weight_traffic + output_traffic
    dram_cycles = total_traffic / dram_bpc if dram_bpc > 0 else 0.0
    pre_fusion_cycles = max(busy_cycles, dram_cycles)

    primary_type = (
        region.matrix_op.op_type
        if region.matrix_op is not None
        else _dominant_vector_type(region)
    )
    record = RegionPerformance(
        index=region.index,
        name=region.name,
        op_names=[op.name for op in region.ops],
        primary_op_type=primary_type,
        flops=flops,
        compute_cycles=compute_cycles,
        vector_cycles=vector_cycles,
        dram_input_bytes=input_traffic,
        dram_weight_bytes=weight_traffic,
        dram_output_bytes=output_traffic,
        pre_fusion_cycles=pre_fusion_cycles,
        matrix_utilization=anchor_cost.utilization if anchor_cost else 0.0,
        op_busy_cycles=op_busy_cycles,
    )

    predecessor = None
    if region.input_tensors:
        largest_input = max(region.input_tensors, key=lambda t: tensors[t].size_bytes)
        predecessor = producer_region.get(largest_input)
    blocking_gm = 0
    if anchor_cost is not None and anchor_cost.tiling is not None:
        onchip_without_gm = core.l1_total_bytes + core.l2_total_bytes
        blocking_gm = max(0, anchor_cost.tiling.buffer_bytes(2) - onchip_without_gm)

    stats = RegionStats(
        index=region.index,
        name=region.name,
        busy_cycles=busy_cycles,
        t_max_cycles=pre_fusion_cycles,
        input_dram_cycles=input_traffic / dram_bpc if dram_bpc > 0 else 0.0,
        weight_dram_cycles=weight_traffic / dram_bpc if dram_bpc > 0 else 0.0,
        output_dram_cycles=output_traffic / dram_bpc if dram_bpc > 0 else 0.0,
        input_bytes=int(region.input_bytes(graph)),
        weight_bytes=int(region.weight_bytes(graph)),
        output_bytes=int(region.output_bytes(graph)),
        blocking_gm_bytes=blocking_gm,
        predecessor=predecessor,
        is_graph_output=any(t in graph.output_names for t in region.output_tensors),
    )
    return record, stats


def reference_region_walk(config: DatapathConfig, graph, mapper_engine: str):
    """Each region's (record, stats) in order, up to the first failure."""
    simulator = Simulator(
        config,
        SimulationOptions(
            mapper_engine=mapper_engine, op_cache_enabled=False, region_cache_enabled=False
        ),
    )
    core = simulator._core_config
    compiled = compile_graph(graph, use_two_pass_softmax=core.use_two_pass_softmax)
    premapped = None
    if mapper_engine != "scalar":
        ops = [op for region in compiled.regions for op in _matrix_ops(region)]
        premapped = simulator.mapper.map_ops_batch(ops, graph.tensors)
    producer_region: Dict[str, int] = {}
    entries = []
    for region in compiled.regions:
        record, stats = reference_evaluate_region(
            simulator, compiled, region, core.dram_bytes_per_cycle, producer_region, premapped
        )
        entries.append((record, stats))
        if record is None:
            break
        for tensor_name in region.output_tensors:
            producer_region[tensor_name] = region.index
    return entries


# ---------------------------------------------------------------------------
def _record_vector_ops(monkeypatch) -> List[str]:
    """Record the name of every op ``engine.vector_op_cost`` prices."""
    names: List[str] = []
    original = engine.vector_op_cost

    def recording(op, *args, **kwargs):
        names.append(op.name)
        return original(op, *args, **kwargs)

    monkeypatch.setattr(engine, "vector_op_cost", recording)
    return names


def _planned_walk(config: DatapathConfig, graph, mapper_engine: str, monkeypatch):
    """Each region's (record, stats) as ``Simulator.simulate`` walks them now.

    The result's record and stats views, in region order (a first-of-shape
    region's evaluated entry, a twin's built from it), then the ``(None,
    None)`` that evaluating the region that failed to schedule returned.
    """
    evaluated = []
    evaluate = Simulator._evaluate_region

    def evaluating(self, *args, **kwargs):
        evaluated.append(evaluate(self, *args, **kwargs))
        return evaluated[-1]

    monkeypatch.setattr(Simulator, "_evaluate_region", evaluating)
    options = SimulationOptions(  # fusion reads these stats; it is not under test
        mapper_engine=mapper_engine, region_cache_enabled=False, enable_fast_fusion=False
    )
    result = Simulator(config, options).simulate(graph)
    monkeypatch.setattr(Simulator, "_evaluate_region", evaluate)
    entries = list(zip(result.regions, result.region_stats))
    if evaluated[-1][0] is None:
        entries.append(evaluated[-1])
    assert result.schedule_failed == (entries[-1][0] is None)
    return entries


@pytest.mark.parametrize("mapper_engine", MAPPER_MODES)
@pytest.mark.parametrize("workload, two_pass", CASES)
def test_plans_price_every_region_as_the_reference_walk(
    workload, two_pass, mapper_engine, monkeypatch
):
    costed = _record_vector_ops(monkeypatch)
    failed = oracle_priced = 0
    for config in DESIGNS:
        if two_pass is not None:
            config = config.evolve(use_two_pass_softmax=two_pass)
        graph = _graph(workload)
        reset_op_caches()

        costed.clear()
        planned = _planned_walk(config, graph, mapper_engine, monkeypatch)
        assert costed == []  # vector ops are priced from the plans' lane work
        reference = reference_region_walk(config, graph, mapper_engine)
        oracle_priced += len(costed)

        assert len(planned) == len(reference)
        assert planned == reference
        for (record, stats), (ref_record, ref_stats) in zip(planned, reference):
            if record is None:
                failed += 1
                continue
            assert list(record.op_busy_cycles) == list(ref_record.op_busy_cycles)
            assert json.dumps(region_entry_to_dict((record, stats))) == json.dumps(
                region_entry_to_dict((ref_record, ref_stats))
            )
    assert failed >= 1  # the unschedulable design took the failure path
    assert oracle_priced > 0  # the recorder sees the cost model's calls


def test_each_softmax_lowering_gets_its_own_plans(monkeypatch):
    # One graph planned under both lowerings in one process: a plan keyed
    # by the graph alone would serve one lowering's softmax traffic to the
    # other.
    graph = build_workload("bert-seq128", batch_size=2)
    for two_pass in (False, True, False):
        config = FAST_LARGE.evolve(use_two_pass_softmax=two_pass)
        planned = _planned_walk(config, graph, "graph-batched", monkeypatch)
        assert planned == reference_region_walk(config, graph, "graph-batched")
    _, three_pass = engine._compile_with_plans(graph, False)
    _, two_pass = engine._compile_with_plans(graph, True)
    assert [plan.output_traffic for plan in three_pass] != [
        plan.output_traffic for plan in two_pass
    ]


def test_plans_are_built_once_per_compiled_graph(monkeypatch):
    built = []
    original = engine._region_plans

    def counting(compiled):
        built.append(compiled)
        return original(compiled)

    monkeypatch.setattr(engine, "_region_plans", counting)
    graph = build_workload("efficientnet-b0", batch_size=1)
    for config in DESIGNS:
        config = config.evolve(use_two_pass_softmax=False)
        options = SimulationOptions(region_cache_enabled=False, enable_fast_fusion=False)
        Simulator(config, options).simulate(graph)
    compiled, plans = engine._compile_with_plans(graph, False)
    assert built == [compiled]
    assert engine._compile_cached(graph, False) is compiled
    assert [plan.index for plan in plans] == [region.index for region in compiled.regions]

    clear_compiled_cache()  # the plans go with their compiled graph
    engine.precompile_graph(graph)
    assert len(built) == 2


# ---------------------------------------------------------------------------
# Twins
# ---------------------------------------------------------------------------
def _counting_evaluations(monkeypatch) -> List[int]:
    """Record the index of every region ``Simulator._evaluate_region`` prices."""
    evaluated: List[int] = []
    original = Simulator._evaluate_region

    def counting(self, plan, *args, **kwargs):
        evaluated.append(plan.index)
        return original(self, plan, *args, **kwargs)

    monkeypatch.setattr(Simulator, "_evaluate_region", counting)
    return evaluated


def _spying_region_cache(monkeypatch):
    """Record the region index of every key ``RegionCostCache.get``/``put`` sees."""
    gets: List[int] = []
    puts: List[int] = []
    get, put = RegionCostCache.get, RegionCostCache.put

    def spying_get(self, key, prefix=None):
        gets.append(key[-1])
        return get(self, key, prefix)

    def spying_put(self, key, entry, prefix=None):
        puts.append(key[-1])
        return put(self, key, entry, prefix)

    monkeypatch.setattr(RegionCostCache, "get", spying_get)
    monkeypatch.setattr(RegionCostCache, "put", spying_put)
    return gets, puts


def test_bert_prices_each_of_its_seven_region_shapes_once(monkeypatch):
    evaluated = _counting_evaluations(monkeypatch)
    gets, puts = _spying_region_cache(monkeypatch)
    simulator = Simulator(FAST_LARGE, SimulationOptions(fusion_solver="greedy"))
    result = simulator.simulate_workload("bert-seq128")
    assert len(result.regions) == 97
    assert len(evaluated) == 7
    assert len(gets) == len(puts) == 7
    assert simulator.region_cache.stats.misses == 7


def test_twins_never_reach_the_region_cache(monkeypatch):
    graph = build_workload("bert-seq128", batch_size=FAST_LARGE.native_batch_size)
    _, plans = engine._compile_with_plans(graph, FAST_LARGE.use_two_pass_softmax)
    first_of_shape = [plan.index for plan in plans if plan.twin is None]
    assert len(first_of_shape) == 7
    gets, puts = _spying_region_cache(monkeypatch)
    simulator = Simulator(FAST_LARGE, SimulationOptions(fusion_solver="greedy"))
    cold = simulator.simulate(graph)
    assert gets == puts == first_of_shape
    gets.clear()
    puts.clear()
    warm = simulator.simulate(graph)
    assert gets == first_of_shape and puts == []
    assert warm.regions == cold.regions


def _probe_pair(second_shape, second_fn: str):
    """Two one-matmul regions, each reading its own graph input.

    With ``second_shape == (2, 256, 512)`` and ``second_fn == "relu"`` the
    regions repeat each other; another shape of the same size, or another
    activation, keeps every plan fact and op type and changes one operand
    shape or one attr.
    """
    builder = GraphBuilder("twin-probe", batch_size=2)
    first = builder.input("x", (2, 256, 512))
    second = builder.input("y", second_shape)
    outputs = [
        builder.activation(builder.matmul(first, 512, name="a"), name="a_act"),
        builder.activation(builder.matmul(second, 512, name="b"), fn=second_fn, name="b_act"),
    ]
    return builder.finish(outputs=outputs)


def _plan_facts(plan):
    return (
        [op.op_type for op, _ in plan.ops],
        plan.matrix_bytes,
        plan.inputs,
        plan.weights,
        plan.output_traffic,
        plan.input_bytes,
        plan.weight_bytes,
        plan.output_bytes,
    )


@pytest.mark.parametrize(
    "second_shape, second_fn, twin",
    [
        ((2, 256, 512), "relu", 0),
        ((2, 2, 128, 512), "relu", None),  # one operand shape differs
        ((2, 256, 512), "gelu", None),  # one attr differs
    ],
    ids=["repeat", "operand-shape", "attr"],
)
def test_twins_need_equal_operands_and_attrs(second_shape, second_fn, twin, monkeypatch):
    graph = _probe_pair(second_shape, second_fn)
    _, plans = engine._compile_with_plans(graph, False)
    assert len(plans) == 2
    assert _plan_facts(plans[0]) == _plan_facts(plans[1])
    assert plans[0].twin is None
    assert plans[1].twin == twin

    evaluated = _counting_evaluations(monkeypatch)
    config = FAST_LARGE.evolve(use_two_pass_softmax=False)
    planned = _planned_walk(config, graph, "graph-batched", monkeypatch)
    assert evaluated == ([0] if twin == 0 else [0, 1])
    assert planned == reference_region_walk(config, graph, "graph-batched")


def test_a_twin_keeps_its_own_identity(monkeypatch):
    # The second region repeats the first, but reads the first's output and
    # writes the graph output.
    builder = GraphBuilder("twin-chain", batch_size=2)
    tokens = builder.input("tokens", (2, 256, 512))
    hidden = builder.activation(builder.matmul(tokens, 512, name="a"), name="a_act")
    graph = builder.finish(
        outputs=[builder.activation(builder.matmul(hidden, 512, name="b"), name="b_act")]
    )
    _, plans = engine._compile_with_plans(graph, False)
    assert [plan.twin for plan in plans] == [None, 0]

    evaluated = _counting_evaluations(monkeypatch)
    config = FAST_LARGE.evolve(use_two_pass_softmax=False)
    planned = _planned_walk(config, graph, "graph-batched", monkeypatch)
    assert evaluated == [0]
    assert planned == reference_region_walk(config, graph, "graph-batched")
    (first, first_stats), (twin, twin_stats) = planned
    assert (first_stats.predecessor, first_stats.is_graph_output) == (None, False)
    assert (twin_stats.predecessor, twin_stats.is_graph_output) == (0, True)
    assert (twin.index, twin.name, twin.op_names) == (1, "fusion[b]", ["b", "b_act"])
    assert list(twin.op_busy_cycles) == ["b", "b_act"]
    assert list(twin.op_busy_cycles.values()) == list(first.op_busy_cycles.values())
    assert twin.op_names is plans[1].op_names


def test_each_twin_keeps_its_own_name_in_reports():
    # ``op_component`` classifies by name suffix, so a twin reported under its
    # first-of-shape region's op names would still pass Figure 5.  Grouped
    # by layer, the twelve identical encoder layers share the time equally.
    simulator = Simulator(FAST_LARGE, SimulationOptions(fusion_solver="greedy"))
    result = simulator.simulate_workload("bert-seq128")
    for post_fusion in (False, True):
        shares = result.runtime_fraction_by(lambda name: name.split(".")[0], post_fusion)
        layers = [shares[f"layer{i}"] for i in range(12)]
        assert layers[0] > 0
        assert layers == [layers[0]] * 12


def _spy_built(monkeypatch, record_type) -> List[str]:
    """Record the name of every ``record_type`` built, however it is built."""
    names: List[str] = []
    original = record_type.__init__

    def spying(self, *args, **kwargs):
        original(self, *args, **kwargs)
        names.append(self.name)

    monkeypatch.setattr(record_type, "__init__", spying)
    return names


def test_the_trial_path_builds_no_twin_record(monkeypatch):
    # A search reads only numbers off a result, so a twin costs its shared
    # records and never a view; only a fusion-memo miss builds the twins'
    # stats, for the solver.
    records = _spy_built(monkeypatch, RegionPerformance)
    stats = _spy_built(monkeypatch, RegionStats)
    solved: List[List[RegionStats]] = []
    optimize, memo_get = FastFusionOptimizer.optimize, engine._fusion_memo_get
    memo_hits = []

    def recording(self, regions):
        solved.append(list(regions))
        return optimize(self, regions)

    def counting_hits(key):
        found = memo_get(key)
        memo_hits.append(found is not None)
        return found

    monkeypatch.setattr(FastFusionOptimizer, "optimize", recording)
    monkeypatch.setattr(engine, "_fusion_memo_get", counting_hits)
    problem = SearchProblem(["efficientnet-b0", "bert-seq128"], ObjectiveKind.PERF_PER_TDP)
    FASTSearch(problem, optimizer="annealing", seed=0).run(num_trials=16, batch_size=8)

    entries = engine._COMPILED_CACHE.values()
    twins = {plan.name for entry in entries for plan in entry[3] if plan.twin is not None}
    firsts = {plan.name for entry in entries for plan in entry[3] if plan.twin is None}
    assert twins and not twins & firsts
    assert solved and any(memo_hits)  # fusion both solved and hit the memo
    assert records and not [name for name in records if name in twins]
    built_twin_stats = [name for name in stats if name in twins]
    assert built_twin_stats == [region.name for regions in solved for region in regions
                                if region.name in twins]


def test_the_fusion_memo_hashes_each_key_once(monkeypatch):
    # A memo key hashes its first-of-shape stats once, when it is built, and
    # the lookup and the move_to_end or insert after it reuse that hash;
    # each used to hash every stats record again, twice per lookup in all.
    hashes: List[int] = []
    looked_up: List[int] = []
    simulated = []
    stats_hash, memo_get = RegionStats.__hash__, engine._fusion_memo_get
    simulate = Simulator.simulate

    def counting_hash(self):
        hashes.append(self.index)
        return stats_hash(self)

    def recording_get(key):
        looked_up.append(len(key[3]))
        return memo_get(key)

    def recording_simulate(self, graph):
        result = simulate(self, graph)
        gm_bytes = self._core_config.global_buffer_bytes
        simulated.append((gm_bytes, self.options.fusion_solver, result))
        return result

    clear_compiled_cache()
    monkeypatch.setattr(RegionStats, "__hash__", counting_hash)
    monkeypatch.setattr(engine, "_fusion_memo_get", recording_get)
    monkeypatch.setattr(Simulator, "simulate", recording_simulate)
    problem = SearchProblem(["efficientnet-b0", "bert-seq128"], ObjectiveKind.PERF_PER_TDP)
    FASTSearch(problem, optimizer="annealing", seed=0).run(num_trials=16, batch_size=8)

    assert looked_up and len(hashes) == sum(looked_up)
    # Every fusion result a simulation got, from the memo or not, is the
    # one a fresh solve of its region stats gives.
    fused = [entry for entry in simulated if entry[2].fusion_result is not None]
    assert len(fused) == len(looked_up) > len({id(entry[2].fusion_result) for entry in fused})
    for gm_bytes, solver, result in fused:
        fresh = FastFusionOptimizer(gm_capacity_bytes=gm_bytes, solver=solver)
        assert result.fusion_result == fresh.optimize(result.region_stats)


# ---------------------------------------------------------------------------
# Plan lane work is the VPU cost model's, bit for bit
# ---------------------------------------------------------------------------
def _lane_designs():
    """One VPU lane, the default design's lanes, TPU-v3's and the most the
    search space allows (its largest PE grid, array width and VPU multiplier).
    """
    space = DatapathSearchSpace()
    largest = space.to_config({spec.name: spec.choices[-1] for spec in space.specs})
    one_lane = DatapathConfig(
        pes_x_dim=1, pes_y_dim=1, systolic_array_x=1, systolic_array_y=1, vector_unit_multiplier=1
    )
    return [one_lane, DatapathConfig(), TPU_V3, largest]


@pytest.mark.parametrize("workload", sorted(available_workloads()))
def test_plan_lane_work_prices_vector_ops_as_the_cost_model(workload):
    designs = _lane_designs()
    lanes = [vpu_lanes_per_core(config) for config in designs]
    assert lanes[0] == 1 and lanes[-1] == max(lanes) == 256 * 256 * 256 * 16
    graph = build_workload(workload, batch_size=8)
    tensors = graph.tensors
    for two_pass in (False, True):
        compiled, plans = engine._compile_with_plans(graph, two_pass)
        vector_ops = 0
        for plan in plans:
            vector_flops = 0
            for op, lane_work in plan.ops:
                assert (lane_work is None) == is_matrix_op(op.op_type)
                if lane_work is None:
                    continue
                vector_ops += 1
                for config, count in zip(designs, lanes):
                    cost = vector_op_cost(op, tensors, config, compiled.softmax_factors)
                    assert struct.pack("<d", lane_work / count) == struct.pack(
                        "<d", cost.vector_cycles
                    ), (op.name, count)
                vector_flops += cost.flops
            assert type(plan.vector_flops) is int
            assert plan.vector_flops == vector_flops, plan.name
        assert vector_ops > 0
