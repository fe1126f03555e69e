"""Region plans price every fusion region exactly as the per-miss walk did.

The simulator builds one plan per fusion region, once per compiled graph,
and a region-cache miss is arithmetic over that plan and the trial's op
costs.  The oracle below is the region walk the plans replaced: the
region-evaluation body and the ``producer_region`` bookkeeping of
``Simulator.simulate``, which recomputed every graph-only fact on every
miss.  Each region's ``(RegionPerformance, RegionStats)`` must equal the
oracle's under ``==``, encode to the same store record (so an int never
turns into a float), keep the same ``op_busy_cycles`` key order, and cost
the same vector ops in the same order, so a reordered float sum, a
misattributed amplification or a vector op costed after a failed matrix
op fails here.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.compiler.passes import CompiledModel, compile_graph
from repro.compiler.xla_fusion import FusionRegion
from repro.core.designs import FAST_LARGE, TPU_V3
from repro.fusion.fast_fusion import RegionStats
from repro.hardware.datapath import BufferConfig, DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace
from repro.mapping.costmodel import OpCost
from repro.runtime.opcache import reset_op_caches
from repro.simulator import engine
from repro.simulator.engine import MAPPER_MODES, SimulationOptions, Simulator, clear_compiled_cache
from repro.simulator.result import RegionPerformance
from repro.workloads.builder import GraphBuilder
from repro.workloads.graph import TensorKind
from repro.workloads.ops import OpType, is_matrix_op
from repro.workloads.registry import build_workload
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

    Called with a simulator that has no op cache, so every vector op is
    costed by ``engine.vector_op_cost`` (where the tests count the calls).
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
    """Each region's (record, stats) as ``Simulator.simulate`` evaluates them now."""
    entries = []
    original = Simulator._evaluate_region

    def recording(self, *args, **kwargs):
        entries.append(original(self, *args, **kwargs))
        return entries[-1]

    monkeypatch.setattr(Simulator, "_evaluate_region", recording)
    options = SimulationOptions(  # fusion reads these stats; it is not under test
        mapper_engine=mapper_engine, region_cache_enabled=False, enable_fast_fusion=False
    )
    result = Simulator(config, options).simulate(graph)
    monkeypatch.setattr(Simulator, "_evaluate_region", original)
    assert result.schedule_failed == (entries[-1][0] is None)
    return entries


@pytest.mark.parametrize("mapper_engine", MAPPER_MODES)
@pytest.mark.parametrize("workload, two_pass", CASES)
def test_plans_price_every_region_as_the_reference_walk(
    workload, two_pass, mapper_engine, monkeypatch
):
    costed = _record_vector_ops(monkeypatch)
    failed = 0
    for config in DESIGNS:
        if two_pass is not None:
            config = config.evolve(use_two_pass_softmax=two_pass)
        graph = _graph(workload)
        reset_op_caches()  # every vector op of this walk is priced, as the oracle's are

        costed.clear()
        planned = _planned_walk(config, graph, mapper_engine, monkeypatch)
        planned_costed = list(costed)
        costed.clear()
        reference = reference_region_walk(config, graph, mapper_engine)

        assert len(planned) == len(reference)
        assert planned == reference
        assert planned_costed == costed  # no vector op costed past a failed matrix op
        for (record, stats), (ref_record, ref_stats) in zip(planned, reference):
            if record is None:
                failed += 1
                continue
            assert list(record.op_busy_cycles) == list(ref_record.op_busy_cycles)
            assert json.dumps(region_entry_to_dict((record, stats))) == json.dumps(
                region_entry_to_dict((ref_record, ref_stats))
            )
    assert failed >= 1  # the unschedulable design took the failure path


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
