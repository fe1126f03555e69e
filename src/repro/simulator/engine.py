"""Whole-graph accelerator simulator.

The simulator evaluates a workload graph on a datapath configuration using
the same three-stage flow as the paper (Figure 1): matrix ops are scheduled
by the Timeloop-style mapper, vector ops are costed on the VPU, per-region
pre-fusion performance is assembled, and — when the datapath has a Global
Memory and fusion is enabled — the FAST fusion ILP assigns tensors to the
Global Memory and post-fusion performance is produced.

Multi-core chips (the dual-core TPU-v3 baseline) are modeled by simulating a
single core with its share of the DRAM bandwidth and multiplying throughput
by the core count, matching the paper's treatment of each TPU-v3 core as a
separate accelerator serving its own batch.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.passes import CompiledModel, compile_graph
from repro.compiler.xla_fusion import FusionRegion
from repro.fusion.fast_fusion import FastFusionOptimizer, FusionResult, RegionStats
from repro.hardware.datapath import DatapathConfig
from repro.hardware.memory import MemoryHierarchy
from repro.mapping.costmodel import OpCost
from repro.mapping.mapper import Mapper, MapperOptions
from repro.simulator.result import RegionPerformance, SimulationResult
from repro.simulator.vector_ops import vector_cost_cache_key, vector_op_cost, vpu_lanes_per_core
from repro.workloads.graph import Graph, TensorKind
from repro.workloads.ops import OpType, is_matrix_op
from repro.workloads.registry import build_workload

__all__ = [
    "MAPPER_MODES",
    "SimulationOptions",
    "Simulator",
    "clear_compiled_cache",
    "precompile_graph",
]

# Lazily resolved tracer accessor: ``repro.runtime`` imports this module
# during its own package init, so a module-level telemetry import would be
# circular.  Cached after the first call; with tracing disabled the hot path
# pays one function call + attribute check per span site.
_get_tracer = None


def _tracer():
    global _get_tracer
    if _get_tracer is None:
        from repro.runtime.telemetry import get_tracer

        _get_tracer = get_tracer
    return _get_tracer()


#: The two mapping engines: the scalar reference loop and the stacked NumPy
#: pass per trial (the default).  Both compute bit-for-bit identical costs.
MAPPER_MODES: Tuple[str, ...] = ("scalar", "graph-batched")


@dataclass
class SimulationOptions:
    """Knobs controlling a simulation run.

    The last five fields are performance knobs that never change results
    (both mapping engines are bit-for-bit equivalent, and cache hits return
    exactly what a fresh evaluation would compute):

    * ``mapper_engine`` — one of :data:`MAPPER_MODES`.  ``graph-batched``
      gathers every matrix op of a trial that the region cache cannot serve
      and prices them in ONE stacked candidate sweep
      (:meth:`~repro.mapping.mapper.Mapper.map_ops_batch`); ``scalar`` maps
      op by op with the reference loop
      (:meth:`~repro.mapping.mapper.Mapper.map_op`).
    * ``region_cache_enabled`` — memoize whole fusion-region evaluations
      across trials in the process-local region cache; cached regions skip
      mapping entirely on warm trials.
    * ``op_cache_enabled`` — share per-op mapping/vector costs across trials
      through the process-local op cache.
    * ``op_cache_path`` — optionally persist that cache as JSON lines.
    * ``region_store_path`` — optionally persist the region cache the same
      way (``--engine region_store=PATH``): evaluated regions append to a
      digest-keyed JSONL store that later runs, sweep shards, and
      ``repro serve`` warm-load.

    :func:`repro.runtime.opcache.caches_for` turns the four cache fields
    into the caches a simulator uses.

    Prefer building these knobs through
    :class:`repro.simulator.enginespec.EngineSpec` — the one-string engine
    API (``repro ... --engine``) that maps onto this dataclass.
    """

    enable_fast_fusion: Optional[bool] = None  # None: follow the datapath config
    fusion_solver: str = "auto"
    mapper_options: Optional[MapperOptions] = None
    mapper_engine: str = "graph-batched"
    region_cache_enabled: bool = True
    op_cache_enabled: bool = True
    op_cache_path: Optional[str] = None
    region_store_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mapper_engine not in MAPPER_MODES:
            raise ValueError(
                f"unknown mapper engine {self.mapper_engine!r} "
                f"(expected one of: {', '.join(MAPPER_MODES)})"
            )


# ---------------------------------------------------------------------------
# Compiled-graph cache.  Lowering a graph into fusion regions is identical
# for every trial that simulates the same graph object with the same softmax
# lowering, so the result is memoized per process.  Entries are keyed by
# object identity + op count (guarding against post-build mutation); the
# stored strong reference keeps ids stable, so entries inherited across a
# fork stay valid — fork-started executor workers begin life with the
# parent's warm compiled graphs instead of re-lowering them.
# ---------------------------------------------------------------------------
_COMPILED_CACHE: Dict[Tuple[int, bool], Tuple[Graph, int, CompiledModel]] = {}
_COMPILED_CACHE_MAX = 64


def _compile_cached(graph: Graph, use_two_pass_softmax: bool) -> CompiledModel:
    key = (id(graph), use_two_pass_softmax)
    entry = _COMPILED_CACHE.get(key)
    if entry is not None and entry[0] is graph and entry[1] == len(graph):
        return entry[2]
    compiled = compile_graph(graph, use_two_pass_softmax=use_two_pass_softmax)
    _COMPILED_CACHE[key] = (graph, len(graph), compiled)
    while len(_COMPILED_CACHE) > _COMPILED_CACHE_MAX:
        _COMPILED_CACHE.pop(next(iter(_COMPILED_CACHE)))
    return compiled


def precompile_graph(graph: Graph, use_two_pass_softmax: bool = False) -> None:
    """Warm the compiled-graph cache for one graph (worker/service warm-up)."""
    _compile_cached(graph, use_two_pass_softmax)


def clear_compiled_cache() -> None:
    """Drop all memoized compiled graphs and fusion results (tests, memory-sensitive runs)."""
    _COMPILED_CACHE.clear()
    _FUSION_MEMO.clear()


# ---------------------------------------------------------------------------
# Fusion memo.  A fusion solve is a pure function of (GM capacity, solver,
# region stats), and a search keeps proposing datapaths whose regions and
# Global Memory repeat, so recent solves are memoized in a small LRU.  Its
# FusionResults are shared read-only by every SimulationResult that hits
# them.  The bound is fixed: an unbounded memo grows with every distinct
# datapath a search visits and measurably raises a long search's peak RSS,
# while 64 recent solves already catch nearly all of the repeats.
# ---------------------------------------------------------------------------
_FUSION_MEMO: "OrderedDict[Tuple, FusionResult]" = OrderedDict()
_FUSION_MEMO_MAX = 64


def _fusion_memo_get(key: Tuple) -> Optional[FusionResult]:
    result = _FUSION_MEMO.get(key)
    if result is not None:
        _FUSION_MEMO.move_to_end(key)
    return result


def _fusion_memo_put(key: Tuple, result: FusionResult) -> None:
    _FUSION_MEMO[key] = result
    if len(_FUSION_MEMO) > _FUSION_MEMO_MAX:
        _FUSION_MEMO.popitem(last=False)


class Simulator:
    """Evaluates workloads on a datapath configuration.

    ``stage_seconds`` accumulates wall-clock time spent in the mapper, the
    VPU cost model, and the fusion ILP across every ``simulate`` call on this
    instance — the raw material for ``repro profile`` and
    :class:`~repro.core.fast.RuntimeStats` per-stage timings.

    Results share rather than copy: a region-cache hit puts the cached
    :class:`~repro.simulator.result.RegionPerformance` record itself into the
    result, and a repeated fusion input returns the memoized
    :class:`~repro.fusion.fast_fusion.FusionResult`.  Neither is ever
    modified after it is built, which is what makes sharing them exact.
    """

    def __init__(
        self,
        config: DatapathConfig,
        options: Optional[SimulationOptions] = None,
    ) -> None:
        self.config = config
        self.options = options or SimulationOptions()
        self._core_config = self._derive_core_config(config)
        self.hierarchy = MemoryHierarchy(self._core_config)
        self.stage_seconds: Dict[str, float] = {"mapper": 0.0, "vector": 0.0, "fusion": 0.0}
        # Imported lazily: repro.runtime imports this module at package
        # import time, so a module-level import would be circular.
        from repro.runtime.opcache import caches_for

        self.op_cache, self.region_cache = caches_for(self.options)
        self.mapper = Mapper(
            self._core_config,
            self.hierarchy,
            self.options.mapper_options,
            op_cache=self.op_cache,
        )
        self._batched = self.options.mapper_engine != "scalar"

    # ------------------------------------------------------------------
    @staticmethod
    def _derive_core_config(config: DatapathConfig) -> DatapathConfig:
        """Single-core view of the chip (bandwidth split across cores)."""
        if config.num_cores == 1:
            return config
        channels = max(1, config.gddr6_channels // config.num_cores)
        return config.evolve(num_cores=1, gddr6_channels=channels)

    # ------------------------------------------------------------------
    def simulate_workload(self, workload: str, batch_size: Optional[int] = None) -> SimulationResult:
        """Build a registered workload at the design's native batch and simulate it."""
        batch = batch_size or self.config.native_batch_size
        graph = build_workload(workload, batch_size=batch)
        return self.simulate(graph)

    def simulate(self, graph: Graph) -> SimulationResult:
        """Simulate a prepared graph (already at the desired batch size).

        The region walk is a gather -> batch-map -> scatter pipeline:
        :meth:`gather_map_entry` looks every region up in the region cache
        and collects the matrix ops of the rest, the fast engine prices them
        in ONE stacked candidate sweep
        (:meth:`~repro.mapping.mapper.Mapper.map_ops_batch`), and the
        per-region evaluation then just scatters the pre-mapped costs.  The
        scalar engine skips the sweep and maps op by op inside the region
        walk; both engines, and a cold or warm region cache, produce the
        identical result.

        Region-cache entries go into the result as they are, and freshly
        evaluated ones are cached without a copy: records are read-only, and
        the post-fusion view comes from the (possibly memoized) fusion result.
        """
        core = self._core_config
        with _tracer().span("compile", category="simulate"):
            compiled = _compile_cached(graph, core.use_two_pass_softmax)
        dram_bpc = core.dram_bytes_per_cycle

        region_cache = self.region_cache
        region_keys, prefix, cached_entries, gather_ops = self.gather_map_entry(
            graph, compiled
        )
        premapped: Optional[Dict[str, OpCost]] = None
        if self._batched and gather_ops:
            with _tracer().span(
                "batch_map", category="simulate", num_ops=len(gather_ops)
            ):
                started = time.perf_counter()
                premapped = self.mapper.map_ops_batch(gather_ops, graph.tensors)
                self.stage_seconds["mapper"] += time.perf_counter() - started

        region_perf: List[RegionPerformance] = []
        region_stats: List[RegionStats] = []
        producer_region: Dict[str, int] = {}
        schedule_failed = False

        with _tracer().span("regions", category="simulate") as region_span:
            for position, region in enumerate(compiled.regions):
                entry = cached_entries[position]
                if entry is not None:
                    if entry[0] is None:
                        schedule_failed = True
                        break
                    record, stats = entry
                else:
                    record, stats = self._evaluate_region(
                        compiled, region, dram_bpc, producer_region, premapped
                    )
                    if region_cache is not None:
                        region_cache.put(
                            region_keys[position],
                            (None,) if record is None else (record, stats),
                            prefix,
                        )
                    if record is None:
                        schedule_failed = True
                        break
                region_perf.append(record)
                region_stats.append(stats)
                for tensor_name in region.output_tensors:
                    producer_region[tensor_name] = region.index
            region_span.set_attr("regions", len(compiled.regions))
            if region_cache is not None:
                hits = sum(1 for entry in cached_entries if entry is not None)
                region_span.set_attr("region_cache_hits", hits)
                region_span.set_attr("region_cache_misses", len(cached_entries) - hits)

        fusion_result: Optional[FusionResult] = None
        fusion_enabled = (
            self.options.enable_fast_fusion
            if self.options.enable_fast_fusion is not None
            else core.enable_fast_fusion
        )
        if (
            fusion_enabled
            and not schedule_failed
            and core.l3_global_buffer_mib > 0
            and region_stats
        ):
            memo_key = (
                core.global_buffer_bytes,
                self.options.fusion_solver,
                tuple(region_stats),
            )
            fusion_result = _fusion_memo_get(memo_key)
            if fusion_result is None:
                optimizer = FastFusionOptimizer(
                    gm_capacity_bytes=core.global_buffer_bytes,
                    solver=self.options.fusion_solver,
                )
                with _tracer().span(
                    "fusion", category="simulate", regions=len(region_stats)
                ):
                    started = time.perf_counter()
                    fusion_result = optimizer.optimize(region_stats)
                    self.stage_seconds["fusion"] += time.perf_counter() - started
                _fusion_memo_put(memo_key, fusion_result)

        return SimulationResult(
            workload=graph.name,
            config=self.config,
            batch_size=graph.batch_size,
            regions=region_perf,
            fusion_result=fusion_result,
            schedule_failed=schedule_failed,
            clock_ghz=core.clock_ghz,
            num_cores=self.config.num_cores,
        )

    # ------------------------------------------------------------------
    def gather_map_entry(self, graph: Graph, compiled: CompiledModel):
        """Gather half of :meth:`simulate` for one compiled graph.

        Builds the graph's region keys once, looks every region up with an
        accounted :meth:`~repro.runtime.opcache.RegionCostCache.get`, and
        collects the matrix ops of every region the cache cannot serve.
        Returns ``(keys, prefix, entries, ops)``: the region keys and their
        prefix (``None`` without a region cache), each region's cached entry
        or ``None``, and the matrix ops left to map.
        """
        regions = compiled.regions
        region_cache = self.region_cache
        keys: Optional[List[Tuple]] = None
        prefix: Optional[str] = None  # canonical JSON of the region keys' base
        entries: List[Optional[tuple]] = [None] * len(regions)
        if region_cache is not None:
            key_base = self._region_key_base(graph, compiled)
            keys = [key_base + (region.index,) for region in regions]
            prefix = region_cache.key_prefix(key_base)
            entries = [region_cache.get(key, prefix) for key in keys]
        ops = [
            op
            for region, entry in zip(regions, entries)
            if entry is None
            for op in region.matrix_ops
        ]
        return keys, prefix, entries, ops

    # ------------------------------------------------------------------
    def _region_key_base(self, graph: Graph, compiled: CompiledModel) -> Tuple:
        """Region-cache key prefix: everything region results depend on.

        The graph fingerprint pins the region structure and every tensor
        shape; the mapper config key pins all mapping-relevant datapath
        knobs; the remaining components cover the vector-op cost model (VPU
        lanes, softmax lowering), the DRAM traffic conversion, and the
        Global-Memory blocking headroom used for fusion statistics.  Engine
        selection is deliberately excluded — both engines are bit-for-bit
        equivalent.
        """
        core = self._core_config
        factors = compiled.softmax_factors
        return (
            graph.fingerprint(),
            core.use_two_pass_softmax,
            self.mapper.mapping_config_key(),
            core.dram_bytes_per_cycle,
            vpu_lanes_per_core(core),
            factors.input_traffic_factor,
            factors.output_traffic_factor,
            factors.flops_factor,
            core.l1_total_bytes + core.l2_total_bytes,
        )

    # ------------------------------------------------------------------
    def _evaluate_region(
        self,
        compiled: CompiledModel,
        region: FusionRegion,
        dram_bpc: float,
        producer_region: Dict[str, int],
        premapped: Optional[Dict[str, OpCost]] = None,
    ):
        """Cost one fusion region; returns (RegionPerformance, RegionStats).

        ``premapped`` carries the scatter half of the graph-batched pipeline:
        matrix-op costs already computed by the trial-wide batched sweep.
        Ops absent from it (every op, on the scalar engine) are mapped by
        :meth:`~repro.mapping.mapper.Mapper.map_op`.
        """
        graph = compiled.graph
        tensors = graph.tensors
        core = self._core_config

        matrix_costs: List[OpCost] = []
        anchor_cost: Optional[OpCost] = None
        vector_costs: List[OpCost] = []
        op_busy_cycles: Dict[str, float] = {}
        op_cache = self.op_cache
        stage_seconds = self.stage_seconds
        for op in region.ops:
            if is_matrix_op(op.op_type):
                started = time.perf_counter()
                cost = premapped.get(op.name) if premapped is not None else None
                if cost is None:
                    cost = self.mapper.map_op(op, tensors)
                stage_seconds["mapper"] += time.perf_counter() - started
                if cost.schedule_failed:
                    return None, None
                matrix_costs.append(cost)
                op_busy_cycles[op.name] = cost.compute_cycles
                if region.matrix_op is not None and op.name == region.matrix_op.name:
                    anchor_cost = cost
            else:
                started = time.perf_counter()
                cost = None
                if op_cache is not None:
                    vector_key = vector_cost_cache_key(
                        graph, op, core, compiled.softmax_factors
                    )
                    cost = op_cache.get(vector_key)
                if cost is None:
                    cost = vector_op_cost(op, tensors, core, compiled.softmax_factors)
                    if op_cache is not None:
                        op_cache.put(vector_key, cost)
                stage_seconds["vector"] += time.perf_counter() - started
                vector_costs.append(cost)
                op_busy_cycles[op.name] = cost.vector_cycles
        if anchor_cost is None and matrix_costs:
            anchor_cost = matrix_costs[0]

        compute_cycles = sum(c.compute_cycles for c in matrix_costs)
        vector_cycles = sum(c.vector_cycles for c in vector_costs)
        flops = sum(c.flops for c in matrix_costs) + sum(c.flops for c in vector_costs)

        # --- DRAM traffic attribution -----------------------------------
        # Each matrix op's mapping may re-read its operands (traffic
        # amplification); record a per-tensor multiplier so region-external
        # tensors feeding a matrix op are charged the amplified traffic.
        matrix_inputs: set = set()
        input_amp_by_tensor: Dict[str, float] = {}
        weight_amp_by_tensor: Dict[str, float] = {}
        for matrix_op, cost in zip(region.matrix_ops, matrix_costs):
            matrix_inputs.update(matrix_op.inputs)
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

        softmax_ops = {
            op.name for op in region.ops if op.op_type is OpType.SOFTMAX
        }
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
        # Partial-sum spill traffic from the matrix ops, if a mapping tiled
        # the reduction beyond on-chip capacity (counted even when the matrix
        # output itself stays inside the region).
        for matrix_op, cost in zip(region.matrix_ops, matrix_costs):
            matrix_out_bytes = sum(tensors[t].size_bytes for t in matrix_op.outputs)
            output_traffic += max(0.0, cost.dram_output_bytes - matrix_out_bytes)

        # Within a fused region the vector ops execute as the matrix op's
        # epilogue, consuming results as they stream out of the systolic
        # array, so the region's busy time is the longer of the two engines
        # rather than their sum.
        busy_cycles = max(compute_cycles, vector_cycles)
        total_traffic = input_traffic + weight_traffic + output_traffic
        dram_cycles = total_traffic / dram_bpc if dram_bpc > 0 else 0.0
        pre_fusion_cycles = max(busy_cycles, dram_cycles)

        primary_type = (
            region.matrix_op.op_type
            if region.matrix_op is not None
            else self._dominant_vector_type(region)
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

        # --- Fusion statistics -------------------------------------------
        predecessor = None
        if region.input_tensors:
            largest_input = max(
                region.input_tensors, key=lambda t: tensors[t].size_bytes
            )
            predecessor = producer_region.get(largest_input)
        blocking_gm = 0
        if anchor_cost is not None and anchor_cost.tiling is not None:
            onchip_without_gm = (
                self._core_config.l1_total_bytes + self._core_config.l2_total_bytes
            )
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

    @staticmethod
    def _dominant_vector_type(region: FusionRegion) -> OpType:
        """Primary op type of a region with no matrix op."""
        if not region.ops:
            return OpType.ELEMENTWISE_ADD
        preferred = (OpType.SOFTMAX, OpType.LAYERNORM, OpType.POOLING, OpType.REDUCE)
        for op_type in preferred:
            for op in region.ops:
                if op.op_type is op_type:
                    return op_type
        return region.ops[0].op_type
