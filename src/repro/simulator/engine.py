"""Whole-graph accelerator simulator.

The simulator evaluates a workload graph on a datapath configuration using
the same three-stage flow as the paper (Figure 1): matrix ops are scheduled
by the Timeloop-style mapper, vector ops are costed on the VPU, per-region
pre-fusion performance is assembled, and — when the datapath has a Global
Memory and fusion is enabled — the FAST fusion ILP assigns tensors to the
Global Memory and post-fusion performance is produced.

Compiling a graph also builds, once, a plan per fusion region
(:class:`_RegionPlan`) of every fact that depends on the graph alone, such as
operand sizes and softmax traffic, so costing a region for a trial is
arithmetic over its plan and that trial's op costs.  Models repeat blocks
(bert-seq128's 97 regions have 7 shapes), so a *twin*, a region repeating an
earlier one's every cost input, shares the records of its *first-of-shape*
region by reference and is never mapped, looked up or cached itself.  Its own
view, under its own identity, is built only when a report or the fusion
solver reads it, and the fusion memo keys on one stats record per shape.

Multi-core chips (the dual-core TPU-v3 baseline) are modeled by simulating a
single core with its share of the DRAM bandwidth and multiplying throughput
by the core count, matching the paper's treatment of each TPU-v3 core as a
separate accelerator serving its own batch.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.compiler.passes import CompiledModel, compile_graph
from repro.compiler.softmax import SoftmaxCostFactors
from repro.compiler.xla_fusion import FusionRegion
from repro.fusion.fast_fusion import FastFusionOptimizer, FusionResult, RegionStats
from repro.hardware.datapath import DatapathConfig
from repro.hardware.memory import MemoryHierarchy
from repro.mapping.costmodel import OpCost
from repro.mapping.mapper import Mapper, MapperOptions
from repro.simulator.result import RegionPerformance, SimulationResult
from repro.simulator.vector_ops import vector_cost_cache_key, vector_op_cost, vpu_lanes_per_core
from repro.workloads.graph import Graph, Operation, Tensor, TensorKind
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


@dataclass(frozen=True)
class _RegionPlan:
    """What evaluating one fusion region needs from the graph alone.

    Built by :func:`_region_plans` once per compiled graph.  A ``source``
    indexes the last matrix op reading the tensor, whose traffic
    amplification applies; an input without one costs ``term``.  The
    predecessor is fixed because :meth:`Simulator.simulate` visits regions
    in order and stops at the first that fails to schedule.

    ``twin`` is the position of the earliest region with an equal signature,
    or ``None``.  The signature is every cost input: ``matrix_bytes``,
    ``inputs``, ``weights``, ``output_traffic``, the three byte totals, the op
    types, and each op's operand shapes, dtypes and kinds and its attrs.
    Names, the index, the predecessor and ``is_graph_output`` are identity: a
    simulation holds a twin's first-of-shape region's records, and a twin's
    view takes that identity from its plan.
    """

    index: int
    name: str
    ops: Tuple[Tuple[Operation, bool], ...]  # member ops in order, with their matrix flag
    matrix_ops: Tuple[Operation, ...]
    matrix_bytes: Tuple[Tuple[int, int, int], ...]  # activation, weight, output bytes
    inputs: Tuple[Tuple[int, Optional[int], float], ...]  # input tensors' (size, source, term)
    weights: Tuple[Tuple[int, Optional[int]], ...]  # weight tensors' (size, source)
    output_traffic: float  # output tensors' bytes, softmax outputs' times their factor
    op_names: List[str]
    primary_op_type: OpType
    input_bytes: int
    weight_bytes: int
    output_bytes: int
    is_graph_output: bool
    predecessor: Optional[int]  # the region writing the largest input
    twin: Optional[int] = None  # the first-of-shape region's position, if this repeats it


_Plans = Tuple[_RegionPlan, ...]


def _region_plans(compiled: CompiledModel) -> Iterator[_RegionPlan]:
    """One :class:`_RegionPlan` per region of ``compiled``, in region order."""
    graph = compiled.graph
    tensors = graph.tensors
    size = {name: tensor.size_bytes for name, tensor in tensors.items()}
    in_factor = compiled.softmax_factors.input_traffic_factor
    out_factor = compiled.softmax_factors.output_traffic_factor
    producer: Dict[str, int] = {}  # tensor -> the region writing it
    # Operands are compared only between regions whose plan facts match: the
    # first region with some facts is keyed by its operands when a second
    # one arrives.
    unkeyed: Dict[tuple, Optional[Tuple[int, FusionRegion]]] = {}
    first_of_shape: Dict[tuple, int] = {}  # signature -> its first region's position
    for position, region in enumerate(compiled.regions):
        ops = tuple((op, is_matrix_op(op.op_type)) for op in region.ops)
        matrix_ops = tuple(op for op, is_matrix in ops if is_matrix)
        sources = {t: j for j, op in enumerate(matrix_ops) for t in op.inputs}  # last one wins
        softmax_ops = [op for op in region.ops if op.op_type is OpType.SOFTMAX]
        softmax_inputs = {t for op in softmax_ops for t in op.inputs}
        softmax_outputs = {t for op in softmax_ops for t in op.outputs}
        output_traffic = 0.0
        for t in region.output_tensors:
            output_traffic += size[t] * out_factor if t in softmax_outputs else size[t]
        predecessor = producer.get(max(region.input_tensors, key=size.__getitem__, default=None))
        producer.update(dict.fromkeys(region.output_tensors, region.index))
        plan = _RegionPlan(
            index=region.index,
            name=region.name,
            ops=ops,
            matrix_ops=matrix_ops,
            matrix_bytes=tuple(
                (sum(size[t] for t in op.inputs if tensors[t].kind is TensorKind.ACTIVATION),
                 sum(size[t] for t in op.inputs if tensors[t].kind is not TensorKind.ACTIVATION),
                 sum(size[t] for t in op.outputs))
                for op in matrix_ops
            ),
            inputs=tuple(
                (size[t], sources.get(t), size[t] * in_factor if t in softmax_inputs else size[t])
                for t in region.input_tensors
            ),
            weights=tuple((size[t], sources.get(t)) for t in region.weight_tensors),
            output_traffic=output_traffic,
            op_names=[op.name for op in region.ops],
            primary_op_type=_primary_op_type(region),
            input_bytes=int(region.input_bytes(graph)),
            weight_bytes=int(region.weight_bytes(graph)),
            output_bytes=int(region.output_bytes(graph)),
            is_graph_output=any(t in graph.output_names for t in region.output_tensors),
            predecessor=predecessor,
        )
        facts = (
            tuple(op.op_type.value for op in region.ops), plan.matrix_bytes, plan.inputs,
            plan.weights, output_traffic, plan.input_bytes, plan.weight_bytes, plan.output_bytes,
        )
        earlier = unkeyed.setdefault(facts, (position, region))
        if earlier is None or earlier[0] != position:  # another region has these facts
            if earlier is not None:
                first_of_shape[facts, _operands(earlier[1], tensors)] = earlier[0]
                unkeyed[facts] = None
            twin = first_of_shape.setdefault((facts, _operands(region, tensors)), position)
            if twin != position:
                plan = replace(plan, twin=twin)
        yield plan


def _operands(region: FusionRegion, tensors: Dict[str, Tensor]) -> tuple:
    """Each op's operands' (shape, dtype, kind) and its attrs, canonicalized
    as :meth:`~repro.workloads.graph.Graph.fingerprint` does.  Enum values,
    not members, keep the tuple cheap to hash.
    """

    def described(names):
        return tuple((tensors[t].shape, tensors[t].dtype.value, tensors[t].kind.value) for t in names)

    return tuple(
        (described(op.inputs), described(op.outputs),
         tuple(sorted((k, str(v)) for k, v in op.attrs.items())))
        for op in region.ops
    )


def _primary_op_type(region: FusionRegion) -> OpType:
    """A region's matrix-op type, or with no matrix op its dominant vector type."""
    if region.matrix_op is not None:
        return region.matrix_op.op_type
    if not region.ops:
        return OpType.ELEMENTWISE_ADD
    preferred = (OpType.SOFTMAX, OpType.LAYERNORM, OpType.POOLING, OpType.REDUCE)
    for op_type in preferred:
        for op in region.ops:
            if op.op_type is op_type:
                return op_type
    return region.ops[0].op_type


class _HashOnce(tuple):
    """A tuple that hashes once, when built, and compares as a tuple.

    A graph's layout is one (:func:`_layout`), and so is each fusion-memo
    key: the memo's lookup, then its ``move_to_end`` or insert, reuse the
    key's hash instead of hashing every first-of-shape ``RegionStats`` again.
    """

    def __new__(cls, items: Iterable) -> "_HashOnce":
        built = super().__new__(cls, items)
        built._hash = tuple.__hash__(built)
        return built

    def __hash__(self) -> int:
        return self._hash


def _layout(plans: _Plans) -> _HashOnce:
    """Each region's identity and twin position, from a graph's plans.

    The fusion memo keys on it with the first-of-shape regions' stats, which
    together fix every region's stats: a twin's are its first-of-shape
    region's numbers under its own index, name, predecessor and graph-output
    flag.  Graphs planned alike share memo entries (efficientnet-b0's plans
    are equal under both softmax lowerings).
    """
    return _HashOnce(
        (plan.index, plan.name, plan.input_bytes, plan.weight_bytes, plan.output_bytes,
         plan.predecessor, plan.is_graph_output, plan.twin)
        for plan in plans
    )


# ---------------------------------------------------------------------------
# Compiled-graph cache.  Lowering a graph into fusion regions, planning each
# region and laying out the plans for the fusion memo is identical for every
# trial that simulates the same graph object with the same softmax lowering,
# so all three are memoized per process, in one entry.  Entries are keyed by
# object identity + op count (guarding against post-build mutation); the
# stored strong reference keeps ids stable, so entries inherited across a
# fork stay valid — fork-started executor workers begin life with the
# parent's warm compiled graphs and plans instead of rebuilding them.
# ---------------------------------------------------------------------------
_COMPILED_CACHE: Dict[Tuple[int, bool], Tuple[Graph, int, CompiledModel, _Plans, _HashOnce]] = {}
_COMPILED_CACHE_MAX = 64


def _compiled_entry(graph: Graph, use_two_pass_softmax: bool) -> Tuple[CompiledModel, _Plans, _HashOnce]:
    """The graph's compiled model, plans and layout, from the compiled-graph cache."""
    key = (id(graph), use_two_pass_softmax)
    entry = _COMPILED_CACHE.get(key)
    if entry is None or entry[0] is not graph or entry[1] != len(graph):
        compiled = compile_graph(graph, use_two_pass_softmax=use_two_pass_softmax)
        plans = tuple(_region_plans(compiled))
        entry = (graph, len(graph), compiled, plans, _layout(plans))
        _COMPILED_CACHE[key] = entry
        while len(_COMPILED_CACHE) > _COMPILED_CACHE_MAX:
            _COMPILED_CACHE.pop(next(iter(_COMPILED_CACHE)))
    return entry[2:]


def _compile_with_plans(graph: Graph, use_two_pass_softmax: bool) -> Tuple[CompiledModel, _Plans]:
    return _compiled_entry(graph, use_two_pass_softmax)[:2]


def _compile_cached(graph: Graph, use_two_pass_softmax: bool) -> CompiledModel:
    return _compile_with_plans(graph, use_two_pass_softmax)[0]


def precompile_graph(graph: Graph, use_two_pass_softmax: bool = False) -> None:
    """Warm the compiled-graph cache for one graph (worker/service warm-up)."""
    _compiled_entry(graph, use_two_pass_softmax)


def clear_compiled_cache() -> None:
    """Drop all memoized compiled graphs and fusion results (tests, memory-sensitive runs)."""
    _COMPILED_CACHE.clear()
    _FUSION_MEMO.clear()


# ---------------------------------------------------------------------------
# Fusion memo.  A fusion solve is a pure function of (GM capacity, solver,
# region stats), and a search keeps proposing datapaths whose regions and
# Global Memory repeat, so recent solves are memoized in a small LRU.  The
# key holds the stats of first-of-shape regions only, with the graph's
# layout, which fixes the twins' stats from them: it hashes bert-seq128's 7
# shapes, not its 97 regions, once per lookup (a _HashOnce), and hits
# exactly when the full list repeats.
# Its FusionResults are shared read-only by every SimulationResult that hits
# them.  The bound is fixed: an unbounded memo grows with every distinct
# datapath a search visits and measurably raises a long search's peak RSS,
# while 64 recent solves already catch nearly all of the repeats.
# ---------------------------------------------------------------------------
_FUSION_MEMO: "OrderedDict[_HashOnce, FusionResult]" = OrderedDict()
_FUSION_MEMO_MAX = 64


def _fusion_memo_get(key: _HashOnce) -> Optional[FusionResult]:
    result = _FUSION_MEMO.get(key)
    if result is not None:
        _FUSION_MEMO.move_to_end(key)
    return result


def _fusion_memo_put(key: _HashOnce, result: FusionResult) -> None:
    _FUSION_MEMO[key] = result
    if len(_FUSION_MEMO) > _FUSION_MEMO_MAX:
        _FUSION_MEMO.popitem(last=False)


class Simulator:
    """Evaluates workloads on a datapath configuration.

    Each stage runs inside a tracer span: ``compile``, ``batch_map``,
    ``regions``, ``fusion``, and per op on a region miss ``map_op`` (scalar
    engine) and ``vector_op`` (op-cache miss).  ``repro profile`` builds its
    stage columns from those spans' totals.  A first-of-shape region the
    region cache cannot serve is priced from its :class:`_RegionPlan` (built
    once per compiled graph) and the trial's op costs.  A twin takes its
    first-of-shape region's records, so only first-of-shape regions reach the
    mapper, the VPU cost model, the region cache and its stores.

    Results share rather than copy: a region-cache hit puts the cached
    :class:`~repro.simulator.result.RegionPerformance` and
    :class:`~repro.fusion.fast_fusion.RegionStats` themselves into the
    result, a twin's entries are its first-of-shape region's objects (the
    result builds a twin's own view only when it is read), every record of a
    region shares its plan's ``op_names`` list, and a repeated fusion input
    returns the memoized :class:`~repro.fusion.fast_fusion.FusionResult`.
    None of them is ever modified after it is built, which is what makes
    sharing them exact.
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
        self._vpu_lanes = vpu_lanes_per_core(self._core_config)
        self._onchip_bytes = self._core_config.l1_total_bytes + self._core_config.l2_total_bytes

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
        :meth:`gather_map_entry` looks first-of-shape regions up in the
        region cache and collects the matrix ops of the misses, the fast
        engine prices them in ONE stacked candidate sweep
        (:meth:`~repro.mapping.mapper.Mapper.map_ops_batch`), and the
        per-region evaluation then just scatters the pre-mapped costs.  The
        scalar engine skips the sweep and maps op by op inside the region
        walk; both engines, and a cold or warm region cache, produce the
        identical result.  A twin appends its first-of-shape region's records
        in the walk.

        Region-cache entries go into the result as they are, and freshly
        evaluated ones are cached without a copy: records are read-only, and
        the post-fusion view comes from the (possibly memoized) fusion result.
        Only a fusion-memo miss builds the twins' own stats, for the solver.
        """
        core = self._core_config
        with _tracer().span("compile", category="simulate"):
            compiled, plans, layout = _compiled_entry(graph, core.use_two_pass_softmax)
        dram_bpc = core.dram_bytes_per_cycle
        fingerprint = graph.fingerprint()
        # ``Graph.tensors`` is a copy: fetch it once, and only to cost an op.
        graph_tensors = functools.cache(lambda: graph.tensors)

        region_cache = self.region_cache
        region_keys, prefix, cached_entries, gather_ops = self.gather_map_entry(
            graph, compiled, plans
        )
        premapped: Optional[Dict[str, OpCost]] = None
        if self._batched and gather_ops:
            with _tracer().span(
                "batch_map", category="simulate", num_ops=len(gather_ops)
            ):
                premapped = self.mapper.map_ops_batch(gather_ops, graph_tensors())

        records: List[RegionPerformance] = []
        region_stats: List[RegionStats] = []
        shape_stats: List[RegionStats] = []  # first-of-shape regions' only
        schedule_failed = False

        with _tracer().span("regions", category="simulate") as region_span:
            for plan in plans:
                if plan.twin is not None:
                    # Its first-of-shape region came earlier and scheduled,
                    # or the walk would have stopped there.
                    records.append(records[plan.twin])
                    region_stats.append(region_stats[plan.twin])
                    continue
                shape = len(shape_stats)
                entry = cached_entries[shape]
                if entry is not None:
                    if entry[0] is None:
                        schedule_failed = True
                        break
                    record, stats = entry
                else:
                    record, stats = self._evaluate_region(
                        plan, fingerprint, compiled.softmax_factors, dram_bpc, graph_tensors,
                        premapped
                    )
                    if region_cache is not None:
                        region_cache.put(
                            region_keys[shape],
                            (None,) if record is None else (record, stats),
                            prefix,
                        )
                    if record is None:
                        schedule_failed = True
                        break
                records.append(record)
                region_stats.append(stats)
                shape_stats.append(stats)
            region_span.set_attr("regions", len(plans))
            if region_cache is not None:
                hits = sum(1 for entry in cached_entries if entry is not None)
                region_span.set_attr("region_cache_hits", hits)
                region_span.set_attr("region_cache_misses", len(cached_entries) - hits)

        result = SimulationResult(
            workload=graph.name,
            config=self.config,
            batch_size=graph.batch_size,
            records=records,
            stats=region_stats,
            plans=plans,
            fusion_result=None,
            schedule_failed=schedule_failed,
            clock_ghz=core.clock_ghz,
            num_cores=self.config.num_cores,
        )
        fusion_enabled = (
            self.options.enable_fast_fusion
            if self.options.enable_fast_fusion is not None
            else core.enable_fast_fusion
        )
        if fusion_enabled and not schedule_failed and core.l3_global_buffer_mib > 0 and records:
            memo_key = _HashOnce((
                core.global_buffer_bytes,
                self.options.fusion_solver,
                layout,
                tuple(shape_stats),
            ))
            result.fusion_result = _fusion_memo_get(memo_key)
            if result.fusion_result is None:
                optimizer = FastFusionOptimizer(
                    gm_capacity_bytes=core.global_buffer_bytes,
                    solver=self.options.fusion_solver,
                )
                with _tracer().span("fusion", category="simulate", regions=len(records)):
                    result.fusion_result = optimizer.optimize(result.region_stats)
                _fusion_memo_put(memo_key, result.fusion_result)
        return result

    # ------------------------------------------------------------------
    def gather_map_entry(self, graph: Graph, compiled: CompiledModel, plans: _Plans):
        """Gather half of :meth:`simulate` for one compiled graph.

        Twins are never looked up: for the first-of-shape regions only, in
        order, builds the region keys, looks each up with an accounted
        :meth:`~repro.runtime.opcache.RegionCostCache.get`, and collects, from
        the plans, the matrix ops of each one the cache cannot serve.
        Returns ``(keys, prefix, entries, ops)``: those regions' keys and the
        keys' prefix (``None`` without a region cache), each one's cached
        entry or ``None``, and the ops to map.
        """
        region_cache = self.region_cache
        shapes = [plan for plan in plans if plan.twin is None]
        keys: Optional[List[Tuple]] = None
        prefix: Optional[str] = None  # canonical JSON of the region keys' base
        entries: List[Optional[tuple]] = [None] * len(shapes)
        if region_cache is not None:
            key_base = self._region_key_base(graph, compiled)
            keys = [key_base + (plan.index,) for plan in shapes]
            prefix = region_cache.key_prefix(key_base)
            entries = [region_cache.get(key, prefix) for key in keys]
        ops = [op for plan, entry in zip(shapes, entries) if entry is None for op in plan.matrix_ops]
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
            self._vpu_lanes,
            factors.input_traffic_factor,
            factors.output_traffic_factor,
            factors.flops_factor,
            self._onchip_bytes,
        )

    # ------------------------------------------------------------------
    def _evaluate_region(
        self,
        plan: _RegionPlan,
        fingerprint: str,
        factors: SoftmaxCostFactors,
        dram_bpc: float,
        graph_tensors: Callable[[], Dict[str, Tensor]],
        premapped: Optional[Dict[str, OpCost]] = None,
    ):
        """Cost one fusion region; returns (RegionPerformance, RegionStats).

        Arithmetic over the region's :class:`_RegionPlan` (built once per
        compiled graph) and the trial's op costs, taken in region order.
        ``premapped`` holds the matrix-op costs of the trial-wide batched
        sweep (the scatter half of the graph-batched pipeline); ops absent
        from it (every op, on the scalar engine) are mapped by
        :meth:`~repro.mapping.mapper.Mapper.map_op`.  A matrix op that fails
        to schedule returns ``(None, None)`` before any later op is costed.
        """
        matrix_costs: List[OpCost] = []
        vector_costs: List[OpCost] = []
        op_busy_cycles: Dict[str, float] = {}
        op_cache = self.op_cache
        for op, is_matrix in plan.ops:
            if is_matrix:
                cost = premapped.get(op.name) if premapped is not None else None
                if cost is None:
                    with _tracer().span("map_op", category="simulate"):
                        cost = self.mapper.map_op(op, graph_tensors())
                if cost.schedule_failed:
                    return None, None
                matrix_costs.append(cost)
                op_busy_cycles[op.name] = cost.compute_cycles
            else:
                cost = None
                if op_cache is not None:
                    vector_key = vector_cost_cache_key(
                        fingerprint, op.name, self._vpu_lanes, factors
                    )
                    cost = op_cache.get(vector_key)
                if cost is None:
                    with _tracer().span("vector_op", category="simulate"):
                        cost = vector_op_cost(op, graph_tensors(), self._core_config, factors)
                    if op_cache is not None:
                        op_cache.put(vector_key, cost)
                vector_costs.append(cost)
                op_busy_cycles[op.name] = cost.vector_cycles
        # The anchor is the first matrix op: the partitioner starts a region
        # with its matrix_op, and a region without one anchors on it too.
        anchor_cost = matrix_costs[0] if matrix_costs else None

        compute_cycles = sum(c.compute_cycles for c in matrix_costs)
        vector_cycles = sum(c.vector_cycles for c in vector_costs)
        flops = sum(c.flops for c in matrix_costs) + sum(c.flops for c in vector_costs)

        # --- DRAM traffic attribution -----------------------------------
        # A matrix op's mapping may re-read its operands (amplification),
        # charged on the region-external tensors it reads, and may spill
        # partial sums beyond on-chip capacity, charged as output traffic
        # even when the matrix output itself stays inside the region.
        input_amps, weight_amps = [], []
        output_traffic = plan.output_traffic
        for (act_bytes, w_bytes, out_bytes), cost in zip(plan.matrix_bytes, matrix_costs):
            input_amps.append(max(1.0, cost.dram_input_bytes / act_bytes) if act_bytes else 1.0)
            weight_amps.append(max(1.0, cost.dram_weight_bytes / w_bytes) if w_bytes else 1.0)
            output_traffic += max(0.0, cost.dram_output_bytes - out_bytes)
        input_traffic = 0.0
        for size, source, term in plan.inputs:
            input_traffic += term if source is None else size * input_amps[source]
        weight_traffic = 0.0
        for size, source in plan.weights:
            weight_traffic += size * (1.0 if source is None else weight_amps[source])

        # Within a fused region the vector ops execute as the matrix op's
        # epilogue, consuming results as they stream out of the systolic
        # array, so the region's busy time is the longer of the two engines
        # rather than their sum.
        busy_cycles = max(compute_cycles, vector_cycles)
        total_traffic = input_traffic + weight_traffic + output_traffic
        dram_cycles = total_traffic / dram_bpc if dram_bpc > 0 else 0.0
        pre_fusion_cycles = max(busy_cycles, dram_cycles)

        record = RegionPerformance(
            index=plan.index,
            name=plan.name,
            op_names=plan.op_names,
            primary_op_type=plan.primary_op_type,
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
        blocking_gm = 0
        if anchor_cost is not None and anchor_cost.tiling is not None:
            blocking_gm = max(0, anchor_cost.tiling.buffer_bytes(2) - self._onchip_bytes)

        stats = RegionStats(
            index=plan.index,
            name=plan.name,
            busy_cycles=busy_cycles,
            t_max_cycles=pre_fusion_cycles,
            input_dram_cycles=input_traffic / dram_bpc if dram_bpc > 0 else 0.0,
            weight_dram_cycles=weight_traffic / dram_bpc if dram_bpc > 0 else 0.0,
            output_dram_cycles=output_traffic / dram_bpc if dram_bpc > 0 else 0.0,
            input_bytes=plan.input_bytes,
            weight_bytes=plan.weight_bytes,
            output_bytes=plan.output_bytes,
            blocking_gm_bytes=blocking_gm,
            predecessor=plan.predecessor,
            is_graph_output=plan.is_graph_output,
        )
        return record, stats
