"""Timeloop-style mapper: schedules matrix ops onto the datapath.

For each matrix op the mapper
(1) lowers it to a canonical GEMM-like problem,
(2) applies the tensor padding pre-pass,
(3) checks structural schedulability (minimum scratchpad sizes),
(4) searches a pruned mapspace of dataflows x tilings, estimating compute
    cycles and DRAM traffic for each candidate, and
(5) returns the best mapping as an :class:`~repro.mapping.costmodel.OpCost`.

This replaces the Timeloop invocation used by the paper's simulator; the
search is deliberately small (a few dozen candidates per op) because the
datapath template constrains the mapspace to known-good mapping schemes,
exactly as Vizier does in the paper (Section 5.3).

Step (4) has two engines that return bit-for-bit identical costs:
:meth:`Mapper.map_op` runs the scalar reference loop one op at a time, and
:meth:`Mapper.map_ops_batch` — the fast engine the simulator uses — prices
every op a trial needs mapped in one stacked NumPy pass.  Both read and fill
the optional shared :class:`~repro.runtime.opcache.OpCostCache`, the one
memo of mapped costs across calls; the memos below hold only lowered
problems and their candidate grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.datapath import BufferConfig, DatapathConfig
from repro.hardware.memory import MemoryHierarchy
from repro.mapping.costmodel import OpCost
from repro.mapping.dataflow import Dataflow, SpatialMapping, spatial_mapping
from repro.mapping.loopnest import MatrixProblem, extract_problem
from repro.mapping.padding import pad_problem
from repro.mapping.tiling import (
    Tiling,
    candidate_tilings,
    estimate_traffic,
    estimate_traffic_batch_ops,
    stack_candidate_grids,
    tiling_candidate_arrays,
)
from repro.workloads.graph import Operation, Tensor
from repro.workloads.ops import is_matrix_op

__all__ = ["Mapper", "MapperOptions"]

# Lazily resolved tracer accessor (a module-level telemetry import would pull
# in ``repro.runtime`` mid-init through packages that import this module).
_get_tracer = None


def _tracer():
    global _get_tracer
    if _get_tracer is None:
        from repro.runtime.telemetry import get_tracer

        _get_tracer = get_tracer
    return _get_tracer()

_DTYPE_BYTES = 2  # bfloat16 throughout, matching the paper's evaluation.
_MIN_STREAM_CHUNK = 128  # Minimum rows per PE when splitting the streamed dim.

# Problem extraction is pure and ops belong to immutable built graphs, so the
# lowered MatrixProblem is memoized per op object across Mapper instances
# (every trial builds a fresh Mapper but maps the same cached graphs).  Keys
# are object ids; the stored strong reference both validates identity and
# prevents id reuse.  The memo is cleared wholesale when it overflows.
_PROBLEM_MEMO: Dict[int, Tuple[Operation, MatrixProblem]] = {}
_PROBLEM_MEMO_MAX = 16384


def _memoized_problem(op: Operation, tensors: Dict[str, Tensor]) -> MatrixProblem:
    entry = _PROBLEM_MEMO.get(id(op))
    if entry is not None and entry[0] is op:
        return entry[1]
    problem = extract_problem(op, tensors)
    if len(_PROBLEM_MEMO) >= _PROBLEM_MEMO_MAX:
        _PROBLEM_MEMO.clear()
    _PROBLEM_MEMO[id(op)] = (op, problem)
    return problem


class _DataflowPlan(NamedTuple):
    """Dataflow-dependent but candidate-independent pieces of one search."""

    mapping: SpatialMapping
    compute_cycles: float
    rounded_cycles: float


class _PreparedProblem(NamedTuple):
    """Padded problem + candidate grid + per-dataflow plans, memoized.

    Everything here is a pure function of (raw problem shape, array geometry,
    PE count, mapper options), so it is shared across Mapper instances — i.e.
    across trials — through :data:`_PREP_MEMO`.  The arrays are treated as
    immutable by every consumer.
    """

    problem: MatrixProblem
    m_tiles: np.ndarray
    n_tiles: np.ndarray
    k_tiles: np.ndarray
    per_dataflow: Tuple[_DataflowPlan, ...]


# Keyed by (problem key, mapper geometry key); cleared wholesale on overflow,
# exactly like the problem memo above.
_PREP_MEMO: Dict[Tuple, _PreparedProblem] = {}
_PREP_MEMO_MAX = 16384


@dataclass(frozen=True)
class MapperOptions:
    """Tunable knobs of the mapper search (the mapspace, not the engine)."""

    dataflows: Tuple[Dataflow, ...] = (Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY)
    max_tiling_candidates: int = 48
    padding_max_overhead: float = 0.2


class Mapper:
    """Maps matrix operations onto a single core of a datapath.

    ``op_cache`` is an optional shared (cross-trial, optionally persistent)
    :class:`~repro.runtime.opcache.OpCostCache`; mapping results are keyed by
    the problem fingerprint *and* the mapping-relevant slice of the datapath
    configuration, so two trials that agree on that slice — no matter how
    their fusion/memory/batch parameters differ — reuse each other's op costs.
    The cache itself is tiered (memory LRU and persistent JSONL store — see
    :mod:`repro.runtime.opcache`); every tier serves bit-identical costs, so
    the mapper never needs to know which one answered.  It is the mapper's
    only memo of costs across calls: without it, every call maps its
    problems afresh.
    """

    def __init__(
        self,
        config: DatapathConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
        options: Optional[MapperOptions] = None,
        op_cache=None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy(config)
        self.options = options or MapperOptions()
        self.op_cache = op_cache
        self._config_key = self.mapping_config_key() if op_cache is not None else None
        # Op-cache keys are (config key, problem key): hash them from a prefix.
        self._key_prefix = (
            op_cache.key_prefix((self._config_key,)) if op_cache is not None else None
        )
        # Everything _PreparedProblem depends on besides the problem itself.
        self._prep_key = (
            config.systolic_array_x,
            config.systolic_array_y,
            config.num_pes,
            tuple(d.value for d in self.options.dataflows),
            self.options.max_tiling_candidates,
            self.options.padding_max_overhead,
        )

    # ------------------------------------------------------------------
    def mapping_config_key(self) -> Tuple:
        """The slice of the configuration that determines mapping results.

        Everything the mapper search reads — array geometry, PE count, L1
        scratchpad layout (schedulability), blocking capacity, DRAM bandwidth
        per cycle (candidate ranking), and the mapper options themselves.
        The engine is not part of it: both engines compute identical costs.
        """
        config = self.config
        options = self.options
        return (
            config.systolic_array_x,
            config.systolic_array_y,
            config.num_pes,
            config.l1_buffer_config.value,
            config.l1_input_buffer_kib,
            config.l1_weight_buffer_kib,
            config.l1_output_buffer_kib,
            self.hierarchy.blocking_capacity_bytes,
            config.dram_bytes_per_cycle,
            tuple(d.value for d in options.dataflows),
            options.max_tiling_candidates,
            options.padding_max_overhead,
        )

    # ------------------------------------------------------------------
    def map_op(self, op: Operation, tensors: Dict[str, Tensor]) -> OpCost:
        """Map a matrix op with the scalar reference loop.

        Returns its cost, cached by problem signature in the op cache
        :meth:`map_ops_batch` fills.
        """
        if not is_matrix_op(op.op_type):
            raise ValueError(f"mapper only handles matrix ops, got {op.op_type}")
        problem = _memoized_problem(op, tensors)
        key = self._problem_key(problem)
        if self.op_cache is not None:
            shared = self.op_cache.get((self._config_key, key), self._key_prefix)
            if shared is not None:
                return _labelled(shared, op)
        cost = self._map_problem(op, problem)
        if self.op_cache is not None:
            self.op_cache.put((self._config_key, key), cost, self._key_prefix)
        return cost

    def map_ops_batch(
        self, ops: Sequence[Operation], tensors: Dict[str, Tensor]
    ) -> Dict[str, OpCost]:
        """Map many matrix ops in one batched candidate sweep (the fast engine).

        Each distinct problem among ``ops`` that misses the shared op cache
        contributes its candidate grid to ONE stacked NumPy pass
        (:func:`estimate_traffic_batch_ops`), and the results land in the
        op cache :meth:`map_op` uses.  Returns ``{op.name: OpCost}`` with
        each cost labeled for its op, bit-for-bit equal to mapping the ops
        one at a time with :meth:`map_op`.
        """
        return self._map_ops(ops, tensors)

    @staticmethod
    def map_trials_batch(
        entries: Sequence[Tuple["Mapper", Sequence[Operation], Dict[str, Tensor]]]
    ) -> List[Dict[str, OpCost]]:
        """Map several graphs' ops: one :meth:`map_ops_batch` pass per entry.

        ``entries`` holds ``(mapper, ops, tensors)`` triples; the result is
        one ``{op.name: OpCost}`` dict per entry.  It runs the same body as
        :meth:`map_ops_batch` without calling it, so a wrapper around both
        entry points sees every op once.
        """
        return [mapper._map_ops(ops, tensors) for mapper, ops, tensors in entries]

    def _map_ops(
        self, ops: Sequence[Operation], tensors: Dict[str, Tensor]
    ) -> Dict[str, OpCost]:
        slots: List[Tuple[Operation, Tuple]] = []
        costs: Dict[Tuple, OpCost] = {}
        pending: List[Tuple[Tuple, Operation, MatrixProblem]] = []
        pending_keys = set()
        for op in ops:
            if not is_matrix_op(op.op_type):
                raise ValueError(f"mapper only handles matrix ops, got {op.op_type}")
            problem = _memoized_problem(op, tensors)
            key = self._problem_key(problem)
            slots.append((op, key))
            if key in costs or key in pending_keys:
                continue
            if self.op_cache is not None:
                shared = self.op_cache.get((self._config_key, key), self._key_prefix)
                if shared is not None:
                    costs[key] = shared
                    continue
            pending_keys.add(key)
            pending.append((key, op, problem))
        if pending:
            with _tracer().span(
                "map_ops_batch",
                category="mapper",
                num_ops=len(ops),
                num_pending=len(pending),
            ):
                mapped = self._map_problems_batch(pending)
            for (key, _, _), cost in zip(pending, mapped):
                costs[key] = cost
                if self.op_cache is not None:
                    self.op_cache.put((self._config_key, key), cost, self._key_prefix)
        return {op.name: _labelled(costs[key], op) for op, key in slots}

    # ------------------------------------------------------------------
    def _problem_key(self, problem: MatrixProblem) -> Tuple:
        return (
            problem.m,
            problem.n,
            problem.k,
            problem.instances,
            problem.stationary_is_weight,
            problem.is_depthwise,
            problem.input_bytes,
            problem.stationary_bytes,
            problem.output_bytes,
        )

    def _schedulable(self) -> bool:
        """Structural feasibility of the datapath for matrix ops (Eq. 5).

        The L1 scratchpads must be able to double-buffer the systolic array's
        operand vectors and stage a reasonable fraction of a stationary tile;
        otherwise no schedule exists and the design point is invalid.
        """
        config = self.config
        input_needed = 2 * config.systolic_array_x * _DTYPE_BYTES
        output_needed = 2 * config.systolic_array_y * _DTYPE_BYTES
        weight_needed = config.systolic_array_x * config.systolic_array_y * _DTYPE_BYTES // 4
        pooled = config.l1_buffer_config is BufferConfig.SHARED
        scale = config.num_pes if pooled else 1
        return (
            config.l1_input_buffer_kib * 1024 * scale >= input_needed
            and config.l1_output_buffer_kib * 1024 * scale >= output_needed
            and config.l1_weight_buffer_kib * 1024 * scale >= weight_needed
        )

    def _map_problem(self, op: Operation, raw_problem: MatrixProblem) -> OpCost:
        config = self.config
        if not self._schedulable():
            return OpCost(
                op_name=op.name,
                op_type=op.op_type,
                flops=raw_problem.flops,
                padded_flops=raw_problem.flops,
                schedule_failed=True,
            )

        padding = pad_problem(
            raw_problem,
            config.systolic_array_x,
            config.systolic_array_y,
            max_overhead=self.options.padding_max_overhead,
        )
        problem = padding.problem
        blocking_capacity = self.hierarchy.blocking_capacity_bytes
        dram_bpc = config.dram_bytes_per_cycle

        best = self._search_candidates_scalar(problem, blocking_capacity, dram_bpc)

        if best is None:
            return OpCost(
                op_name=op.name,
                op_type=op.op_type,
                flops=raw_problem.flops,
                padded_flops=problem.flops,
                schedule_failed=True,
            )

        _, mapping, tiling, traffic = best
        compute_cycles = self._compute_cycles(problem, mapping)
        utilization = self._utilization(raw_problem, compute_cycles)
        return OpCost(
            op_name=op.name,
            op_type=op.op_type,
            flops=raw_problem.flops,
            padded_flops=problem.flops,
            compute_cycles=compute_cycles,
            vector_cycles=0.0,
            dram_input_bytes=traffic.input_bytes,
            dram_weight_bytes=traffic.stationary_bytes,
            dram_output_bytes=traffic.output_bytes,
            utilization=utilization,
            dataflow=mapping.dataflow,
            tiling=tiling,
            schedule_failed=False,
        )

    # ------------------------------------------------------------------
    # Scalar reference search: returns the winning
    # ``(rank, mapping, tiling, traffic)`` tuple, or None when no candidate
    # fits.
    # ------------------------------------------------------------------
    def _search_candidates_scalar(
        self, problem: MatrixProblem, blocking_capacity: int, dram_bpc: float
    ):
        # Candidates are ranked lexicographically: execution time first (with a
        # small tolerance so near-ties compare equal), then DRAM traffic, then
        # on-chip buffer footprint.  Preferring small footprints among equal
        # mappings leaves Global Memory headroom for FAST fusion, mirroring
        # the paper's "leftover capacity unused by Timeloop".
        config = self.config
        best: Optional[Tuple[Tuple[float, float, float], SpatialMapping, Tiling, object]] = None
        for dataflow in self.options.dataflows:
            mapping = spatial_mapping(
                problem, config.systolic_array_x, config.systolic_array_y, dataflow
            )
            compute_cycles = self._compute_cycles(problem, mapping)
            for tiling in candidate_tilings(
                problem,
                config.systolic_array_x,
                config.systolic_array_y,
                self.options.max_tiling_candidates,
            ):
                traffic, fits = estimate_traffic(
                    problem, tiling, blocking_capacity, _DTYPE_BYTES
                )
                if not fits:
                    continue
                dram_cycles = traffic.total_bytes / dram_bpc if dram_bpc > 0 else 0.0
                objective = max(compute_cycles, dram_cycles)
                rank = (
                    round(objective, 3),
                    round(traffic.total_bytes),
                    tiling.buffer_bytes(_DTYPE_BYTES),
                )
                if best is None or rank < best[0]:
                    best = (rank, mapping, tiling, traffic)
        return best

    # ------------------------------------------------------------------
    # Batched (NumPy) search engine.  One stacked array pass costs the whole
    # ``ops x dataflows x (m, n, k)-tilings`` candidate space, bit-for-bit
    # equal to the scalar loop above.
    # ------------------------------------------------------------------
    def _prepared(self, raw_problem: MatrixProblem, problem_key: Tuple) -> _PreparedProblem:
        """Padding, candidate grid, and per-dataflow plans for one problem.

        Memoized across Mapper instances (i.e. across trials) — all inputs
        are captured by ``(problem_key, self._prep_key)``.
        """
        memo_key = (problem_key, self._prep_key)
        prepared = _PREP_MEMO.get(memo_key)
        if prepared is not None:
            return prepared
        config = self.config
        padding = pad_problem(
            raw_problem,
            config.systolic_array_x,
            config.systolic_array_y,
            max_overhead=self.options.padding_max_overhead,
        )
        problem = padding.problem
        m_tiles, n_tiles, k_tiles = tiling_candidate_arrays(
            problem,
            config.systolic_array_x,
            config.systolic_array_y,
            self.options.max_tiling_candidates,
        )
        plans = []
        for dataflow in self.options.dataflows:
            mapping = spatial_mapping(
                problem, config.systolic_array_x, config.systolic_array_y, dataflow
            )
            compute_cycles = self._compute_cycles(problem, mapping)
            plans.append(
                _DataflowPlan(mapping, compute_cycles, round(max(compute_cycles, 0.0), 3))
            )
        prepared = _PreparedProblem(problem, m_tiles, n_tiles, k_tiles, tuple(plans))
        if len(_PREP_MEMO) >= _PREP_MEMO_MAX:
            _PREP_MEMO.clear()
        _PREP_MEMO[memo_key] = prepared
        return prepared

    def _map_problems_batch(
        self, items: Sequence[Tuple[Tuple, Operation, MatrixProblem]]
    ) -> List[OpCost]:
        """Map ``(problem key, op, raw problem)`` items with one stacked sweep.

        Bit-for-bit equivalent to mapping each problem through the scalar
        reference: the stacked traffic pass computes the very same float64
        operations per candidate, and the segmented selection reproduces the
        scalar loop's rounded lexicographic ranking (with its first-wins
        tie-breaking) exactly.
        """
        if not self._schedulable():
            return [
                OpCost(
                    op_name=op.name,
                    op_type=op.op_type,
                    flops=raw_problem.flops,
                    padded_flops=raw_problem.flops,
                    schedule_failed=True,
                )
                for _, op, raw_problem in items
            ]
        preps = [self._prepared(raw_problem, key) for key, _, raw_problem in items]
        op_index, m_all, n_all, k_all = stack_candidate_grids(
            [(prep.m_tiles, prep.n_tiles, prep.k_tiles) for prep in preps]
        )
        arrays = estimate_traffic_batch_ops(
            [prep.problem for prep in preps],
            op_index,
            m_all,
            n_all,
            k_all,
            self.hierarchy.blocking_capacity_bytes,
            _DTYPE_BYTES,
        )
        selections = _select_batch_slots(
            [tuple(plan.rounded_cycles for plan in prep.per_dataflow) for prep in preps],
            self.config.dram_bytes_per_cycle,
            arrays,
            op_index,
        )

        costs: List[OpCost] = []
        for (_, op, raw_problem), prep, selection in zip(items, preps, selections):
            if selection is None:
                costs.append(
                    OpCost(
                        op_name=op.name,
                        op_type=op.op_type,
                        flops=raw_problem.flops,
                        padded_flops=prep.problem.flops,
                        schedule_failed=True,
                    )
                )
                continue
            _, dataflow_position, flat_index = selection
            plan = prep.per_dataflow[dataflow_position]
            traffic = arrays.traffic(flat_index)
            costs.append(
                OpCost(
                    op_name=op.name,
                    op_type=op.op_type,
                    flops=raw_problem.flops,
                    padded_flops=prep.problem.flops,
                    compute_cycles=plan.compute_cycles,
                    vector_cycles=0.0,
                    dram_input_bytes=traffic.input_bytes,
                    dram_weight_bytes=traffic.stationary_bytes,
                    dram_output_bytes=traffic.output_bytes,
                    utilization=self._utilization(raw_problem, plan.compute_cycles),
                    dataflow=plan.mapping.dataflow,
                    tiling=arrays.tiling(flat_index),
                    schedule_failed=False,
                )
            )
        return costs

    # ------------------------------------------------------------------
    def _compute_cycles(self, problem: MatrixProblem, mapping: SpatialMapping) -> float:
        """Distribute the mapped problem across the PE grid of one core."""
        config = self.config
        num_pes = config.num_pes

        tiles_per_instance = mapping.tiles_k * mapping.tiles_n
        total_tiles = problem.instances * tiles_per_instance
        serial_cycles = problem.instances * mapping.cycles_per_instance

        # The streamed dimension can also be split across PEs (each PE gets a
        # chunk of at least _MIN_STREAM_CHUNK rows), which matters for ops
        # with few stationary tiles but many streamed rows.
        streamed = problem.m if mapping.dataflow is Dataflow.WEIGHT_STATIONARY else problem.k
        stream_splits = max(1, streamed // _MIN_STREAM_CHUNK)
        parallelism = total_tiles * stream_splits

        effective_pes = min(num_pes, parallelism)
        if effective_pes <= 0:
            return serial_cycles

        cycles = serial_cycles / effective_pes
        # Load imbalance: work is assigned at tile granularity.
        if total_tiles >= num_pes:
            waves = math.ceil(total_tiles / num_pes)
            imbalance = (waves * num_pes) / total_tiles
            cycles *= imbalance
        return cycles

    def _utilization(self, raw_problem: MatrixProblem, compute_cycles: float) -> float:
        """Achieved fraction of the core's peak MAC throughput."""
        config = self.config
        peak_macs_per_cycle = config.num_pes * config.macs_per_pe
        if compute_cycles <= 0 or peak_macs_per_cycle <= 0:
            return 0.0
        return min(1.0, raw_problem.macs / (compute_cycles * peak_macs_per_cycle))


def _labelled(cost: OpCost, op: Operation) -> OpCost:
    """``cost`` as the cost of ``op``: itself when its labels match, else a copy."""
    if cost.op_name == op.name and cost.op_type is op.op_type:
        return cost
    return OpCost(
        op.name, op.op_type, cost.flops, cost.padded_flops, cost.compute_cycles,
        cost.vector_cycles, cost.dram_input_bytes, cost.dram_weight_bytes,
        cost.dram_output_bytes, cost.utilization, cost.dataflow, cost.tiling,
        cost.schedule_failed,
    )


def _select_batch_slots(
    rounded_cycles: Sequence[Tuple[float, ...]],
    dram_bpc: float,
    arrays,
    op_index: np.ndarray,
) -> List[Optional[Tuple]]:
    """Segmented lexicographic argmin over the stacked candidate axis.

    ``rounded_cycles[p]`` holds problem ``p``'s rounded compute cycles per
    dataflow plan (position-aligned across problems).  For every problem and
    dataflow the scalar loop ranks candidates by
    ``(round(max(cc, dram), 3), rint(total_bytes), buffer_bytes)`` with
    strict-< first-wins tie-breaking.  All three components are exact
    reproductions here: ``round(x, 3)`` stays Python's correctly-rounded
    builtin (computed once per fitting candidate), the segmented
    minimums via ``np.minimum.reduceat`` compare the identical float64 /
    int64 values, and the final position minimum picks the earliest
    candidate in the per-op enumeration order.  Returns, per problem,
    ``None`` (nothing fits) or ``(rank, dataflow_position, flat_index)``.
    """
    num_problems = len(rounded_cycles)
    selections: List[Optional[Tuple]] = [None] * num_problems
    fit_flat = np.flatnonzero(arrays.fits)
    if fit_flat.size == 0:
        return selections
    op_fit = op_index[fit_flat]
    counts = np.bincount(op_fit, minlength=num_problems)
    active = counts > 0
    # Per-problem segment rank (only problems with >= 1 fitting candidate
    # get a segment; empty segments would break reduceat semantics).
    segment_of_problem = np.cumsum(active) - 1
    segment_id = segment_of_problem[op_fit]
    active_counts = counts[active]
    starts = np.zeros(active_counts.shape[0], dtype=np.int64)
    np.cumsum(active_counts[:-1], out=starts[1:])

    totals = arrays.total_bytes[fit_flat]
    # np.rint rounds half-to-even exactly like Python's round(float) -> int.
    rounded_totals = np.rint(totals)
    buffers = arrays.buffer_bytes[fit_flat]
    if dram_bpc > 0:
        # round() is monotone, so round(max(cc, dram), 3) equals
        # max(round(cc, 3), round(dram, 3)) — rounding the shared DRAM
        # cycles once lets every dataflow reuse them.
        rounded_dram = np.array(
            [round(d, 3) for d in (totals / dram_bpc).tolist()], dtype=np.float64
        )
    else:
        rounded_dram = np.zeros(fit_flat.shape[0], dtype=np.float64)
    positions = np.arange(fit_flat.shape[0], dtype=np.int64)
    int_sentinel = np.iinfo(np.int64).max
    active_problems = np.flatnonzero(active).tolist()

    for dataflow_position in range(len(rounded_cycles[0])):
        rounded_cc = np.array(
            [cycles[dataflow_position] for cycles in rounded_cycles], dtype=np.float64
        )
        objective = np.maximum(rounded_cc[op_fit], rounded_dram)
        seg_obj = np.minimum.reduceat(objective, starts)
        tied = objective == seg_obj[segment_id]
        seg_total = np.minimum.reduceat(
            np.where(tied, rounded_totals, np.inf), starts
        )
        tied &= rounded_totals == seg_total[segment_id]
        seg_buffer = np.minimum.reduceat(
            np.where(tied, buffers, int_sentinel), starts
        )
        tied &= buffers == seg_buffer[segment_id]
        seg_position = np.minimum.reduceat(
            np.where(tied, positions, int_sentinel), starts
        )
        obj_list = seg_obj.tolist()
        total_list = seg_total.tolist()
        buffer_list = seg_buffer.tolist()
        position_list = seg_position.tolist()
        for segment, problem_position in enumerate(active_problems):
            rank = (obj_list[segment], total_list[segment], buffer_list[segment])
            incumbent = selections[problem_position]
            if incumbent is None or rank < incumbent[0]:
                selections[problem_position] = (
                    rank,
                    dataflow_position,
                    int(fit_flat[position_list[segment]]),
                )
    return selections

