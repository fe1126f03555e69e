"""Timeloop-style mapper: schedules matrix ops onto the datapath.

For each matrix op the mapper
(1) lowers it to a canonical GEMM-like problem,
(2) applies the tensor padding pre-pass,
(3) checks structural schedulability (minimum scratchpad sizes),
(4) searches a pruned mapspace of dataflows x tilings, estimating compute
    cycles and DRAM traffic for each candidate — the candidate grid and the
    spatial mappings depend on the systolic array's shape but not on the PE
    count, which only scales compute cycles and utilization — and
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
problems, their candidate grids (one per array shape) and their cost
templates (one per array shape and PE count).
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
_EXACT_RINT_LIMIT = 2.0**52  # From here up every double is an integer.

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


class _CandidateGrid(NamedTuple):
    """Padded problem + candidate grid + spatial mapping per dataflow.

    A pure function of (raw problem shape, ``systolic_array_x``/``_y``,
    mapper options) — not of the PE count — so datapaths that differ only
    in their PE grid share one entry through :data:`_GRID_MEMO`.  The arrays
    are treated as immutable by every consumer.
    """

    problem: MatrixProblem
    m_tiles: np.ndarray
    n_tiles: np.ndarray
    k_tiles: np.ndarray
    mappings: Tuple[SpatialMapping, ...]


class _PreparedProblem(NamedTuple):
    """One problem's cost template on one array shape and PE count.

    Every number an :class:`OpCost` takes besides the winning candidate's:
    the raw and padded problems' FLOPs, and per dataflow the compute cycles,
    their ``round(max(cc, 0), 3)`` rank term and the utilization.  All of it
    depends only on the memo key — the problem key, the array shape, the PE
    count (``macs_per_pe`` is x·y) and the mapper options — so it is shared
    across Mapper instances, i.e. across trials, through :data:`_PREP_MEMO`.
    """

    grid: _CandidateGrid
    flops: int
    padded_flops: int
    compute_cycles: Tuple[float, ...]
    rounded_cycles: Tuple[float, ...]
    utilization: Tuple[float, ...]


# Keyed by (problem key, array shape + options) and by (problem key, array
# shape + options + PE count) respectively; each is cleared wholesale on
# overflow, exactly like the problem memo above.  A template holds its grid
# itself, so either memo can be cleared without the other.
_GRID_MEMO: Dict[Tuple, _CandidateGrid] = {}
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
        # Everything a _CandidateGrid depends on besides the problem itself,
        # and everything a _PreparedProblem does.
        self._grid_key = (
            config.systolic_array_x,
            config.systolic_array_y,
            tuple(d.value for d in self.options.dataflows),
            self.options.max_tiling_candidates,
            self.options.padding_max_overhead,
        )
        self._prep_key = (*self._grid_key, config.num_pes)

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
    def _candidate_grid(self, raw_problem: MatrixProblem, problem_key: Tuple) -> _CandidateGrid:
        """Padding, candidate grid and spatial mappings for one problem.

        Memoized across Mapper instances and PE counts — all inputs are
        captured by ``(problem_key, self._grid_key)``.
        """
        memo_key = (problem_key, self._grid_key)
        grid = _GRID_MEMO.get(memo_key)
        if grid is not None:
            return grid
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
        mappings = tuple(
            spatial_mapping(problem, config.systolic_array_x, config.systolic_array_y, dataflow)
            for dataflow in self.options.dataflows
        )
        grid = _CandidateGrid(problem, m_tiles, n_tiles, k_tiles, mappings)
        if len(_GRID_MEMO) >= _PREP_MEMO_MAX:
            _GRID_MEMO.clear()
        _GRID_MEMO[memo_key] = grid
        return grid

    def _prepared(self, raw_problem: MatrixProblem, problem_key: Tuple) -> _PreparedProblem:
        """One problem's cost template: its grid plus the PE-count arithmetic.

        Memoized across Mapper instances (i.e. across trials) — all inputs
        are captured by ``(problem_key, self._prep_key)``.
        """
        memo_key = (problem_key, self._prep_key)
        prepared = _PREP_MEMO.get(memo_key)
        if prepared is not None:
            return prepared
        grid = self._candidate_grid(raw_problem, problem_key)
        compute_cycles = tuple(
            self._compute_cycles(grid.problem, mapping) for mapping in grid.mappings
        )
        prepared = _PreparedProblem(
            grid,
            raw_problem.flops,
            grid.problem.flops,
            compute_cycles,
            tuple(round(max(cycles, 0.0), 3) for cycles in compute_cycles),
            tuple(self._utilization(raw_problem, cycles) for cycles in compute_cycles),
        )
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
        tie-breaking) exactly.  The winners' traffic and tiles are read in
        bulk, one fancy index per array.
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
        grids = [prep.grid for prep in preps]
        op_index, m_all, n_all, k_all = stack_candidate_grids(
            [(grid.m_tiles, grid.n_tiles, grid.k_tiles) for grid in grids]
        )
        arrays = estimate_traffic_batch_ops(
            [grid.problem for grid in grids],
            op_index,
            m_all,
            n_all,
            k_all,
            self.hierarchy.blocking_capacity_bytes,
            _DTYPE_BYTES,
        )
        dataflow_positions, flat = _select_batch_slots(
            np.array([prep.rounded_cycles for prep in preps], dtype=np.float64),
            self.config.dram_bytes_per_cycle,
            arrays,
            op_index,
        )

        dataflows = self.options.dataflows
        costs: List[OpCost] = []
        for (_, op, _), prep, position, input_bytes, stationary_bytes, output_bytes, m, n, k in zip(
            items,
            preps,
            dataflow_positions.tolist(),
            arrays.input_bytes[flat].tolist(),
            arrays.stationary_bytes[flat].tolist(),
            arrays.output_bytes[flat].tolist(),
            m_all[flat].tolist(),
            n_all[flat].tolist(),
            k_all[flat].tolist(),
        ):
            if position < 0:
                costs.append(
                    OpCost(
                        op_name=op.name,
                        op_type=op.op_type,
                        flops=prep.flops,
                        padded_flops=prep.padded_flops,
                        schedule_failed=True,
                    )
                )
                continue
            costs.append(
                OpCost(
                    op_name=op.name,
                    op_type=op.op_type,
                    flops=prep.flops,
                    padded_flops=prep.padded_flops,
                    compute_cycles=prep.compute_cycles[position],
                    vector_cycles=0.0,
                    dram_input_bytes=input_bytes,
                    dram_weight_bytes=stationary_bytes,
                    dram_output_bytes=output_bytes,
                    utilization=prep.utilization[position],
                    dataflow=dataflows[position],
                    tiling=Tiling(m, n, k),
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


def _round3(values: np.ndarray) -> np.ndarray:
    """``[round(v, 3) for v in values]`` as a float64 array, bit for bit.

    Python's ``round(v, 3)`` is correctly rounded: it rounds the exact value
    of ``1000·v`` half-to-even to an integer ``n`` (through a decimal string)
    and returns the double nearest ``n / 1000``.  ``s = v * 1000.0`` is that
    exact product rounded once, so below 2**52 it is off by at most half an
    ulp, and ``np.rint(s)`` can differ from ``n`` only when ``s`` lies that
    close to a half-integer.  Everywhere else ``np.rint(s)`` is ``n``, and
    ``n / 1000.0`` divides two exact doubles, so it is the correctly rounded
    quotient: Python's answer.  Elements whose scaled value is not finite,
    is at least 2**52 in magnitude, or lies within two ``np.spacing`` of a
    half-integer take Python's ``round`` itself.  The guard matters: the bare
    formula, which is what ``np.round`` computes, gives 5118.216 for
    5118.2165 where ``round`` gives 5118.217.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1000.0
        rounded = np.rint(scaled) / 1000.0
        magnitude = np.abs(scaled)
        near_half = np.abs(magnitude - np.floor(magnitude) - 0.5) <= 2.0 * np.spacing(magnitude)
        unsure = np.flatnonzero(near_half | ~(magnitude < _EXACT_RINT_LIMIT))
    if unsure.size:
        rounded[unsure] = [round(value, 3) for value in values[unsure].tolist()]
    return rounded


def _select_batch_slots(
    rounded_cycles: np.ndarray,
    dram_bpc: float,
    arrays,
    op_index: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Segmented lexicographic argmin over the stacked candidate axis.

    ``rounded_cycles[p, d]`` holds problem ``p``'s rounded compute cycles
    under dataflow plan ``d``.  For every problem and dataflow the scalar
    loop ranks candidates by ``(round(max(cc, dram), 3), rint(total_bytes),
    buffer_bytes)`` with strict-< first-wins tie-breaking, across dataflows
    too.  All of it is reproduced exactly, in arrays only.  ``round(x, 3)``
    is :func:`_round3`: below 2**52 the product ``x * 1000.0`` is off by at
    most half an ulp, so ``rint`` can disagree with Python's correctly
    rounded ``round`` only that close to a half-integer, and ``n / 1000.0``
    is correctly rounded for an integer ``n``; values within two ulps of a
    half-integer, or not below 2**52, take the builtin.  The segmented
    minimums via ``np.minimum.reduceat`` compare the identical float64 /
    int64 values, the position minimum picks the earliest candidate in the
    per-op enumeration order, and a later dataflow replaces the incumbent
    only on a strictly smaller rank.  Returns, per problem, the winning
    dataflow position (-1 when no candidate fits) and the winner's flat
    candidate index (0 when none fits).
    """
    num_problems, num_dataflows = rounded_cycles.shape
    dataflow_positions = np.full(num_problems, -1, dtype=np.int64)
    winners = np.zeros(num_problems, dtype=np.int64)
    fit_flat = np.flatnonzero(arrays.fits)
    if fit_flat.size == 0 or num_dataflows == 0:
        return dataflow_positions, winners
    op_fit = op_index[fit_flat]
    counts = np.bincount(op_fit, minlength=num_problems)
    # Only problems with >= 1 fitting candidate get a segment (empty
    # segments would break reduceat semantics).
    active = np.flatnonzero(counts)
    segment_id = (np.cumsum(counts > 0) - 1)[op_fit]
    starts = np.zeros(active.shape[0], dtype=np.int64)
    np.cumsum(counts[active][:-1], out=starts[1:])

    totals = arrays.total_bytes[fit_flat]
    # np.rint rounds half-to-even exactly like Python's round(float) -> int.
    rounded_totals = np.rint(totals)
    buffers = arrays.buffer_bytes[fit_flat]
    if dram_bpc > 0:
        # round() is monotone, so round(max(cc, dram), 3) equals
        # max(round(cc, 3), round(dram, 3)) — rounding the shared DRAM
        # cycles once lets every dataflow reuse them.
        rounded_dram = _round3(totals / dram_bpc)
    else:
        rounded_dram = np.zeros(fit_flat.shape[0], dtype=np.float64)
    positions = np.arange(fit_flat.shape[0], dtype=np.int64)
    int_sentinel = np.iinfo(np.int64).max

    for dataflow_position, rounded_cc in enumerate(rounded_cycles[active].T):
        objective = np.maximum(rounded_cc[segment_id], rounded_dram)
        seg_obj = np.minimum.reduceat(objective, starts)
        tied = objective == seg_obj[segment_id]
        seg_total = np.minimum.reduceat(np.where(tied, rounded_totals, np.inf), starts)
        tied &= rounded_totals == seg_total[segment_id]
        seg_buffer = np.minimum.reduceat(np.where(tied, buffers, int_sentinel), starts)
        tied &= buffers == seg_buffer[segment_id]
        seg_position = np.minimum.reduceat(np.where(tied, positions, int_sentinel), starts)
        if dataflow_position == 0:
            best_obj, best_total, best_buffer = seg_obj, seg_total, seg_buffer
            best_position = seg_position
            best_dataflow = np.zeros(active.shape[0], dtype=np.int64)
            continue
        better = (seg_obj < best_obj) | (
            (seg_obj == best_obj)
            & ((seg_total < best_total) | ((seg_total == best_total) & (seg_buffer < best_buffer)))
        )
        best_obj = np.where(better, seg_obj, best_obj)
        best_total = np.where(better, seg_total, best_total)
        best_buffer = np.where(better, seg_buffer, best_buffer)
        best_position = np.where(better, seg_position, best_position)
        best_dataflow[better] = dataflow_position
    dataflow_positions[active] = best_dataflow
    winners[active] = fit_flat[best_position]
    return dataflow_positions, winners
