"""FAST fusion: ILP-based assignment of tensors to the Global Memory.

FAST fusion (Section 5.5, Figure 8) is a secondary pass over XLA-generated
fusion regions.  For every region it decides whether to keep the region's
input activation, output activation, and/or weight tensor resident in the
accelerator's Global Memory instead of streaming them from DRAM, minimizing
total execution time subject to the Global Memory capacity.  Activations may
only be kept on chip between *adjacent* regions in the execution order (the
paper's simulator limitation, which we reproduce); weights, once pinned, stay
resident for the lifetime of the model ("weight pinning") and therefore
consume capacity in every region's constraint.

Two solver backends are provided:

* ``"ilp"`` — the exact Figure 8 formulation solved with the in-repo
  branch-and-bound MILP solver (:mod:`repro.fusion.ilp`).
* ``"greedy"`` — a benefit-density heuristic with the same constraint
  structure, used by default for large models and inside the search loop
  where thousands of fusion problems must be solved per experiment.

The greedy backend pins activations first, then weights, each time taking
the feasible move with the highest DRAM cycles saved per pinned byte (ties
to the lowest region index).  Two invariants let it find those picks
without rescanning the region chain:

1. An activation pin at adjacent pair ``i`` changes regions ``i`` and
   ``i + 1`` only, so only pairs ``i - 1`` and ``i + 1`` need re-scoring and
   a heap yields each next pick.
2. A weight candidate's density depends on its own slack alone, and pinned
   weight bytes only grow, so the tightest region's headroom only shrinks:
   ``min_i(C - B_i - A_i) - W`` (capacity, blocking bytes, pinned
   activation bytes, pinned weight bytes) is exact because floating-point
   rounding is monotone.  One pass in density order makes every weight pick.

A solve is O((n + pins) log n) for ``n`` regions, where the rescanning
formulation was O(pins * n) for activations and O(pins * n^2) for weights.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RegionStats",
    "FusionDecision",
    "FusionResult",
    "FastFusionOptimizer",
]

# ``auto`` runs the ILP up to this many regions and greedy above it; the ILP
# returns its best incumbent after this many branch-and-bound nodes.
GREEDY_THRESHOLD_REGIONS = 80
ILP_MAX_NODES = 400


@dataclass(frozen=True)
class RegionStats:
    """Per-region performance statistics consumed by the fusion pass.

    Times are in cycles; sizes in bytes.  ``predecessor`` is the index of the
    region that produces this region's pinnable input activation (or None
    when the input comes from the host / a non-adjacent producer).
    """

    index: int
    name: str
    busy_cycles: float
    t_max_cycles: float
    input_dram_cycles: float
    weight_dram_cycles: float
    output_dram_cycles: float
    input_bytes: int
    weight_bytes: int
    output_bytes: int
    blocking_gm_bytes: int = 0
    predecessor: Optional[int] = None
    is_graph_output: bool = False

    @property
    def t_min_cycles(self) -> float:
        """Lower bound on the region's execution time (compute bound)."""
        return self.busy_cycles


@dataclass(frozen=True)
class FusionDecision:
    """Pinning decision for one region."""

    pin_input: bool = False
    pin_output: bool = False
    pin_weights: bool = False

    @property
    def any(self) -> bool:
        """Whether anything was pinned."""
        return self.pin_input or self.pin_output or self.pin_weights


@dataclass
class FusionResult:
    """Outcome of the FAST fusion pass over a whole model."""

    decisions: List[FusionDecision]
    region_cycles: List[float]
    total_cycles_pre: float
    total_cycles_post: float
    pinned_weight_bytes: int
    pinned_activation_bytes: int
    gm_capacity_bytes: int
    solver_status: str

    @property
    def speedup(self) -> float:
        """Pre-fusion time divided by post-fusion time."""
        if self.total_cycles_post <= 0:
            return 1.0
        return self.total_cycles_pre / self.total_cycles_post

    def dram_bytes_saved(self, regions: Sequence[RegionStats], dram_bytes_per_cycle: float) -> float:
        """Approximate DRAM bytes avoided by the selected pinnings."""
        saved_cycles = 0.0
        for region, decision in zip(regions, self.decisions):
            if decision.pin_input:
                saved_cycles += region.input_dram_cycles
            if decision.pin_output:
                saved_cycles += region.output_dram_cycles
            if decision.pin_weights:
                saved_cycles += region.weight_dram_cycles
        return saved_cycles * dram_bytes_per_cycle


class FastFusionOptimizer:
    """Solves the FAST fusion assignment problem for one model."""

    def __init__(self, gm_capacity_bytes: int, solver: str = "auto") -> None:
        if solver not in ("auto", "ilp", "greedy"):
            raise ValueError(f"unknown solver {solver!r}")
        self.gm_capacity_bytes = int(gm_capacity_bytes)
        self.solver = solver

    # ------------------------------------------------------------------
    def optimize(self, regions: Sequence[RegionStats]) -> FusionResult:
        """Choose pinning decisions for every region."""
        regions = list(regions)
        pre_total = sum(r.t_max_cycles for r in regions)
        if self.gm_capacity_bytes <= 0 or not regions:
            decisions = [FusionDecision() for _ in regions]
            return FusionResult(
                decisions=decisions,
                region_cycles=[r.t_max_cycles for r in regions],
                total_cycles_pre=pre_total,
                total_cycles_post=pre_total,
                pinned_weight_bytes=0,
                pinned_activation_bytes=0,
                gm_capacity_bytes=self.gm_capacity_bytes,
                solver_status="disabled",
            )

        backend = self.solver
        if backend == "auto":
            backend = "greedy" if len(regions) > GREEDY_THRESHOLD_REGIONS else "ilp"

        if backend == "ilp":
            result = self._solve_ilp(regions)
            if result is not None:
                return result
            # Fall back to the heuristic if the ILP failed.
        return self._solve_greedy(regions)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _pinnable_input(region: RegionStats) -> bool:
        """Input may be pinned only when produced by the immediately preceding region."""
        return region.predecessor is not None and region.predecessor == region.index - 1

    @staticmethod
    def _pinnable_output(region: RegionStats, regions: Sequence[RegionStats]) -> bool:
        """Output may be pinned only when consumed by the immediately following region."""
        if region.is_graph_output:
            return False
        next_index = region.index + 1
        if next_index >= len(regions):
            return False
        successor = regions[next_index]
        return successor.predecessor == region.index

    @staticmethod
    def _region_time(region: RegionStats, saved_cycles: float) -> float:
        return max(region.t_min_cycles, region.t_max_cycles - saved_cycles)

    def _finalize(
        self,
        regions: Sequence[RegionStats],
        decisions: List[FusionDecision],
        status: str,
    ) -> FusionResult:
        region_cycles = []
        pinned_weight_bytes = 0
        pinned_activation_bytes = 0
        for region, decision in zip(regions, decisions):
            saved = 0.0
            if decision.pin_input:
                saved += region.input_dram_cycles
                pinned_activation_bytes += region.input_bytes
            if decision.pin_output:
                saved += region.output_dram_cycles
                pinned_activation_bytes += region.output_bytes
            if decision.pin_weights:
                saved += region.weight_dram_cycles
                pinned_weight_bytes += region.weight_bytes
            region_cycles.append(self._region_time(region, saved))
        return FusionResult(
            decisions=decisions,
            region_cycles=region_cycles,
            total_cycles_pre=sum(r.t_max_cycles for r in regions),
            total_cycles_post=sum(region_cycles),
            pinned_weight_bytes=pinned_weight_bytes,
            pinned_activation_bytes=pinned_activation_bytes,
            gm_capacity_bytes=self.gm_capacity_bytes,
            solver_status=status,
        )

    # ------------------------------------------------------------------
    # Greedy backend
    # ------------------------------------------------------------------
    def _solve_greedy(self, regions: List[RegionStats]) -> FusionResult:
        """Benefit-density greedy: activation pins first, then weight pins.

        Each phase repeatedly makes the feasible move with the highest
        benefit density (DRAM cycles saved per pinned byte), breaking ties
        towards the lowest region index, until no move saves anything.  The
        picks are found without rescanning the region chain:

        * Phase 1 (activations).  The move at pair ``i`` pins region ``i``'s
          output and region ``i + 1``'s input, so it changes the slack and
          headroom of those two regions only.  Afterwards pair ``i`` is spent
          and only pairs ``i - 1`` and ``i + 1`` are re-scored; a heap keyed
          by ``(-density, index)`` holds the current scores, and entries made
          stale by a re-score are skipped when popped.
        * Phase 2 (weights).  A candidate's density depends only on its own
          slack, which no other weight pin changes, so the densities are
          fixed for the whole phase.  Every candidate has ``weight_bytes >
          0``, so the pinned weight total ``W`` only grows and a candidate
          that does not fit never fits later.  Feasibility needs the smallest
          headroom ``min_i(C - B_i - A_i) - W`` (capacity, blocking bytes,
          pinned activation bytes), and because floating-point rounding is
          monotone, taking ``- W`` outside the ``min`` is exact.  One pass in
          ``(-density, index)`` order therefore makes the same picks as
          repeatedly taking the best feasible candidate.

        That is O((n + pins) log n) for ``n`` regions instead of the
        O(pins * n) rescans of phase 1 and O(pins * n^2) headroom checks of
        phase 2.
        """
        n = len(regions)
        capacity = float(self.gm_capacity_bytes)
        pin_input = [False] * n
        pin_output = [False] * n
        pin_weights = [False] * n
        activation_usage = [0.0] * n  # own pinned activation bytes per region
        saved = [0.0] * n

        def slack(i: int) -> float:
            return max(0.0, self._region_time(regions[i], saved[i]) - regions[i].t_min_cycles)

        def headroom(i: int) -> float:
            """Region ``i``'s free Global Memory before any weight is pinned."""
            return capacity - regions[i].blocking_gm_bytes - activation_usage[i]

        def pair_density(i: int) -> float:
            """Benefit density of pair ``i``'s activation move; the move needs > 0."""
            producer, consumer = regions[i], regions[i + 1]
            if not (
                headroom(i) >= producer.output_bytes
                and headroom(i + 1) >= consumer.input_bytes
            ):
                return 0.0
            benefit = min(producer.output_dram_cycles, slack(i)) + min(
                consumer.input_dram_cycles, slack(i + 1)
            )
            return benefit / (max(producer.output_bytes, 1) + max(consumer.input_bytes, 1))

        # Phase 1: activation pinning.  Activations have short lifetimes (they
        # only occupy the Global Memory between adjacent regions), so they are
        # placed first; pinning them never blocks a later weight pin globally.
        pairable = [
            self._pinnable_output(regions[i], regions) and self._pinnable_input(regions[i + 1])
            for i in range(n - 1)
        ]
        density = [0.0] * len(pairable)
        heap: List[Tuple[float, int]] = []
        for i in range(n - 1):
            if pairable[i]:
                density[i] = pair_density(i)
                if density[i] > 0.0:
                    heap.append((-density[i], i))
        heapq.heapify(heap)
        while heap:
            negated, i = heapq.heappop(heap)
            if pin_output[i] or -negated != density[i]:
                continue  # spent, or re-scored since this entry was pushed
            pin_output[i] = True
            pin_input[i + 1] = True
            activation_usage[i] += regions[i].output_bytes
            activation_usage[i + 1] += regions[i + 1].input_bytes
            saved[i] += regions[i].output_dram_cycles
            saved[i + 1] += regions[i + 1].input_dram_cycles
            for j in (i - 1, i + 1):
                if 0 <= j < n - 1 and pairable[j] and not pin_output[j]:
                    density[j] = pair_density(j)
                    if density[j] > 0.0:
                        heapq.heappush(heap, (-density[j], j))

        # Phase 2: weight pinning with the remaining (persistent) headroom.
        candidates = []
        for i, region in enumerate(regions):
            if region.weight_bytes > 0:
                weight_density = min(region.weight_dram_cycles, slack(i)) / max(
                    region.weight_bytes, 1
                )
                if weight_density > 0.0:
                    candidates.append((-weight_density, i))
        if candidates:
            candidates.sort()
            min_headroom = min(headroom(i) for i in range(n))
            weight_total = 0.0  # persistent pinned weight bytes
            for _, i in candidates:
                if min_headroom - weight_total >= regions[i].weight_bytes:
                    pin_weights[i] = True
                    weight_total += regions[i].weight_bytes
                    saved[i] += regions[i].weight_dram_cycles

        decisions = [
            FusionDecision(pin_input[i], pin_output[i], pin_weights[i]) for i in range(n)
        ]
        return self._finalize(regions, decisions, status="greedy")

    # ------------------------------------------------------------------
    # ILP backend (Figure 8)
    # ------------------------------------------------------------------
    def _solve_ilp(self, regions: List[RegionStats]) -> Optional[FusionResult]:
        # Imported here: the ILP's LP relaxations load scipy.optimize, which
        # a search, solving fusion greedily, never needs.
        from repro.fusion.ilp import BranchAndBoundSolver, IlpProblem

        n = len(regions)
        capacity = float(self.gm_capacity_bytes)

        # Variable layout: [p_I_0..p_I_{n-1}, p_O_*, p_W_*, T_*]
        def idx_in(i: int) -> int:
            return i

        def idx_out(i: int) -> int:
            return n + i

        def idx_w(i: int) -> int:
            return 2 * n + i

        def idx_t(i: int) -> int:
            return 3 * n + i

        num_vars = 4 * n
        objective = np.zeros(num_vars)
        for i in range(n):
            objective[idx_t(i)] = 1.0

        rows: List[np.ndarray] = []
        bounds_rhs: List[float] = []

        def add_row(coeffs: dict, rhs: float) -> None:
            row = np.zeros(num_vars)
            for col, value in coeffs.items():
                row[col] = value
            rows.append(row)
            bounds_rhs.append(rhs)

        lower = np.zeros(num_vars)
        upper = np.ones(num_vars)
        integer_mask = np.zeros(num_vars, dtype=bool)
        integer_mask[: 3 * n] = True

        for i, region in enumerate(regions):
            upper[idx_t(i)] = max(region.t_max_cycles, 1.0)
            lower[idx_t(i)] = 0.0
            if not self._pinnable_input(region):
                upper[idx_in(i)] = 0.0
            if not self._pinnable_output(region, regions):
                upper[idx_out(i)] = 0.0
            if region.weight_bytes <= 0:
                upper[idx_w(i)] = 0.0

            # T_i >= T_min_i
            add_row({idx_t(i): -1.0}, -region.t_min_cycles)
            # T_i >= T_max_i - sum_k t_i^k p_i^k
            add_row(
                {
                    idx_t(i): -1.0,
                    idx_in(i): -region.input_dram_cycles,
                    idx_out(i): -region.output_dram_cycles,
                    idx_w(i): -region.weight_dram_cycles,
                },
                -region.t_max_cycles,
            )
            # Capacity: B_i + sum_k d_i^k p_i^k + sum_{j != i} W_j p_j^W <= C_GM
            coeffs = {
                idx_in(i): float(region.input_bytes),
                idx_out(i): float(region.output_bytes),
                idx_w(i): float(region.weight_bytes),
            }
            for j, other in enumerate(regions):
                if j != i and other.weight_bytes > 0:
                    coeffs[idx_w(j)] = float(other.weight_bytes)
            add_row(coeffs, capacity - region.blocking_gm_bytes)

            # Producer/consumer consistency with the adjacent successor.
            if i + 1 < n and regions[i + 1].predecessor == i:
                # p_{i+1}^I <= p_i^O
                add_row({idx_in(i + 1): 1.0, idx_out(i): -1.0}, 0.0)
                # p_i^O <= p_{i+1}^I  (no point pinning an output nobody reads)
                add_row({idx_out(i): 1.0, idx_in(i + 1): -1.0}, 0.0)
            else:
                upper[idx_out(i)] = 0.0

        problem = IlpProblem(
            objective=objective,
            constraint_matrix=np.vstack(rows),
            constraint_bounds=np.asarray(bounds_rhs),
            integer_mask=integer_mask,
            lower_bounds=lower,
            upper_bounds=upper,
        )
        solution = BranchAndBoundSolver(max_nodes=ILP_MAX_NODES).solve(problem)
        if not solution.feasible or solution.x is None:
            return None

        decisions = []
        for i in range(n):
            decisions.append(
                FusionDecision(
                    pin_input=solution.x[idx_in(i)] > 0.5,
                    pin_output=solution.x[idx_out(i)] > 0.5,
                    pin_weights=solution.x[idx_w(i)] > 0.5,
                )
            )
        status = "ilp_optimal" if solution.optimal else "ilp_incumbent"
        return self._finalize(regions, decisions, status=status)
