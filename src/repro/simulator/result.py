"""Simulation result records and derived metrics.

A :class:`SimulationResult` holds one workload's per-region performance on a
datapath, both before and after FAST fusion, together with every derived
metric the paper's evaluation reports: QPS, latency, operational intensity,
compute utilization, memory stall fraction, per-layer utilization, and
runtime share by op type or BERT component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence

from repro.fusion.fast_fusion import FusionDecision, FusionResult, RegionStats
from repro.hardware.datapath import DatapathConfig
from repro.workloads.ops import OpType

__all__ = ["RegionPerformance", "SimulationResult"]


@dataclass
class RegionPerformance:
    """Pre-fusion performance of one fusion region on one core.

    Records are shared read-only: a region-cache hit hands the cached record
    itself to every result whose workload contains the region, and a twin
    region shares its first-of-shape region's record, so nothing may modify
    a record once it is built.  What fusion does to a region
    (its post-fusion cycles and pin decision) lives on the
    :class:`SimulationResult` instead.
    """

    index: int
    name: str
    op_names: List[str]
    primary_op_type: OpType
    flops: int
    compute_cycles: float
    vector_cycles: float
    dram_input_bytes: float
    dram_weight_bytes: float
    dram_output_bytes: float
    pre_fusion_cycles: float
    matrix_utilization: float
    op_busy_cycles: Dict[str, float] = field(default_factory=dict)

    @property
    def busy_cycles(self) -> float:
        """Region busy time: matrix and VPU work overlap within a fused region."""
        return max(self.compute_cycles, self.vector_cycles)

    @property
    def dram_bytes_pre_fusion(self) -> float:
        """DRAM traffic before FAST fusion."""
        return self.dram_input_bytes + self.dram_weight_bytes + self.dram_output_bytes


def _dram_bytes_post_fusion(record: RegionPerformance, decision: FusionDecision) -> float:
    """A region's DRAM traffic after FAST fusion (pinned tensors stay on chip)."""
    traffic = record.dram_bytes_pre_fusion
    if decision.pin_input:
        traffic -= record.dram_input_bytes
    if decision.pin_output:
        traffic -= record.dram_output_bytes
    if decision.pin_weights:
        traffic -= record.dram_weight_bytes
    return max(0.0, traffic)


_NO_FUSION = FusionDecision()


def _twin_record(plan, r: RegionPerformance) -> RegionPerformance:
    """A twin's record: its first-of-shape region's numbers under the plan's
    identity, with ``op_busy_cycles`` keyed by the twin's own op names in
    order (both regions list their ops in the same order)."""
    return RegionPerformance(
        plan.index, plan.name, plan.op_names, plan.primary_op_type, r.flops, r.compute_cycles,
        r.vector_cycles, r.dram_input_bytes, r.dram_weight_bytes, r.dram_output_bytes,
        r.pre_fusion_cycles, r.matrix_utilization,
        dict(zip(plan.op_names, r.op_busy_cycles.values())),
    )


def _twin_stats(plan, s: RegionStats) -> RegionStats:
    """A twin's fusion stats: its first-of-shape region's numbers under the
    plan's identity (index, name, predecessor and graph-output flag).  Every
    fusion-memo miss builds one per twin, so the arguments are positional, in
    field order: keyword arguments are a third slower."""
    return RegionStats(
        plan.index, plan.name, s.busy_cycles, s.t_max_cycles, s.input_dram_cycles,
        s.weight_dram_cycles, s.output_dram_cycles, s.input_bytes, s.weight_bytes,
        s.output_bytes, s.blocking_gm_bytes, plan.predecessor, plan.is_graph_output,
    )


@dataclass
class SimulationResult:
    """Whole-workload simulation outcome on a datapath configuration.

    ``records`` and ``stats`` hold each simulated region's pre-fusion record
    and fusion stats, in region order; a twin's are its first-of-shape
    region's objects, and its region plan in ``plans`` gives it its own
    identity.  ``fusion_result`` is the fusion pass's outcome (None when
    fusion did not run).  All of them may be shared with other results
    (region-cache hits, twins and the simulator's fusion memo), so treat
    them as read-only.

    Metrics read the shared records, in region order; only
    :meth:`runtime_fraction_by` needs op names, and reads :attr:`regions`.
    """

    workload: str
    config: DatapathConfig
    batch_size: int
    records: List[RegionPerformance]
    stats: List[RegionStats]
    plans: Sequence
    fusion_result: Optional[FusionResult]
    schedule_failed: bool
    clock_ghz: float
    num_cores: int

    # ------------------------------------------------------------------
    # Per-region views
    # ------------------------------------------------------------------
    @cached_property
    def regions(self) -> List[RegionPerformance]:
        """Each simulated region's pre-fusion record under its own identity.

        A first-of-shape region's entry is its shared record itself; a
        twin's is built on the first read and then kept.
        """
        return [
            record if plan.twin is None else _twin_record(plan, record)
            for plan, record in zip(self.plans, self.records)
        ]

    @cached_property
    def region_stats(self) -> List[RegionStats]:
        """Each simulated region's fusion stats, built like :attr:`regions`:
        the per-region list the fusion pass solves."""
        return [
            stats if plan.twin is None else _twin_stats(plan, stats)
            for plan, stats in zip(self.plans, self.stats)
        ]

    # ------------------------------------------------------------------
    # Per-region post-fusion view
    # ------------------------------------------------------------------
    def _cycles(self, post_fusion: bool = True) -> List[float]:
        """Per-region cycles after (or before) fusion; may be the fusion result's own list."""
        if post_fusion and self.fusion_result is not None:
            return self.fusion_result.region_cycles
        return [r.pre_fusion_cycles for r in self.records]

    def _decisions(self) -> List[FusionDecision]:
        """Per-region pin decisions (the fusion result's own list: read-only)."""
        if self.fusion_result is not None:
            return self.fusion_result.decisions
        return [_NO_FUSION] * len(self.records)

    @property
    def region_post_fusion_cycles(self) -> List[float]:
        """Post-fusion cycles of each region, aligned with ``regions``.

        The fusion pass's per-region cycles when fusion ran, otherwise each
        region's pre-fusion cycles.
        """
        return list(self._cycles())

    @property
    def region_fusion_decisions(self) -> List[FusionDecision]:
        """Pin decision of each region (nothing pinned when fusion did not run)."""
        return list(self._decisions())

    def region_dram_bytes_post_fusion(self, position: int) -> float:
        """DRAM traffic of ``regions[position]`` after FAST fusion."""
        return _dram_bytes_post_fusion(self.records[position], self._decisions()[position])

    def region_achieved_utilization(self, position: int) -> float:
        """Fraction of ``regions[position]``'s post-fusion time it is busy."""
        cycles = self._cycles()[position]
        if cycles <= 0:
            return 0.0
        return min(1.0, self.records[position].busy_cycles / cycles)

    # ------------------------------------------------------------------
    # Time and throughput
    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> float:
        """Post-fusion execution cycles for one batch on one core."""
        return sum(self._cycles())

    @property
    def pre_fusion_cycles(self) -> float:
        """Pre-fusion execution cycles for one batch on one core."""
        return sum(r.pre_fusion_cycles for r in self.records)

    @property
    def execution_time_s(self) -> float:
        """Wall-clock time to run one batch on one core."""
        return self.total_cycles / (self.clock_ghz * 1e9)

    @property
    def latency_ms(self) -> float:
        """Inference latency in milliseconds."""
        return self.execution_time_s * 1e3

    @property
    def qps(self) -> float:
        """Aggregate queries per second across all cores."""
        if self.schedule_failed or self.execution_time_s <= 0:
            return 0.0
        return self.batch_size * self.num_cores / self.execution_time_s

    def perf_per_tdp(self, tdp_w: float) -> float:
        """QPS per watt of TDP."""
        if tdp_w <= 0:
            return 0.0
        return self.qps / tdp_w

    # ------------------------------------------------------------------
    # FLOPs, traffic, intensity
    # ------------------------------------------------------------------
    @property
    def total_flops(self) -> int:
        """Useful FLOPs of one batch."""
        return sum(r.flops for r in self.records)

    @property
    def dram_bytes_pre_fusion(self) -> float:
        """Total DRAM traffic before FAST fusion."""
        return sum(r.dram_bytes_pre_fusion for r in self.records)

    @property
    def dram_bytes_post_fusion(self) -> float:
        """Total DRAM traffic after FAST fusion."""
        return sum(
            _dram_bytes_post_fusion(r, decision)
            for r, decision in zip(self.records, self._decisions())
        )

    def operational_intensity(self, post_fusion: bool = True) -> float:
        """Model-level FLOPs per DRAM byte."""
        traffic = self.dram_bytes_post_fusion if post_fusion else self.dram_bytes_pre_fusion
        if traffic <= 0:
            return float("inf")
        return self.total_flops / traffic

    # ------------------------------------------------------------------
    # Utilization and stalls
    # ------------------------------------------------------------------
    @property
    def peak_flops_per_cycle(self) -> float:
        """Peak matrix FLOPs per cycle of one core."""
        return 2.0 * self.config.num_pes * self.config.macs_per_pe

    @property
    def compute_utilization(self) -> float:
        """Achieved fraction of peak FLOPs over the whole model."""
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.total_flops / (self.total_cycles * self.peak_flops_per_cycle))

    def memory_stall_fraction(self, post_fusion: bool = True) -> float:
        """Fraction of execution time spent waiting on DRAM transfers."""
        total = 0.0
        stalled = 0.0
        for region, cycles in zip(self.records, self._cycles(post_fusion)):
            total += cycles
            stalled += max(0.0, cycles - region.busy_cycles)
        if total <= 0:
            return 0.0
        return stalled / total

    @property
    def fusion_efficiency(self) -> float:
        """Fraction of pre-fusion memory stall time removed by FAST fusion.

        This is the "Fusion Efficiency" row of Table 5 (85% for FAST-Large on
        EfficientNet-B7): how much of the idle DRAM-wait time fusion
        recovered.
        """
        stall_pre = sum(
            max(0.0, r.pre_fusion_cycles - r.busy_cycles) for r in self.records
        )
        stall_post = sum(
            max(0.0, cycles - r.busy_cycles)
            for r, cycles in zip(self.records, self._cycles())
        )
        if stall_pre <= 0:
            return 0.0
        return 1.0 - stall_post / stall_pre

    # ------------------------------------------------------------------
    # Attribution breakdowns
    # ------------------------------------------------------------------
    def runtime_fraction_by_op_type(self, post_fusion: bool = True) -> Dict[OpType, float]:
        """Fraction of execution time attributed to each (primary) op type."""
        totals: Dict[OpType, float] = {}
        for region, cycles in zip(self.records, self._cycles(post_fusion)):
            totals[region.primary_op_type] = totals.get(region.primary_op_type, 0.0) + cycles
        grand_total = sum(totals.values())
        if grand_total <= 0:
            return {k: 0.0 for k in totals}
        return {k: v / grand_total for k, v in totals.items()}

    def flop_fraction_by_op_type(self) -> Dict[OpType, float]:
        """Fraction of useful FLOPs attributed to each (primary) op type."""
        totals: Dict[OpType, float] = {}
        for region in self.records:
            totals[region.primary_op_type] = totals.get(region.primary_op_type, 0.0) + region.flops
        grand_total = sum(totals.values())
        if grand_total <= 0:
            return {k: 0.0 for k in totals}
        return {k: v / grand_total for k, v in totals.items()}

    def runtime_fraction_by(self, classify: Callable[[str], str], post_fusion: bool = True) -> Dict[str, float]:
        """Fraction of execution time grouped by an arbitrary op-name classifier.

        A region's time is split across its member ops proportionally to each
        op's busy cycles (ops with no recorded busy time share the remainder
        equally), so vector ops fused into a matrix op's region — e.g. the
        softmax following the attention-score einsum — are still attributed
        to their own component.  Used for the BERT breakdown of Figure 5 with
        :func:`repro.workloads.bert.op_component` as the classifier.
        """
        totals: Dict[str, float] = {}
        for region, cycles in zip(self.regions, self._cycles(post_fusion)):
            busy = region.op_busy_cycles or {}
            busy_total = sum(busy.values())
            if busy_total > 0:
                for op_name in region.op_names:
                    share = busy.get(op_name, 0.0) / busy_total
                    key = classify(op_name)
                    totals[key] = totals.get(key, 0.0) + cycles * share
            else:
                anchor = region.op_names[0] if region.op_names else region.name
                key = classify(anchor)
                totals[key] = totals.get(key, 0.0) + cycles
        grand_total = sum(totals.values())
        if grand_total <= 0:
            return {k: 0.0 for k in totals}
        return {k: v / grand_total for k, v in totals.items()}

    def per_layer_utilization(self, matrix_only: bool = True) -> List[float]:
        """Per-region achieved fraction of peak FLOPs (Figures 4 and 14)."""
        utilizations = []
        for region, cycles in zip(self.records, self._cycles()):
            if matrix_only and region.primary_op_type not in (
                OpType.CONV2D,
                OpType.DEPTHWISE_CONV2D,
                OpType.MATMUL,
                OpType.EINSUM,
            ):
                continue
            if cycles <= 0:
                utilizations.append(0.0)
                continue
            utilizations.append(
                min(1.0, region.flops / (cycles * self.peak_flops_per_cycle))
            )
        return utilizations

    def summary(self) -> Dict[str, float]:
        """Headline metrics as a flat dictionary."""
        return {
            "workload": self.workload,
            "batch_size": self.batch_size,
            "qps": self.qps,
            "latency_ms": self.latency_ms,
            "compute_utilization": self.compute_utilization,
            "op_intensity_pre_fusion": self.operational_intensity(post_fusion=False),
            "op_intensity_post_fusion": self.operational_intensity(post_fusion=True),
            "memory_stall_pre_fusion": self.memory_stall_fraction(post_fusion=False),
            "memory_stall_post_fusion": self.memory_stall_fraction(post_fusion=True),
            "fusion_efficiency": self.fusion_efficiency,
            "schedule_failed": self.schedule_failed,
        }
