"""Cost models for vector (non-MAC) operations on the VPU.

Vector ops — softmax, layer/batch normalization, element-wise arithmetic,
pooling, reductions — execute on the per-PE Vector Processing Unit rather
than the systolic array.  Their throughput is one lane-operation per lane per
cycle, so an op's VPU time is its lane-operation count (its *lane work*)
divided by the chip's total lane count.  Lane work depends on the graph and
the softmax lowering alone (Section 5.6 scales softmax's), so the simulator
computes it once per compiled graph, in its region plans.  Softmax
additionally gets a lowering-dependent DRAM traffic multiplier (three-pass
vs two-pass).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.compiler.softmax import SoftmaxCostFactors, THREE_PASS_SOFTMAX
from repro.hardware.datapath import DatapathConfig
from repro.mapping.costmodel import OpCost
from repro.workloads.graph import Operation, Tensor, TensorKind
from repro.workloads.ops import OpType, op_flops

__all__ = ["vector_op_cost", "vector_op_work", "vpu_lanes_per_core"]

# Ops that are pure metadata transforms and move no data at execution time.
_ZERO_COST_TYPES = {OpType.RESHAPE, OpType.SLICE}


def vpu_lanes_per_core(config: DatapathConfig) -> int:
    """Total VPU lanes available in one core."""
    return config.num_pes * config.vpu_lanes_per_pe


def vector_op_work(
    op: Operation,
    tensors: Dict[str, Tensor],
    softmax_factors: SoftmaxCostFactors,
) -> Tuple[int, float]:
    """A vector op's ``(flops, lane_work)``: its VPU time is ``lane_work / lanes``.

    Reshape and slice move no data and do no work.  Softmax's lane work is
    its FLOPs scaled by the lowering's ``flops_factor``.
    """
    if op.op_type in _ZERO_COST_TYPES:
        return 0, 0.0
    flops = op_flops(op, tensors)
    if op.op_type is OpType.SOFTMAX:
        return flops, float(flops) * softmax_factors.flops_factor
    return flops, float(flops)


def vector_op_cost(
    op: Operation,
    tensors: Dict[str, Tensor],
    config: DatapathConfig,
    softmax_factors: SoftmaxCostFactors = THREE_PASS_SOFTMAX,
) -> OpCost:
    """Compute the VPU cost of a vector op on one core of ``config``.

    The returned DRAM byte counts describe the op in isolation (its inputs
    read from and outputs written to DRAM).  The simulator reads none of
    them: it prices vector ops by :func:`vector_op_work` and takes a region's
    traffic from its plan.
    """
    flops, lane_work = vector_op_work(op, tensors, softmax_factors)

    input_bytes = sum(
        tensors[name].size_bytes
        for name in op.inputs
        if tensors[name].kind is TensorKind.ACTIVATION
    )
    weight_bytes = sum(
        tensors[name].size_bytes
        for name in op.inputs
        if tensors[name].kind in (TensorKind.WEIGHT, TensorKind.CONSTANT)
    )
    output_bytes = sum(tensors[name].size_bytes for name in op.outputs)

    if op.op_type in _ZERO_COST_TYPES:
        return OpCost(
            op_name=op.name,
            op_type=op.op_type,
            flops=0,
            padded_flops=0,
        )

    if op.op_type is OpType.SOFTMAX:
        input_bytes *= softmax_factors.input_traffic_factor
        output_bytes *= softmax_factors.output_traffic_factor
    elif op.op_type is OpType.LAYERNORM:
        # Mean/variance pass plus normalization pass: input read twice.
        input_bytes *= 2.0

    lanes = max(1, vpu_lanes_per_core(config))

    return OpCost(
        op_name=op.name,
        op_type=op.op_type,
        flops=flops,
        padded_flops=int(lane_work),
        compute_cycles=0.0,
        vector_cycles=lane_work / lanes,
        dram_input_bytes=float(input_bytes),
        dram_weight_bytes=float(weight_bytes),
        dram_output_bytes=float(output_bytes),
        utilization=0.0,
    )
