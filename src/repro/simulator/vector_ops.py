"""Cost models for vector (non-MAC) operations on the VPU.

Vector ops — softmax, layer/batch normalization, element-wise arithmetic,
pooling, reductions — execute on the per-PE Vector Processing Unit rather
than the systolic array.  Their throughput is one lane-operation per lane per
cycle, so an op's VPU time is its lane-operation count divided by the chip's
total lane count.  Softmax additionally gets a lowering-dependent DRAM
traffic multiplier (three-pass vs two-pass, Section 5.6).
"""

from __future__ import annotations

from typing import Dict

from repro.compiler.softmax import SoftmaxCostFactors, THREE_PASS_SOFTMAX
from repro.hardware.datapath import DatapathConfig
from repro.mapping.costmodel import OpCost
from repro.workloads.graph import Operation, Tensor, TensorKind
from repro.workloads.ops import OpType, op_flops

__all__ = ["vector_op_cost", "vector_cost_cache_key", "vpu_lanes_per_core"]

# Ops that are pure metadata transforms and move no data at execution time.
_ZERO_COST_TYPES = {OpType.RESHAPE, OpType.SLICE}


def vpu_lanes_per_core(config: DatapathConfig) -> int:
    """Total VPU lanes available in one core."""
    return config.num_pes * config.vpu_lanes_per_pe


def vector_cost_cache_key(
    fingerprint: str,
    op_name: str,
    lanes: int,
    softmax_factors: SoftmaxCostFactors,
) -> tuple:
    """Cross-trial cache key for :func:`vector_op_cost`.

    A vector op's cost is a pure function of the op structure (the graph's
    content ``fingerprint`` plus the op name), the core's VPU ``lanes``, and
    the softmax lowering factors — nothing else about the datapath matters.
    """
    return (
        "vector",
        fingerprint,
        op_name,
        lanes,
        softmax_factors.input_traffic_factor,
        softmax_factors.output_traffic_factor,
        softmax_factors.flops_factor,
    )


def vector_op_cost(
    op: Operation,
    tensors: Dict[str, Tensor],
    config: DatapathConfig,
    softmax_factors: SoftmaxCostFactors = THREE_PASS_SOFTMAX,
) -> OpCost:
    """Compute the VPU cost of a vector op on one core of ``config``.

    The returned DRAM byte counts describe the op in isolation (its inputs
    read from and outputs written to DRAM); the simulator only charges the
    fraction of that traffic crossing a fusion-region boundary.
    """
    flops = op_flops(op, tensors)
    effective_flops = float(flops)

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
        effective_flops *= softmax_factors.flops_factor
    elif op.op_type is OpType.LAYERNORM:
        # Mean/variance pass plus normalization pass: input read twice.
        input_bytes *= 2.0

    lanes = max(1, vpu_lanes_per_core(config))
    vector_cycles = effective_flops / lanes

    return OpCost(
        op_name=op.name,
        op_type=op.op_type,
        flops=flops,
        padded_flops=int(effective_flops),
        compute_cycles=0.0,
        vector_cycles=vector_cycles,
        dram_input_bytes=float(input_bytes),
        dram_weight_bytes=float(weight_bytes),
        dram_output_bytes=float(output_bytes),
        utilization=0.0,
    )
