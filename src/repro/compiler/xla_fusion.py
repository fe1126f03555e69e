"""XLA-style fusion region construction.

XLA can create large fusions, but each generated HLO fusion region contains
at most one matrix operation (Conv2D, einsum, matmul — Section 2).  This pass
reproduces that behaviour on our graph IR: it walks the graph in execution
order and greedily attaches element-wise / activation / normalization ops to
the region of the matrix op that produces their input, subject to the
one-matrix-op-per-region rule.  The resulting regions are the granularity at
which the simulator accounts DRAM traffic (intermediate tensors inside a
region never leave the chip) and the granularity on which FAST fusion's ILP
later operates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.workloads.graph import Graph, Operation, TensorKind
from repro.workloads.ops import OpType, is_matrix_op

__all__ = ["FusionRegion", "build_fusion_regions"]

# Op types that XLA will happily fuse into a producer's region.
_FUSABLE_TYPES = {
    OpType.ELEMENTWISE_ADD,
    OpType.ELEMENTWISE_MUL,
    OpType.ACTIVATION,
    OpType.BATCHNORM,
    OpType.LAYERNORM,
    OpType.SOFTMAX,
    OpType.POOLING,
    OpType.REDUCE,
    OpType.TRANSPOSE,
    OpType.RESHAPE,
    OpType.CONCAT,
    OpType.SLICE,
}


#: A matrix op this small is treated as an epilogue computation (XLA fuses
#: small dots — e.g. squeeze-and-excite FC layers on pooled features — into
#: the surrounding fusion rather than emitting a separate kernel).  The
#: thresholds are deliberately tight so that real projection/attention
#: matmuls (BERT QKV, classifier heads) still anchor their own regions.
_SMALL_MATRIX_OUTPUT_ELEMENTS = 1 << 16
_SMALL_MATRIX_WEIGHT_ELEMENTS = 1 << 17


@dataclass
class FusionRegion:
    """A group of ops executed as one fused kernel.

    Attributes:
        index: Execution-order index of the region.
        ops: Member operations in execution order.
        matrix_op: The region's *anchor* matrix op, if any (small epilogue
            matrix ops such as squeeze-and-excite FCs may also be members).
        input_tensors: Region-external activation inputs (read from DRAM or
            Global Memory).
        output_tensors: Activation outputs consumed outside the region (or
            graph outputs).
        weight_tensors: Weight/constant tensors read by the region.
        internal_tensors: Activations produced and consumed entirely within
            the region (never leave the chip).
    """

    index: int
    ops: List[Operation] = field(default_factory=list)
    matrix_op: Optional[Operation] = None
    input_tensors: List[str] = field(default_factory=list)
    output_tensors: List[str] = field(default_factory=list)
    weight_tensors: List[str] = field(default_factory=list)
    internal_tensors: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Readable region name (anchored on the matrix op when present)."""
        anchor = self.matrix_op.name if self.matrix_op else (
            self.ops[0].name if self.ops else f"region{self.index}"
        )
        return f"fusion[{anchor}]"

    def input_bytes(self, graph: Graph) -> int:
        """Bytes of region-external activation inputs."""
        return sum(graph.tensor(t).size_bytes for t in self.input_tensors)

    def output_bytes(self, graph: Graph) -> int:
        """Bytes of region-external activation outputs."""
        return sum(graph.tensor(t).size_bytes for t in self.output_tensors)

    def weight_bytes(self, graph: Graph) -> int:
        """Bytes of weights read by the region."""
        return sum(graph.tensor(t).size_bytes for t in self.weight_tensors)


def build_fusion_regions(graph: Graph) -> List[FusionRegion]:
    """Partition a graph into XLA-style fusion regions.

    The partition respects execution order: a region is a contiguous run of
    ops in which at most one op is a matrix op and every non-matrix op's
    activation inputs are produced either inside the region or before it.
    """
    op_region: Dict[str, int] = {}
    regions: List[FusionRegion] = []

    def new_region() -> FusionRegion:
        region = FusionRegion(index=len(regions))
        regions.append(region)
        return region

    current: Optional[FusionRegion] = None
    for op in graph.ops:
        if is_matrix_op(op.op_type):
            if current is not None and _is_small_matrix_op(op, graph):
                # Small dots (squeeze-and-excite FCs and the like) are fused
                # into the surrounding region as epilogue computations when
                # they consume one of its values, rather than anchoring a
                # region of their own.
                producer_regions = {
                    op_region[producer.name]
                    for producer in graph.predecessors(op)
                    if producer.name in op_region
                }
                if not producer_regions or current.index in producer_regions:
                    current.ops.append(op)
                    op_region[op.name] = current.index
                    continue
            # A large matrix op always starts a new region (one anchor matrix
            # op per region, matching XLA's HLO fusions).
            current = new_region()
            current.matrix_op = op
            current.ops.append(op)
            op_region[op.name] = current.index
        else:
            # Attach to the producing region when possible.
            producer_regions = {
                op_region[producer.name]
                for producer in graph.predecessors(op)
                if producer.name in op_region
            }
            attach_to: Optional[FusionRegion] = None
            if current is not None and op.op_type in _FUSABLE_TYPES:
                # Fuse into the current region if this op consumes something
                # the current region produced (or has no graph-internal
                # producer at all, e.g. ops reading graph inputs).
                if not producer_regions or current.index in producer_regions:
                    attach_to = current
            if attach_to is None:
                current = new_region()
                attach_to = current
            attach_to.ops.append(op)
            op_region[op.name] = attach_to.index

    _annotate_region_tensors(graph, regions, op_region)
    return regions


def _is_small_matrix_op(op: Operation, graph: Graph) -> bool:
    """Whether a matrix op is small enough to fuse as an epilogue."""
    output_elements = sum(graph.tensor(t).num_elements for t in op.outputs)
    weight_elements = sum(
        graph.tensor(t).num_elements
        for t in op.inputs
        if graph.tensor(t).kind in (TensorKind.WEIGHT, TensorKind.CONSTANT)
    )
    return (
        output_elements <= _SMALL_MATRIX_OUTPUT_ELEMENTS
        and weight_elements <= _SMALL_MATRIX_WEIGHT_ELEMENTS
    )


def _annotate_region_tensors(
    graph: Graph, regions: List[FusionRegion], op_region: Dict[str, int]
) -> None:
    """Fill in the external/internal tensor lists of every region."""
    graph_outputs: Set[str] = set(graph.output_names)
    for region in regions:
        member_names = {op.name for op in region.ops}
        produced: Set[str] = set()
        for op in region.ops:
            produced.update(op.outputs)

        inputs: List[str] = []
        weights: List[str] = []
        for op in region.ops:
            for tname in op.inputs:
                tensor = graph.tensor(tname)
                if tensor.kind in (TensorKind.WEIGHT, TensorKind.CONSTANT):
                    if tname not in weights:
                        weights.append(tname)
                elif tname not in produced:
                    if tname not in inputs:
                        inputs.append(tname)

        outputs: List[str] = []
        internal: List[str] = []
        for tname in produced:
            consumers = graph.consumers(tname)
            escapes = tname in graph_outputs or any(
                consumer.name not in member_names for consumer in consumers
            )
            if escapes:
                outputs.append(tname)
            else:
                internal.append(tname)

        region.input_tensors = inputs
        region.output_tensors = sorted(outputs)
        region.weight_tensors = weights
        region.internal_tensors = sorted(internal)
