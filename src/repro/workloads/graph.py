"""Neural-network graph intermediate representation.

The simulator, compiler passes, and FAST fusion all operate on this IR.  It is
a deliberately small stand-in for the XLA HLO graphs used in the paper: a
directed acyclic graph of :class:`Operation` nodes connected through named
:class:`Tensor` values.  Every tensor records a shape, a dtype, and a *kind*
(activation, weight, or constant) — enough to account for FLOPs, bytes moved,
and on-chip working sets, which is what the FAST search actually consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.workloads.ops import OpType, is_matrix_op, op_flops

__all__ = [
    "DType",
    "TensorKind",
    "Tensor",
    "Operation",
    "Graph",
    "GraphValidationError",
]


class DType(Enum):
    """Numeric datatypes supported by the simulator."""

    BFLOAT16 = "bfloat16"
    FLOAT32 = "float32"
    INT8 = "int8"

    @property
    def bytes(self) -> int:
        """Size of a single element in bytes."""
        return {DType.BFLOAT16: 2, DType.FLOAT32: 4, DType.INT8: 1}[self]


class TensorKind(Enum):
    """Role of a tensor in the network."""

    ACTIVATION = "activation"
    WEIGHT = "weight"
    CONSTANT = "constant"


class GraphValidationError(ValueError):
    """Raised when a graph fails structural validation."""


@dataclass(frozen=True)
class Tensor:
    """A named, shaped value flowing between operations.

    Attributes:
        name: Unique name within the owning graph.
        shape: Dimension sizes; the batch dimension, when present, is first.
        dtype: Element datatype.
        kind: Whether the tensor is an activation, weight, or constant.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: DType = DType.BFLOAT16
    kind: TensorKind = TensorKind.ACTIVATION

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphValidationError("tensor name must be non-empty")
        if any(d <= 0 for d in self.shape):
            raise GraphValidationError(
                f"tensor {self.name!r} has non-positive dimension: {self.shape}"
            )
        # size_bytes is read millions of times across a search (every region's
        # traffic attribution touches it); precompute once per tensor.  The
        # slot is set with object.__setattr__ because the dataclass is frozen;
        # it is not a field, so repr/eq/pickling are unaffected.
        elements = int(math.prod(self.shape)) if self.shape else 1
        object.__setattr__(self, "_size_bytes", elements * self.dtype.bytes)

    @property
    def num_elements(self) -> int:
        """Total element count."""
        return int(math.prod(self.shape)) if self.shape else 1

    @property
    def size_bytes(self) -> int:
        """Storage footprint in bytes."""
        return self._size_bytes

    def with_batch(self, batch: int) -> "Tensor":
        """Return a copy with the leading (batch) dimension replaced.

        Weights and constants are batch-independent and are returned
        unchanged.
        """
        if self.kind is not TensorKind.ACTIVATION or not self.shape:
            return self
        new_shape = (batch,) + self.shape[1:]
        return Tensor(self.name, new_shape, self.dtype, self.kind)


@dataclass
class Operation:
    """A single node of the network graph.

    Attributes:
        name: Unique name within the owning graph.
        op_type: The kind of computation performed.
        inputs: Names of input tensors, in positional order.
        outputs: Names of output tensors.
        attrs: Op-specific attributes (strides, kernel sizes, einsum spec...).
    """

    name: str
    op_type: OpType
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def is_matrix_op(self) -> bool:
        """True when the op runs on the systolic array (Conv/MatMul family)."""
        return is_matrix_op(self.op_type)

    def flops(self, tensors: Dict[str, Tensor]) -> int:
        """Floating-point operations performed by this op."""
        return op_flops(self, tensors)


class Graph:
    """A directed acyclic graph of operations.

    Operations are stored in the order they were added, which must be a valid
    topological (execution) order; :meth:`validate` checks this.  The class
    offers the aggregate accounting that the rest of the stack needs:
    per-tensor producers/consumers, FLOP totals, weight footprints, per-op
    working sets, and batch rewriting.
    """

    def __init__(self, name: str, batch_size: int = 1) -> None:
        self.name = name
        self.batch_size = batch_size
        self._tensors: Dict[str, Tensor] = {}
        self._ops: List[Operation] = []
        self._op_index: Dict[str, int] = {}
        self._producer: Dict[str, str] = {}
        self._consumers: Dict[str, List[str]] = {}
        self.input_names: List[str] = []
        self.output_names: List[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tensor(self, tensor: Tensor) -> Tensor:
        """Register a tensor; names must be unique."""
        if tensor.name in self._tensors:
            raise GraphValidationError(f"duplicate tensor name {tensor.name!r}")
        self._tensors[tensor.name] = tensor
        self._consumers.setdefault(tensor.name, [])
        return tensor

    def add_op(self, op: Operation) -> Operation:
        """Register an operation; all referenced tensors must already exist."""
        if op.name in self._op_index:
            raise GraphValidationError(f"duplicate op name {op.name!r}")
        for tname in list(op.inputs) + list(op.outputs):
            if tname not in self._tensors:
                raise GraphValidationError(
                    f"op {op.name!r} references unknown tensor {tname!r}"
                )
        for tname in op.outputs:
            if tname in self._producer:
                raise GraphValidationError(
                    f"tensor {tname!r} already produced by {self._producer[tname]!r}"
                )
            self._producer[tname] = op.name
        for tname in op.inputs:
            self._consumers.setdefault(tname, []).append(op.name)
        self._op_index[op.name] = len(self._ops)
        self._ops.append(op)
        return op

    def mark_input(self, name: str) -> None:
        """Mark a tensor as a graph input (fed from the host / DRAM)."""
        if name not in self._tensors:
            raise GraphValidationError(f"unknown tensor {name!r}")
        if name not in self.input_names:
            self.input_names.append(name)

    def mark_output(self, name: str) -> None:
        """Mark a tensor as a graph output."""
        if name not in self._tensors:
            raise GraphValidationError(f"unknown tensor {name!r}")
        if name not in self.output_names:
            self.output_names.append(name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def ops(self) -> List[Operation]:
        """Operations in execution order."""
        return list(self._ops)

    @property
    def tensors(self) -> Dict[str, Tensor]:
        """Mapping from tensor name to tensor."""
        return dict(self._tensors)

    def tensor(self, name: str) -> Tensor:
        """Look up a tensor by name."""
        return self._tensors[name]

    def op(self, name: str) -> Operation:
        """Look up an operation by name."""
        return self._ops[self._op_index[name]]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def fingerprint(self) -> str:
        """Stable content hash of the graph structure.

        Covers every op (name, type, operands, attributes) and every tensor
        (name, shape, dtype, kind), so two graphs share a fingerprint only
        when per-op cost models would produce identical results for them.
        Used as a key component by the cross-trial region cache; the
        digest is computed once and memoized (graphs are append-only while
        being built, and built graphs are treated as immutable everywhere).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None and cached[0] == len(self._ops):
            return cached[1]
        import hashlib
        import json

        payload = {
            "name": self.name,
            "batch_size": self.batch_size,
            "ops": [
                [op.name, op.op_type.value, list(op.inputs), list(op.outputs),
                 sorted((k, str(v)) for k, v in op.attrs.items())]
                for op in self._ops
            ],
            "tensors": [
                [t.name, list(t.shape), t.dtype.value, t.kind.value]
                for t in self._tensors.values()
            ],
            "outputs": list(self.output_names),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:24]
        self.__dict__["_fingerprint"] = (len(self._ops), digest)
        return digest

    def producer(self, tensor_name: str) -> Optional[Operation]:
        """Return the op producing ``tensor_name`` or None for graph inputs."""
        op_name = self._producer.get(tensor_name)
        return self.op(op_name) if op_name is not None else None

    def consumers(self, tensor_name: str) -> List[Operation]:
        """Return ops consuming ``tensor_name``."""
        return [self.op(n) for n in self._consumers.get(tensor_name, [])]

    def predecessors(self, op: Operation) -> List[Operation]:
        """Ops producing any of ``op``'s inputs."""
        preds = []
        for tname in op.inputs:
            producer = self.producer(tname)
            if producer is not None and producer not in preds:
                preds.append(producer)
        return preds

    def successors(self, op: Operation) -> List[Operation]:
        """Ops consuming any of ``op``'s outputs."""
        succs = []
        for tname in op.outputs:
            for consumer in self.consumers(tname):
                if consumer not in succs:
                    succs.append(consumer)
        return succs

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that op ordering is a valid topological order."""
        seen = set(self.input_names)
        for tname, tensor in self._tensors.items():
            if tensor.kind in (TensorKind.WEIGHT, TensorKind.CONSTANT):
                seen.add(tname)
        for op in self._ops:
            for tname in op.inputs:
                if tname not in seen and tname in self._producer:
                    producer_idx = self._op_index[self._producer[tname]]
                    if producer_idx >= self._op_index[op.name]:
                        raise GraphValidationError(
                            f"op {op.name!r} consumes {tname!r} before it is produced"
                        )
            seen.update(op.outputs)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_flops(self) -> int:
        """Total FLOPs across all operations."""
        return sum(op.flops(self._tensors) for op in self._ops)

    def weight_bytes(self) -> int:
        """Total bytes of weight/constant tensors."""
        return sum(
            t.size_bytes
            for t in self._tensors.values()
            if t.kind in (TensorKind.WEIGHT, TensorKind.CONSTANT)
        )

    def op_working_set_bytes(self, op: Operation, include_weights: bool = False) -> int:
        """Working set of a single op: its input and output activations.

        Per the paper (Section 4.1) an op's working set is the size of its
        input activations and outputs; weights are accounted separately unless
        ``include_weights`` is set.
        """
        total = 0
        for tname in list(op.inputs) + list(op.outputs):
            tensor = self._tensors[tname]
            if tensor.kind is TensorKind.ACTIVATION or include_weights:
                total += tensor.size_bytes
        return total

    def max_working_set_bytes(self) -> int:
        """The model working set: the largest per-op working set (Table 1)."""
        if not self._ops:
            return 0
        return max(self.op_working_set_bytes(op) for op in self._ops)

    def activation_bytes_total(self) -> int:
        """Sum of all activation tensor footprints (intermediate traffic)."""
        return sum(
            t.size_bytes
            for t in self._tensors.values()
            if t.kind is TensorKind.ACTIVATION
        )

    def matrix_op_flop_fraction(self) -> float:
        """Fraction of FLOPs spent in matrix (systolic-array) ops."""
        total = self.total_flops()
        if total == 0:
            return 0.0
        matrix = sum(
            op.flops(self._tensors) for op in self._ops if op.is_matrix_op
        )
        return matrix / total

    def flops_by_op_type(self) -> Dict[OpType, int]:
        """FLOPs aggregated per op type."""
        result: Dict[OpType, int] = {}
        for op in self._ops:
            result[op.op_type] = result.get(op.op_type, 0) + op.flops(self._tensors)
        return result

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_batch_size(self, batch: int) -> "Graph":
        """Return a copy of the graph with a different batch size.

        Only activation tensors are rescaled; weights are shared across the
        batch.  Ops are copied verbatim (their FLOPs are recomputed lazily
        from the rescaled tensor shapes).
        """
        if batch <= 0:
            raise ValueError("batch size must be positive")
        scaled = Graph(self.name, batch_size=batch)
        for tensor in self._tensors.values():
            scaled.add_tensor(_rescale_batch(tensor, self.batch_size, batch))
        for op in self._ops:
            scaled.add_op(
                Operation(
                    name=op.name,
                    op_type=op.op_type,
                    inputs=list(op.inputs),
                    outputs=list(op.outputs),
                    attrs=dict(op.attrs),
                )
            )
        for name in self.input_names:
            scaled.mark_input(name)
        for name in self.output_names:
            scaled.mark_output(name)
        return scaled

    def subgraph(self, op_names: Sequence[str], name: Optional[str] = None) -> "Graph":
        """Extract a subgraph containing only the named ops (in order)."""
        wanted = set(op_names)
        sub = Graph(name or f"{self.name}.sub", batch_size=self.batch_size)
        needed_tensors: List[str] = []
        for op in self._ops:
            if op.name in wanted:
                for tname in list(op.inputs) + list(op.outputs):
                    if tname not in needed_tensors:
                        needed_tensors.append(tname)
        for tname in needed_tensors:
            sub.add_tensor(self._tensors[tname])
        for op in self._ops:
            if op.name in wanted:
                sub.add_op(
                    Operation(op.name, op.op_type, list(op.inputs), list(op.outputs), dict(op.attrs))
                )
        return sub

    def summary(self) -> str:
        """Human-readable one-line-per-op summary."""
        lines = [f"Graph {self.name!r}: {len(self._ops)} ops, batch={self.batch_size}"]
        for op in self._ops:
            out_shapes = ", ".join(str(self._tensors[t].shape) for t in op.outputs)
            lines.append(f"  {op.name:40s} {op.op_type.value:24s} -> {out_shapes}")
        return "\n".join(lines)


def _rescale_batch(tensor: Tensor, old_batch: int, new_batch: int) -> Tensor:
    """Rescale the leading dimension of an activation tensor."""
    if tensor.kind is not TensorKind.ACTIVATION or not tensor.shape:
        return tensor
    if tensor.shape[0] != old_batch:
        # Not batch-major (e.g. scalar stats); leave unchanged.
        return tensor
    return Tensor(tensor.name, (new_batch,) + tensor.shape[1:], tensor.dtype, tensor.kind)
