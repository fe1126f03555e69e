"""Per-operation cost records produced by the mapper and vector models.

An :class:`OpCost` captures everything the simulator and the fusion ILP need
to know about one operation on a given datapath: compute cycles on the
systolic arrays, cycles on the VPU, DRAM traffic split by tensor role, the
achieved utilization, and whether the op could be scheduled at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.mapping.dataflow import Dataflow
from repro.mapping.tiling import Tiling
from repro.workloads.ops import OpType

__all__ = ["OpCost"]


@dataclass(frozen=True)
class OpCost:
    """Cost of executing one operation on a datapath (single core).

    Attributes:
        op_name: Name of the graph operation.
        op_type: Kind of operation.
        flops: Useful FLOPs (excludes padding waste).
        padded_flops: FLOPs actually issued, including padding waste.
        compute_cycles: Cycles the systolic arrays are busy.
        vector_cycles: Cycles the VPU is busy.
        dram_input_bytes: DRAM traffic for input activations (pre-fusion).
        dram_weight_bytes: DRAM traffic for weights (pre-fusion).
        dram_output_bytes: DRAM traffic for output activations (pre-fusion).
        utilization: Achieved fraction of peak MAC throughput while the op
            runs (0 for pure vector ops).
        dataflow: Mapping scheme chosen by the mapper (matrix ops only).
        tiling: Tile sizes chosen by the mapper (matrix ops only).
        schedule_failed: True when no valid mapping exists; such design
            points are invalid per Eq. 5.
    """

    op_name: str
    op_type: OpType
    flops: int = 0
    padded_flops: int = 0
    compute_cycles: float = 0.0
    vector_cycles: float = 0.0
    dram_input_bytes: float = 0.0
    dram_weight_bytes: float = 0.0
    dram_output_bytes: float = 0.0
    utilization: float = 0.0
    dataflow: Optional[Dataflow] = None
    tiling: Optional[Tiling] = None
    schedule_failed: bool = False

    # ------------------------------------------------------------------
    @property
    def dram_bytes(self) -> float:
        """Total pre-fusion DRAM traffic."""
        return self.dram_input_bytes + self.dram_weight_bytes + self.dram_output_bytes

    @property
    def busy_cycles(self) -> float:
        """Cycles of compute work (systolic + VPU, which overlap poorly)."""
        return self.compute_cycles + self.vector_cycles

    def execution_cycles(
        self,
        dram_bytes_per_cycle: float,
        exclude_input: bool = False,
        exclude_weight: bool = False,
        exclude_output: bool = False,
    ) -> float:
        """Execution time in cycles: max of compute and DRAM transfer time.

        Transfers overlap with compute (the simulator's double-buffering
        assumption), so the op takes the longer of the two.  The ``exclude_*``
        flags model tensors that FAST fusion pinned in the Global Memory and
        therefore generate no DRAM traffic.
        """
        traffic = 0.0
        if not exclude_input:
            traffic += self.dram_input_bytes
        if not exclude_weight:
            traffic += self.dram_weight_bytes
        if not exclude_output:
            traffic += self.dram_output_bytes
        dram_cycles = traffic / dram_bytes_per_cycle if dram_bytes_per_cycle > 0 else 0.0
        return max(self.busy_cycles, dram_cycles)

    def with_traffic_scaled(self, factor: float) -> "OpCost":
        """Return a copy with all DRAM traffic scaled by ``factor``."""
        return replace(
            self,
            dram_input_bytes=self.dram_input_bytes * factor,
            dram_weight_bytes=self.dram_weight_bytes * factor,
            dram_output_bytes=self.dram_output_bytes * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for reports."""
        return {
            "op_name": self.op_name,
            "op_type": self.op_type.value,
            "flops": self.flops,
            "compute_cycles": self.compute_cycles,
            "vector_cycles": self.vector_cycles,
            "dram_bytes": self.dram_bytes,
            "utilization": self.utilization,
            "schedule_failed": self.schedule_failed,
        }
