"""Reference writer of format-1 op and region store payloads.

Format 1 wrote each payload as a JSON object of named fields.  The program
writes format 2 (positional rows) and still reads format-1 lines, so the
tests that build format-1 lines take these encoders, kept as that format's
writer had them, as the reference.
"""

from __future__ import annotations

from typing import Dict

from repro.mapping.costmodel import OpCost


def opcost_to_dict(cost: OpCost) -> Dict[str, object]:
    """JSON-compatible encoding of an :class:`OpCost` (exact float round-trip)."""
    return {
        "op_name": cost.op_name,
        "op_type": cost.op_type.value,
        "flops": cost.flops,
        "padded_flops": cost.padded_flops,
        "compute_cycles": cost.compute_cycles,
        "vector_cycles": cost.vector_cycles,
        "dram_input_bytes": cost.dram_input_bytes,
        "dram_weight_bytes": cost.dram_weight_bytes,
        "dram_output_bytes": cost.dram_output_bytes,
        "utilization": cost.utilization,
        "dataflow": cost.dataflow.value if cost.dataflow is not None else None,
        "tiling": (
            [cost.tiling.m_tile, cost.tiling.n_tile, cost.tiling.k_tile]
            if cost.tiling is not None
            else None
        ),
        "schedule_failed": cost.schedule_failed,
    }


def region_entry_to_dict(entry: tuple) -> Dict[str, object]:
    """JSON-compatible encoding of a cached region entry.

    Entries are either the ``(None,)`` schedule-failure sentinel or a
    ``(RegionPerformance, RegionStats)`` pair; floats round-trip exactly.
    Records carry no fusion outcome, but the encoding still writes
    ``"post_fusion_cycles"`` (equal to ``"pre_fusion_cycles"``, the value
    every cached record held when records carried one), so region stores of
    either format read each other's entries.
    """
    if entry[0] is None:
        return {"failed": True}
    record, stats = entry
    return {
        "record": {
            "index": record.index,
            "name": record.name,
            "op_names": list(record.op_names),
            "primary_op_type": record.primary_op_type.value,
            "flops": record.flops,
            "compute_cycles": record.compute_cycles,
            "vector_cycles": record.vector_cycles,
            "dram_input_bytes": record.dram_input_bytes,
            "dram_weight_bytes": record.dram_weight_bytes,
            "dram_output_bytes": record.dram_output_bytes,
            "pre_fusion_cycles": record.pre_fusion_cycles,
            "post_fusion_cycles": record.pre_fusion_cycles,
            "matrix_utilization": record.matrix_utilization,
            "op_busy_cycles": dict(record.op_busy_cycles),
        },
        "stats": {
            "index": stats.index,
            "name": stats.name,
            "busy_cycles": stats.busy_cycles,
            "t_max_cycles": stats.t_max_cycles,
            "input_dram_cycles": stats.input_dram_cycles,
            "weight_dram_cycles": stats.weight_dram_cycles,
            "output_dram_cycles": stats.output_dram_cycles,
            "input_bytes": stats.input_bytes,
            "weight_bytes": stats.weight_bytes,
            "output_bytes": stats.output_bytes,
            "blocking_gm_bytes": stats.blocking_gm_bytes,
            "predecessor": stats.predecessor,
            "is_graph_output": stats.is_graph_output,
        },
    }
