"""Roofline analysis helpers.

The roofline model relates a workload's operational intensity (FLOPs per
DRAM byte) to the performance an accelerator can sustain: below the
*ridgepoint* (peak FLOPs divided by peak bandwidth) the workload is memory
bound; above it, compute bound.  Section 4.1 of the paper uses this framing
to show that EfficientNet (13-35 FLOPS/B un-fused) cannot run at full speed
on a TPU-v3 (ridgepoint 137 FLOPS/B) without better fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.datapath import DatapathConfig

__all__ = ["RooflinePoint", "roofline_point", "attainable_flops"]


@dataclass(frozen=True)
class RooflinePoint:
    """A workload's position on an accelerator's roofline."""

    operational_intensity: float
    ridgepoint: float
    attainable_flops: float
    peak_flops: float
    memory_bound: bool


def attainable_flops(config: DatapathConfig, operational_intensity: float) -> float:
    """Peak-attainable FLOP/s at a given operational intensity."""
    if operational_intensity <= 0:
        return 0.0
    bandwidth_bound = operational_intensity * config.dram_bandwidth_bytes_per_s
    return min(config.peak_matrix_flops, bandwidth_bound)


def roofline_point(config: DatapathConfig, operational_intensity: float) -> RooflinePoint:
    """Classify a workload on the accelerator's roofline."""
    ridge = config.operational_intensity_ridgepoint
    attainable = attainable_flops(config, operational_intensity)
    return RooflinePoint(
        operational_intensity=operational_intensity,
        ridgepoint=ridge,
        attainable_flops=attainable,
        peak_flops=config.peak_matrix_flops,
        memory_bound=operational_intensity < ridge,
    )
