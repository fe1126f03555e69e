"""Accelerator datapath configuration (the paper's Table 3 search space).

A datapath is a grid of processing elements (PEs) connected by a mesh
network.  Each PE contains a systolic array that performs a matrix-vector
multiply every cycle plus a Vector Processing Unit (VPU) for non-MAC vector
operations.  The memory hierarchy has per-PE L1 scratchpads (private or
shared), optional L2 buffers, an optional shared Global Memory, and a GDDR6
(or HBM) DRAM interface.

Setting the systolic array dimensions to 1 models scalar or vector PEs;
setting ``l1_buffer_config`` to ``SHARED`` with no L2 and a large Global
Memory models the TPU family; per-PE private buffers model Eyeriss-style
designs — the template is an approximate superset of popular accelerator
families, as described in Section 5.4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, Tuple

__all__ = [
    "BufferConfig",
    "L2Config",
    "MemoryTechnology",
    "DatapathConfig",
    "DatapathValidationError",
    "KIB",
    "MIB",
]

KIB = 1024
MIB = 1024 * 1024


class BufferConfig(Enum):
    """L1 buffer sharing mode."""

    PRIVATE = "private"
    SHARED = "shared"


class L2Config(Enum):
    """L2 buffer mode."""

    DISABLED = "disabled"
    PRIVATE = "private"
    SHARED = "shared"


class MemoryTechnology(Enum):
    """Off-chip memory technology; determines per-channel bandwidth and energy."""

    GDDR6 = "gddr6"
    HBM2 = "hbm2"

    @property
    def bandwidth_per_channel_gbps(self) -> float:
        """Peak bandwidth of a single channel in GB/s."""
        return {MemoryTechnology.GDDR6: 56.0, MemoryTechnology.HBM2: 450.0}[self]

    @property
    def energy_per_byte_pj(self) -> float:
        """Access energy in pJ per byte (device + PHY)."""
        return {MemoryTechnology.GDDR6: 60.0, MemoryTechnology.HBM2: 31.0}[self]

    @property
    def phy_area_mm2_per_channel(self) -> float:
        """PHY + controller area per channel in mm^2."""
        return {MemoryTechnology.GDDR6: 6.0, MemoryTechnology.HBM2: 20.0}[self]

    @property
    def static_power_w_per_channel(self) -> float:
        """Idle/static power per channel in watts."""
        return {MemoryTechnology.GDDR6: 1.5, MemoryTechnology.HBM2: 4.0}[self]


class DatapathValidationError(ValueError):
    """Raised when a datapath configuration is structurally invalid."""


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class DatapathConfig:
    """A point in the Table 3 datapath search space.

    Attributes:
        pes_x_dim / pes_y_dim: PE grid dimensions (1..256, powers of two).
        systolic_array_x / systolic_array_y: Per-PE systolic array dimensions.
            The x dimension is the reduction (dot-product) dimension, the y
            dimension holds output features.
        vector_unit_multiplier: VPU lane count per PE as a multiple of
            ``systolic_array_x`` (1..16).
        l1_buffer_config: Private per-PE or shared L1 scratchpads.
        l1_input_buffer_kib / l1_weight_buffer_kib / l1_output_buffer_kib:
            L1 scratchpad capacities per PE, in KiB (1..1024).
        l2_buffer_config: Disabled / private / shared L2.
        l2_*_multiplier: L2 capacity as a multiple of the corresponding L1
            buffer (1..128).
        l3_global_buffer_mib: Shared Global Memory capacity in MiB (0..256).
        gddr6_channels: DRAM channel count (1..8).
        native_batch_size: Batch size the design is optimized to serve.
        memory_technology: Off-chip memory type (GDDR6 default; HBM2 models
            the TPU-v3 baseline).
        clock_ghz: Core clock frequency.
        num_cores: Number of independent cores (TPU-v3 is dual-core; FAST
            designs are single-core).
        use_two_pass_softmax: Enable the two-pass softmax transform
            (Section 5.6).
        enable_fast_fusion: Enable the FAST fusion ILP pass (Section 5.5).
    """

    pes_x_dim: int = 8
    pes_y_dim: int = 8
    systolic_array_x: int = 32
    systolic_array_y: int = 32
    vector_unit_multiplier: int = 1
    l1_buffer_config: BufferConfig = BufferConfig.SHARED
    l1_input_buffer_kib: int = 32
    l1_weight_buffer_kib: int = 32
    l1_output_buffer_kib: int = 32
    l2_buffer_config: L2Config = L2Config.DISABLED
    l2_input_buffer_multiplier: int = 1
    l2_weight_buffer_multiplier: int = 1
    l2_output_buffer_multiplier: int = 1
    l3_global_buffer_mib: int = 16
    gddr6_channels: int = 8
    native_batch_size: int = 8
    memory_technology: MemoryTechnology = MemoryTechnology.GDDR6
    clock_ghz: float = 0.94
    num_cores: int = 1
    use_two_pass_softmax: bool = False
    enable_fast_fusion: bool = True

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        pow2_fields = {
            "pes_x_dim": (1, 256),
            "pes_y_dim": (1, 256),
            "systolic_array_x": (1, 256),
            "systolic_array_y": (1, 256),
            "vector_unit_multiplier": (1, 16),
            "l1_input_buffer_kib": (1, 1024),
            "l1_weight_buffer_kib": (1, 1024),
            "l1_output_buffer_kib": (1, 1024),
            "l2_input_buffer_multiplier": (1, 128),
            "l2_weight_buffer_multiplier": (1, 128),
            "l2_output_buffer_multiplier": (1, 128),
            "gddr6_channels": (1, 8),
            "native_batch_size": (1, 256),
        }
        for name, (lo, hi) in pow2_fields.items():
            value = getattr(self, name)
            if not isinstance(value, int) or not _is_power_of_two(value) or not lo <= value <= hi:
                raise DatapathValidationError(
                    f"{name} must be a power of two in [{lo}, {hi}], got {value!r}"
                )
        if self.l3_global_buffer_mib != 0 and not _is_power_of_two(self.l3_global_buffer_mib):
            raise DatapathValidationError(
                f"l3_global_buffer_mib must be 0 or a power of two, got {self.l3_global_buffer_mib}"
            )
        if not 0 <= self.l3_global_buffer_mib <= 256:
            raise DatapathValidationError("l3_global_buffer_mib must be in [0, 256]")
        if self.clock_ghz <= 0:
            raise DatapathValidationError("clock_ghz must be positive")
        if self.num_cores < 1:
            raise DatapathValidationError("num_cores must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """PEs per core."""
        return self.pes_x_dim * self.pes_y_dim

    @property
    def total_pes(self) -> int:
        """PEs across all cores."""
        return self.num_pes * self.num_cores

    @property
    def macs_per_pe(self) -> int:
        """Multiply-accumulate units in one PE's systolic array."""
        return self.systolic_array_x * self.systolic_array_y

    @property
    def total_macs(self) -> int:
        """MAC units across the whole chip."""
        return self.macs_per_pe * self.total_pes

    @property
    def vpu_lanes_per_pe(self) -> int:
        """Vector unit lanes in one PE."""
        return self.vector_unit_multiplier * self.systolic_array_x

    @property
    def total_vpu_lanes(self) -> int:
        """Vector lanes across the whole chip."""
        return self.vpu_lanes_per_pe * self.total_pes

    @property
    def peak_matrix_flops(self) -> float:
        """Peak systolic-array FLOP/s (2 FLOPs per MAC per cycle)."""
        return 2.0 * self.total_macs * self.clock_ghz * 1e9

    @property
    def dram_bandwidth_bytes_per_s(self) -> float:
        """Aggregate off-chip bandwidth in bytes/s."""
        return (
            self.gddr6_channels
            * self.memory_technology.bandwidth_per_channel_gbps
            * 1e9
        )

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Off-chip bandwidth expressed in bytes per core clock cycle."""
        return self.dram_bandwidth_bytes_per_s / (self.clock_ghz * 1e9)

    @property
    def l1_bytes_per_pe(self) -> int:
        """Total L1 capacity attached to one PE (input + weight + output)."""
        return (
            self.l1_input_buffer_kib
            + self.l1_weight_buffer_kib
            + self.l1_output_buffer_kib
        ) * KIB

    @property
    def l1_total_bytes(self) -> int:
        """Total L1 capacity across the chip."""
        return self.l1_bytes_per_pe * self.total_pes

    @property
    def l2_bytes_per_pe(self) -> int:
        """Total L2 capacity attached to one PE; 0 when L2 is disabled."""
        if self.l2_buffer_config is L2Config.DISABLED:
            return 0
        return (
            self.l1_input_buffer_kib * self.l2_input_buffer_multiplier
            + self.l1_weight_buffer_kib * self.l2_weight_buffer_multiplier
            + self.l1_output_buffer_kib * self.l2_output_buffer_multiplier
        ) * KIB

    @property
    def l2_total_bytes(self) -> int:
        """Total L2 capacity across the chip."""
        return self.l2_bytes_per_pe * self.total_pes

    @property
    def global_buffer_bytes(self) -> int:
        """Global Memory capacity per core in bytes."""
        return self.l3_global_buffer_mib * MIB

    @property
    def total_global_buffer_bytes(self) -> int:
        """Global Memory capacity across all cores."""
        return self.global_buffer_bytes * self.num_cores

    @property
    def total_sram_bytes(self) -> int:
        """All on-chip SRAM (L1 + L2 + Global Memory)."""
        return self.l1_total_bytes + self.l2_total_bytes + self.total_global_buffer_bytes

    @property
    def operational_intensity_ridgepoint(self) -> float:
        """FLOPS/byte at which the design transitions from memory- to compute-bound."""
        return self.peak_matrix_flops / self.dram_bandwidth_bytes_per_s

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def evolve(self, **changes) -> "DatapathConfig":
        """Return a copy with the given fields replaced (used by ablations)."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """Summary dictionary used by reports and Table 5 regeneration."""
        return {
            "num_cores": self.num_cores,
            "num_pes": self.num_pes,
            "systolic_array": f"{self.systolic_array_x}x{self.systolic_array_y}",
            "vpu_lanes_per_pe": self.vpu_lanes_per_pe,
            "peak_tflops": self.peak_matrix_flops / 1e12,
            "peak_bandwidth_gbps": self.dram_bandwidth_bytes_per_s / 1e9,
            "l1_per_pe_kib": self.l1_bytes_per_pe // KIB,
            "l1_config": self.l1_buffer_config.value,
            "l2_config": self.l2_buffer_config.value,
            "global_buffer_mib": self.l3_global_buffer_mib,
            "native_batch_size": self.native_batch_size,
            "ridgepoint_flops_per_byte": self.operational_intensity_ridgepoint,
        }
