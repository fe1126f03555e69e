"""Inter-op blocking for FAST fusion (the paper's noted refinement).

Section 5.5 states that "FAST fusion conservatively assumes that entire
tensors are stored in memory; schedulers can use inter-op blocking to reduce
tensor working set sizes".  This module implements that refinement: when a
producer and its consumer are blocked (tiled) jointly, the intermediate
activation never has to be materialized in full — only one tile needs to be
resident in the Global Memory at a time, while the *whole* tensor's DRAM
round-trip is still avoided.

:class:`BlockingAwareFusionOptimizer` wraps the standard
:class:`~repro.fusion.fast_fusion.FastFusionOptimizer`: it shrinks the
capacity cost of pinning activation tensors by a candidate blocking factor
(weights are untouched — weight pinning needs the full tensor resident to be
reused across inference requests), solves the fusion problem for each
candidate factor, and keeps the best schedule.  Factor 1 reproduces the
paper's baseline behaviour exactly, so enabling blocking can never make the
fusion result worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.fusion.fast_fusion import FastFusionOptimizer, FusionResult, RegionStats

__all__ = ["BlockedFusionResult", "BlockingAwareFusionOptimizer", "blocked_region_stats"]


def blocked_region_stats(
    regions: Sequence[RegionStats], block_factor: int
) -> List[RegionStats]:
    """Shrink activation pinning footprints by ``block_factor``.

    Only the *capacity* cost of pinning input/output activations changes;
    the DRAM cycles avoided by a pinning decision are unchanged because the
    full tensor still never leaves the chip, and weight tensors are left
    whole because weight pinning relies on the complete tensor staying
    resident across inference requests.
    """
    if block_factor < 1:
        raise ValueError("block_factor must be >= 1")
    if block_factor == 1:
        return list(regions)
    blocked = []
    for region in regions:
        blocked.append(
            replace(
                region,
                input_bytes=int(math.ceil(region.input_bytes / block_factor)),
                output_bytes=int(math.ceil(region.output_bytes / block_factor)),
            )
        )
    return blocked


@dataclass
class BlockedFusionResult:
    """Fusion outcome with the best inter-op blocking factor."""

    block_factor: int
    fusion: FusionResult
    cycles_by_factor: Dict[int, float]

    @property
    def speedup_over_unblocked(self) -> float:
        """Post-fusion cycle ratio of factor 1 to the chosen factor."""
        baseline = self.cycles_by_factor.get(1, self.fusion.total_cycles_post)
        if self.fusion.total_cycles_post <= 0:
            return 1.0
        return baseline / self.fusion.total_cycles_post


class BlockingAwareFusionOptimizer:
    """FAST fusion with a sweep over inter-op blocking factors."""

    def __init__(
        self,
        gm_capacity_bytes: int,
        solver: str = "auto",
        block_factors: Tuple[int, ...] = (1, 2, 4, 8),
    ) -> None:
        if not block_factors or any(f < 1 for f in block_factors):
            raise ValueError("block_factors must be a non-empty tuple of factors >= 1")
        self.block_factors = tuple(sorted(set(block_factors)))
        if 1 not in self.block_factors:
            self.block_factors = (1,) + self.block_factors
        self.inner = FastFusionOptimizer(gm_capacity_bytes=gm_capacity_bytes, solver=solver)

    # ------------------------------------------------------------------
    def optimize(self, regions: Sequence[RegionStats]) -> BlockedFusionResult:
        """Solve fusion for every candidate factor and keep the fastest."""
        best_factor = 1
        best_result: FusionResult = None
        cycles_by_factor: Dict[int, float] = {}
        for factor in self.block_factors:
            result = self.inner.optimize(blocked_region_stats(regions, factor))
            cycles_by_factor[factor] = result.total_cycles_post
            if best_result is None or result.total_cycles_post < best_result.total_cycles_post:
                best_result = result
                best_factor = factor
        return BlockedFusionResult(
            block_factor=best_factor,
            fusion=best_result,
            cycles_by_factor=cycles_by_factor,
        )
