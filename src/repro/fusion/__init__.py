"""FAST fusion: ILP-based tensor-to-Global-Memory assignment."""

from repro.fusion.blocking import (
    BlockedFusionResult,
    BlockingAwareFusionOptimizer,
    blocked_region_stats,
)
from repro.fusion.fast_fusion import (
    FastFusionOptimizer,
    FusionDecision,
    FusionResult,
    RegionStats,
)

__all__ = [
    "BlockedFusionResult",
    "BlockingAwareFusionOptimizer",
    "FastFusionOptimizer",
    "FusionDecision",
    "FusionResult",
    "RegionStats",
    "blocked_region_stats",
]
