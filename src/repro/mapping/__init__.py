"""Scheduling / mapping engine (the Timeloop substitute)."""

from repro.mapping.costmodel import OpCost
from repro.mapping.dataflow import Dataflow, SpatialMapping, spatial_mapping
from repro.mapping.loopnest import MatrixProblem, extract_problem
from repro.mapping.mapper import Mapper, MapperOptions
from repro.mapping.padding import PaddingDecision, pad_problem
from repro.mapping.tiling import Tiling, TrafficEstimate, candidate_tilings, estimate_traffic

__all__ = [
    "Dataflow",
    "Mapper",
    "MapperOptions",
    "MatrixProblem",
    "OpCost",
    "PaddingDecision",
    "SpatialMapping",
    "Tiling",
    "TrafficEstimate",
    "candidate_tilings",
    "estimate_traffic",
    "extract_problem",
    "pad_problem",
    "spatial_mapping",
]
