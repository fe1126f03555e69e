"""Loop blocking (tiling) and the resulting DRAM traffic model.

Given a GEMM-like problem and the on-chip capacity available for blocking,
the scheduler chooses tile sizes ``(m_tile, n_tile, k_tile)`` for the three
problem dimensions.  The classic reuse analysis gives the resulting DRAM
traffic:

* each input element is re-read once per N tile that does not keep it
  resident: ``input_bytes * ceil(N / n_tile)`` unless the input block fits,
* each stationary element is re-read once per M tile: ``stationary_bytes *
  ceil(M / m_tile)`` unless it fits,
* outputs are written once, plus read+written again per extra K tile when
  partial sums spill.

The mapper searches a small grid of tile candidates (this is the pruned
Timeloop-style mapspace search) and keeps the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.mapping.loopnest import MatrixProblem

__all__ = [
    "Tiling",
    "TrafficEstimate",
    "TrafficArrays",
    "candidate_tilings",
    "estimate_traffic",
    "stack_candidate_grids",
    "tiling_candidate_arrays",
    "estimate_traffic_batch_ops",
]


@dataclass(frozen=True)
class Tiling:
    """Tile sizes for the three GEMM dimensions of one problem instance."""

    m_tile: int
    n_tile: int
    k_tile: int

    def buffer_bytes(self, dtype_bytes: int = 2) -> int:
        """On-chip bytes needed to hold one tile of each operand."""
        input_tile = self.m_tile * self.k_tile
        weight_tile = self.k_tile * self.n_tile
        output_tile = self.m_tile * self.n_tile
        return (input_tile + weight_tile + output_tile) * dtype_bytes


@dataclass(frozen=True)
class TrafficEstimate:
    """DRAM traffic for a problem under a given tiling."""

    input_bytes: float
    stationary_bytes: float
    output_bytes: float

    @property
    def total_bytes(self) -> float:
        """Total DRAM bytes moved."""
        return self.input_bytes + self.stationary_bytes + self.output_bytes


def _geometric_steps(dim: int, minimum: int) -> List[int]:
    """Power-of-two tile candidates between ``minimum`` and ``dim``."""
    steps = []
    value = max(1, minimum)
    while value < dim:
        steps.append(value)
        value *= 4
    steps.append(dim)
    return steps


def candidate_tilings(
    problem: MatrixProblem,
    array_x: int,
    array_y: int,
    max_candidates: int = 48,
) -> Iterator[Tiling]:
    """Enumerate candidate tilings for the mapper's pruned search.

    Tiles never go below the systolic array dimensions (smaller tiles would
    waste the array) and grow geometrically up to the full problem dims.
    """
    m_steps = _geometric_steps(problem.m, minimum=min(problem.m, 128))
    n_steps = _geometric_steps(problem.n, minimum=min(problem.n, array_y))
    k_steps = _geometric_steps(problem.k, minimum=min(problem.k, array_x))
    count = 0
    for m_tile in m_steps:
        for n_tile in n_steps:
            for k_tile in k_steps:
                yield Tiling(m_tile, n_tile, k_tile)
                count += 1
                if count >= max_candidates:
                    return


def estimate_traffic(
    problem: MatrixProblem,
    tiling: Tiling,
    blocking_capacity_bytes: int,
    dtype_bytes: int = 2,
) -> Tuple[TrafficEstimate, bool]:
    """Estimate DRAM traffic for ``problem`` under ``tiling``.

    Returns the traffic estimate and a flag indicating whether the tiling
    fits within the blocking capacity (tilings that do not fit are invalid
    mappings).
    """
    fits = tiling.buffer_bytes(dtype_bytes) <= blocking_capacity_bytes

    m_outer = math.ceil(problem.m / tiling.m_tile)
    n_outer = math.ceil(problem.n / tiling.n_tile)
    k_outer = math.ceil(problem.k / tiling.k_tile)

    # Input (streamed operand): re-read for every N tile unless the whole
    # input of one instance fits on chip alongside the working tiles.
    # Depthwise convolutions never re-read: each input element belongs to a
    # single channel and is only touched by that channel's column.
    input_resident = problem.input_bytes / max(problem.instances, 1) <= (
        blocking_capacity_bytes - tiling.buffer_bytes(dtype_bytes)
    )
    if problem.is_depthwise:
        input_reread = 1
    else:
        input_reread = 1 if (n_outer == 1 or input_resident) else n_outer
    input_traffic = problem.input_bytes * input_reread

    # Stationary operand: re-read for every M tile unless it fits on chip.
    stationary_resident = problem.stationary_bytes / max(problem.instances, 1) <= (
        blocking_capacity_bytes - tiling.buffer_bytes(dtype_bytes)
    )
    stationary_reread = 1 if (m_outer == 1 or stationary_resident) else m_outer
    stationary_traffic = problem.stationary_bytes * stationary_reread

    # Outputs: written once; when the reduction is tiled and partial sums
    # cannot stay resident they spill (read + write per extra K tile).
    output_resident = problem.output_bytes / max(problem.instances, 1) <= (
        blocking_capacity_bytes - tiling.buffer_bytes(dtype_bytes)
    )
    if k_outer == 1 or output_resident:
        output_traffic = float(problem.output_bytes)
    else:
        output_traffic = problem.output_bytes * (1.0 + 2.0 * (k_outer - 1))

    return (
        TrafficEstimate(
            input_bytes=float(input_traffic),
            stationary_bytes=float(stationary_traffic),
            output_bytes=float(output_traffic),
        ),
        fits,
    )


# ---------------------------------------------------------------------------
# Vectorized candidate sweep
#
# The functions below are the array-programming twin of ``candidate_tilings``
# + ``estimate_traffic``: the whole candidate grid is materialized as NumPy
# arrays and costed in a handful of vector operations instead of a Python
# loop.  Every arithmetic step mirrors the scalar reference operation for
# operation (same int products, same float divisions, same left-to-right
# additions), so the per-candidate results are bit-for-bit identical to the
# scalar path — a property the mapper's equivalence tests assert.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficArrays:
    """Per-candidate traffic/feasibility arrays over a stacked candidate axis.

    Index ``i`` of every array describes the candidate ``Tiling(m_tiles[i],
    n_tiles[i], k_tiles[i])``; float arrays are ``float64`` and match the
    scalar :func:`estimate_traffic` output bitwise.
    """

    m_tiles: np.ndarray
    n_tiles: np.ndarray
    k_tiles: np.ndarray
    input_bytes: np.ndarray
    stationary_bytes: np.ndarray
    output_bytes: np.ndarray
    total_bytes: np.ndarray
    buffer_bytes: np.ndarray
    fits: np.ndarray

    def __len__(self) -> int:
        return int(self.m_tiles.shape[0])

    def tiling(self, index: int) -> Tiling:
        """Materialize the ``Tiling`` dataclass for one candidate."""
        return Tiling(
            int(self.m_tiles[index]), int(self.n_tiles[index]), int(self.k_tiles[index])
        )

    def traffic(self, index: int) -> TrafficEstimate:
        """Materialize the ``TrafficEstimate`` for one candidate."""
        return TrafficEstimate(
            input_bytes=float(self.input_bytes[index]),
            stationary_bytes=float(self.stationary_bytes[index]),
            output_bytes=float(self.output_bytes[index]),
        )


def tiling_candidate_arrays(
    problem: MatrixProblem,
    array_x: int,
    array_y: int,
    max_candidates: int = 48,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All candidate tile sizes as ``int64`` arrays.

    The arrays enumerate exactly the tilings :func:`candidate_tilings` yields,
    in the same (m-major) order and truncated at the same candidate cap, so an
    argmin over them selects the same winner as the scalar loop.
    """
    m_steps = _geometric_steps(problem.m, minimum=min(problem.m, 128))
    n_steps = _geometric_steps(problem.n, minimum=min(problem.n, array_y))
    k_steps = _geometric_steps(problem.k, minimum=min(problem.k, array_x))
    grid = np.array(
        list(islice(product(m_steps, n_steps, k_steps), max_candidates)),
        dtype=np.int64,
    )
    return grid[:, 0], grid[:, 1], grid[:, 2]


def stack_candidate_grids(
    grids: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-problem ``(m, n, k)`` grids along a flat op axis.

    The one place the op-axis layout is defined: candidates are grouped
    problem by problem (``op_index`` is non-decreasing) and each problem's
    slice keeps its per-op enumeration order — the contract the batched
    selection (and the bit-for-bit equivalence argument) relies on.
    """
    counts = [m_tiles.shape[0] for m_tiles, _, _ in grids]
    op_index = np.repeat(np.arange(len(grids), dtype=np.int64), counts)
    m_all = np.concatenate([grid[0] for grid in grids])
    n_all = np.concatenate([grid[1] for grid in grids])
    k_all = np.concatenate([grid[2] for grid in grids])
    return op_index, m_all, n_all, k_all


def estimate_traffic_batch_ops(
    problems: Sequence[MatrixProblem],
    op_index: np.ndarray,
    m_tiles: np.ndarray,
    n_tiles: np.ndarray,
    k_tiles: np.ndarray,
    blocking_capacity_bytes: int,
    dtype_bytes: int = 2,
) -> TrafficArrays:
    """Vectorized :func:`estimate_traffic` across many problems at once.

    The candidate axis is flat: candidate ``i`` tiles ``problems[op_index[i]]``
    (see :func:`stack_candidate_grids`).  One array pass costs every
    candidate of every problem — the pass the mapper's fast engine runs once
    per trial, and a single problem is just an op axis of one.

    Buffer footprints stay in ``int64`` (exact); traffic is computed in
    ``float64`` with the same correctly-rounded operations the scalar path
    performs, so every candidate's traffic matches the scalar estimate
    bitwise.  Numeric notes, candidate by candidate:

    * float division of ints < 2**53 is correctly rounded, exactly like
      Python's ``a / b``, and the ceil results are exact integers in
      float64 — keeping them as floats loses nothing;
    * ``bytes * multiplier`` multiplies two exactly-representable values,
      so the float64 product is the correctly-rounded true product —
      identical to the scalar path's exact-int product followed by
      ``float()`` conversion;
    * the output spill multiplier ``2*k_outer - 1`` equals the scalar
      path's ``1 + 2*(k_outer - 1)`` exactly (small integers in float64);
    * gathering per-problem dims/bytes through ``op_index`` feeds each
      candidate the very same operand values a per-problem pass would
      broadcast, so stacking never changes a result.
    """
    buffer_bytes = (m_tiles * k_tiles + k_tiles * n_tiles + m_tiles * n_tiles) * dtype_bytes
    fits = buffer_bytes <= blocking_capacity_bytes

    headroom = blocking_capacity_bytes - buffer_bytes

    # One stacked pass over the three tensor roles (rows: input / stationary /
    # output, whose re-read multipliers come from the n / m / k outer loop
    # trip counts respectively), with per-problem scalars gathered per
    # candidate through ``op_index``.
    dims_by_problem = np.array(
        [
            [problem.n for problem in problems],
            [problem.m for problem in problems],
            [problem.k for problem in problems],
        ],
        dtype=np.int64,
    )
    role_by_problem = np.array(
        [
            [problem.input_bytes for problem in problems],
            [problem.stationary_bytes for problem in problems],
            [problem.output_bytes for problem in problems],
        ],
        dtype=np.float64,
    )
    instances = np.array(
        [max(problem.instances, 1) for problem in problems], dtype=np.int64
    )
    depthwise = np.array([problem.is_depthwise for problem in problems], dtype=bool)
    input_bytes_flat = role_by_problem[0]

    dims = dims_by_problem[:, op_index]
    tiles = np.stack((n_tiles, m_tiles, k_tiles))
    outer = np.ceil(dims / tiles)
    role_bytes = role_by_problem[:, op_index]
    resident = (role_bytes / instances[op_index]) <= headroom
    multipliers = outer.copy()
    multipliers[2] = 2.0 * outer[2] - 1.0
    multipliers = np.where((outer == 1.0) | resident, 1.0, multipliers)
    traffic = role_bytes * multipliers
    input_traffic, stationary_traffic, output_traffic = traffic
    # Depthwise convolutions never re-read their input.
    input_traffic = np.where(
        depthwise[op_index], input_bytes_flat[op_index], input_traffic
    )

    total = input_traffic + stationary_traffic + output_traffic
    return TrafficArrays(
        m_tiles=m_tiles,
        n_tiles=n_tiles,
        k_tiles=k_tiles,
        input_bytes=input_traffic,
        stationary_bytes=stationary_traffic,
        output_bytes=output_traffic,
        total_bytes=total,
        buffer_bytes=buffer_bytes,
        fits=fits,
    )
