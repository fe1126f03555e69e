"""Tests for FAST fusion (the Figure 8 ILP and the greedy heuristic)."""

import itertools
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from functools import lru_cache
from pathlib import Path
from typing import List, Optional
from unittest import mock

import numpy as np
import pytest

from repro.core.designs import FAST_LARGE
from repro.fusion.blocking import BlockingAwareFusionOptimizer
from repro.fusion.fast_fusion import (
    GREEDY_THRESHOLD_REGIONS,
    FastFusionOptimizer,
    FusionDecision,
    FusionResult,
    RegionStats,
)
from repro.hardware.search_space import DatapathSearchSpace
from repro.simulator.engine import SimulationOptions, Simulator


def make_chain(num_regions, weight_bytes=0, act_bytes=100, dram_cycles=10.0, busy=5.0):
    """A linear chain of memory-bound regions where adjacent pinning helps."""
    regions = []
    for i in range(num_regions):
        regions.append(
            RegionStats(
                index=i,
                name=f"r{i}",
                busy_cycles=busy,
                t_max_cycles=busy + 3 * dram_cycles,
                input_dram_cycles=dram_cycles,
                weight_dram_cycles=dram_cycles if weight_bytes else 0.0,
                output_dram_cycles=dram_cycles,
                input_bytes=act_bytes,
                weight_bytes=weight_bytes,
                output_bytes=act_bytes,
                blocking_gm_bytes=0,
                predecessor=i - 1 if i > 0 else None,
                is_graph_output=(i == num_regions - 1),
            )
        )
    return regions


class TestDisabledAndTrivialCases:
    def test_zero_capacity_pins_nothing(self):
        optimizer = FastFusionOptimizer(gm_capacity_bytes=0)
        result = optimizer.optimize(make_chain(4))
        assert all(not d.any for d in result.decisions)
        assert result.total_cycles_post == pytest.approx(result.total_cycles_pre)
        assert result.speedup == pytest.approx(1.0)

    def test_empty_region_list(self):
        result = FastFusionOptimizer(gm_capacity_bytes=1000).optimize([])
        assert result.decisions == []
        assert result.total_cycles_post == 0

    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            FastFusionOptimizer(gm_capacity_bytes=10, solver="magic")


@pytest.mark.parametrize("solver", ["greedy", "ilp"])
class TestBothBackends:
    def test_ample_capacity_pins_whole_chain(self, solver):
        regions = make_chain(5)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        # Every adjacent producer/consumer pair should be pinned.
        for i in range(len(regions) - 1):
            assert result.decisions[i].pin_output
            assert result.decisions[i + 1].pin_input
        assert result.total_cycles_post < result.total_cycles_pre
        assert result.speedup > 1.5

    def test_capacity_constraint_respected(self, solver):
        regions = make_chain(6, act_bytes=100)
        capacity = 150  # only one activation (100 B) fits alongside another
        result = FastFusionOptimizer(gm_capacity_bytes=capacity, solver=solver).optimize(regions)
        for i, (region, decision) in enumerate(zip(regions, result.decisions)):
            usage = region.blocking_gm_bytes
            if decision.pin_input:
                usage += region.input_bytes
            if decision.pin_output:
                usage += region.output_bytes
            usage += sum(
                r.weight_bytes for r, d in zip(regions, result.decisions) if d.pin_weights
            )
            assert usage <= capacity

    def test_producer_consumer_consistency(self, solver):
        regions = make_chain(5)
        result = FastFusionOptimizer(gm_capacity_bytes=250, solver=solver).optimize(regions)
        for i in range(len(regions) - 1):
            if result.decisions[i + 1].pin_input:
                assert result.decisions[i].pin_output
            if result.decisions[i].pin_output:
                assert result.decisions[i + 1].pin_input

    def test_non_adjacent_inputs_never_pinned(self, solver):
        regions = make_chain(4)
        # Region 2's input is produced by region 0 (skip connection).
        regions[2] = RegionStats(**{**regions[2].__dict__, "predecessor": 0})
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        assert not result.decisions[2].pin_input

    def test_graph_output_never_pinned(self, solver):
        regions = make_chain(3)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        assert not result.decisions[-1].pin_output

    def test_weight_pinning_when_beneficial(self, solver):
        regions = make_chain(3, weight_bytes=50)
        result = FastFusionOptimizer(gm_capacity_bytes=100_000, solver=solver).optimize(regions)
        assert any(d.pin_weights for d in result.decisions)
        assert result.pinned_weight_bytes > 0

    def test_compute_bound_regions_not_pinned(self, solver):
        """Pinning a compute-bound region's tensors yields no benefit."""
        regions = [
            RegionStats(
                index=i, name=f"r{i}", busy_cycles=100.0, t_max_cycles=100.0,
                input_dram_cycles=1.0, weight_dram_cycles=0.0, output_dram_cycles=1.0,
                input_bytes=10, weight_bytes=0, output_bytes=10,
                predecessor=i - 1 if i > 0 else None,
            )
            for i in range(3)
        ]
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        assert result.total_cycles_post == pytest.approx(result.total_cycles_pre)

    def test_region_time_never_below_busy_floor(self, solver):
        regions = make_chain(4)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver=solver).optimize(regions)
        for region, cycles in zip(regions, result.region_cycles):
            assert cycles >= region.busy_cycles - 1e-9


class TestSolverSelectionAndQuality:
    def test_auto_uses_ilp_for_small_problems(self):
        optimizer = FastFusionOptimizer(gm_capacity_bytes=10_000, solver="auto")
        result = optimizer.optimize(make_chain(5))
        assert result.solver_status.startswith("ilp")

    def test_auto_uses_greedy_for_large_problems(self):
        optimizer = FastFusionOptimizer(gm_capacity_bytes=10_000, solver="auto")
        result = optimizer.optimize(make_chain(GREEDY_THRESHOLD_REGIONS + 1))
        assert result.solver_status == "greedy"

    def test_auto_gives_the_same_answer_on_a_slow_host(self):
        """The ILP's budget counts nodes, so a clock that jumps 5 s per read
        (a host far slower than any budget) changes nothing.

        efficientnet-b0 at batch 8 on FAST-Large with a 16 MiB Global Memory
        solves to optimality in 9 nodes.  The optimizer is called directly:
        a second ``simulate`` would be served by the simulator's fusion memo.
        """
        config = FAST_LARGE.evolve(l3_global_buffer_mib=16)
        regions = (
            Simulator(config, SimulationOptions(fusion_solver="greedy"))
            .simulate_workload("efficientnet-b0", batch_size=8)
            .region_stats
        )
        assert len(regions) <= GREEDY_THRESHOLD_REGIONS
        optimizer = FastFusionOptimizer(config.global_buffer_bytes, solver="auto")
        reference = optimizer.optimize(regions)
        ticks = itertools.count(0.0, 5.0)
        with mock.patch("time.monotonic", side_effect=lambda: next(ticks)):
            slow = optimizer.optimize(regions)
        assert reference.solver_status == "ilp_optimal"
        assert slow.solver_status == reference.solver_status
        assert slow.decisions == reference.decisions
        assert slow.total_cycles_post == reference.total_cycles_post

    def test_ilp_at_least_as_good_as_greedy(self):
        regions = make_chain(6, weight_bytes=40)
        capacity = 400
        greedy = FastFusionOptimizer(gm_capacity_bytes=capacity, solver="greedy").optimize(regions)
        ilp = FastFusionOptimizer(gm_capacity_bytes=capacity, solver="ilp").optimize(regions)
        assert ilp.total_cycles_post <= greedy.total_cycles_post + 1e-6

    def test_weight_pinning_prefers_blocking_headroom(self):
        """Per-region blocking usage reduces the capacity available for pinning."""
        regions = make_chain(3, weight_bytes=500)
        heavy_blocking = [
            RegionStats(**{**r.__dict__, "blocking_gm_bytes": 800}) for r in regions
        ]
        result = FastFusionOptimizer(gm_capacity_bytes=1000, solver="greedy").optimize(heavy_blocking)
        assert not any(d.pin_weights for d in result.decisions)

    def test_dram_bytes_saved_reported(self):
        regions = make_chain(4)
        result = FastFusionOptimizer(gm_capacity_bytes=10_000, solver="greedy").optimize(regions)
        assert result.dram_bytes_saved(regions, dram_bytes_per_cycle=10.0) > 0


# ---------------------------------------------------------------------------
# Greedy backend: exact equivalence with the original rescanning solver
# ---------------------------------------------------------------------------


def reference_solve_greedy(self, regions: List[RegionStats]) -> FusionResult:
    """The original rescanning greedy solver, kept as the test oracle.

    Called with a :class:`FastFusionOptimizer` as ``self``.  Every loop
    re-scores all adjacent pairs (phase 1) and checks every region's
    headroom for every weight candidate (phase 2).
    """
    n = len(regions)
    capacity = float(self.gm_capacity_bytes)
    pin_input = [False] * n
    pin_output = [False] * n
    pin_weights = [False] * n
    activation_usage = [0.0] * n  # own pinned activation bytes per region
    weight_total = 0.0  # persistent pinned weight bytes
    saved = [0.0] * n

    def slack(i: int) -> float:
        return max(0.0, self._region_time(regions[i], saved[i]) - regions[i].t_min_cycles)

    def headroom(i: int) -> float:
        return capacity - regions[i].blocking_gm_bytes - activation_usage[i] - weight_total

    def weight_move_feasible(j: int) -> bool:
        need = regions[j].weight_bytes
        return all(headroom(i) >= need for i in range(n))

    def apply_activation_move(i: int) -> None:
        pin_output[i] = True
        pin_input[i + 1] = True
        activation_usage[i] += regions[i].output_bytes
        activation_usage[i + 1] += regions[i + 1].input_bytes
        saved[i] += regions[i].output_dram_cycles
        saved[i + 1] += regions[i + 1].input_dram_cycles

    def apply_weight_move(i: int) -> None:
        nonlocal weight_total
        pin_weights[i] = True
        weight_total += regions[i].weight_bytes
        saved[i] += regions[i].weight_dram_cycles

    # Phase 1: activation pinning.  Activations have short lifetimes (they
    # only occupy the Global Memory between adjacent regions), so they are
    # placed first; pinning them never blocks a later weight pin globally.
    improved = True
    while improved:
        improved = False
        best_density = 0.0
        best_index: Optional[int] = None
        for i in range(n - 1):
            region = regions[i]
            if (
                pin_output[i]
                or not self._pinnable_output(region, regions)
                or pin_input[i + 1]
                or not self._pinnable_input(regions[i + 1])
            ):
                continue
            benefit = min(region.output_dram_cycles, slack(i)) + min(
                regions[i + 1].input_dram_cycles, slack(i + 1)
            )
            cost = max(region.output_bytes, 1) + max(regions[i + 1].input_bytes, 1)
            feasible = (
                headroom(i) >= region.output_bytes
                and headroom(i + 1) >= regions[i + 1].input_bytes
            )
            if feasible and benefit > 0:
                density = benefit / cost
                if density > best_density:
                    best_density = density
                    best_index = i
        if best_index is not None:
            apply_activation_move(best_index)
            improved = True

    # Phase 2: weight pinning with the remaining (persistent) headroom.
    improved = True
    while improved:
        improved = False
        best_density = 0.0
        best_index = None
        for i in range(n):
            region = regions[i]
            if pin_weights[i] or region.weight_bytes <= 0:
                continue
            benefit = min(region.weight_dram_cycles, slack(i))
            if benefit <= 0 or not weight_move_feasible(i):
                continue
            density = benefit / max(region.weight_bytes, 1)
            if density > best_density:
                best_density = density
                best_index = i
        if best_index is not None:
            apply_weight_move(best_index)
            improved = True

    decisions = [
        FusionDecision(pin_input[i], pin_output[i], pin_weights[i]) for i in range(n)
    ]
    return self._finalize(regions, decisions, status="greedy")


def random_regions(rng, num_regions):
    """A seeded region list covering the greedy solver's corner cases.

    Values sit on coarse grids and some regions duplicate their
    predecessor's numbers, so equal densities (ties) are common.
    Predecessors mix adjacent, skip and ``None``; graph outputs appear
    mid-chain; weights, slack and blocking bytes are zero some of the time.
    """
    regions = []
    for i in range(num_regions):
        if regions and rng.random() < 0.3:
            numbers = {
                key: getattr(regions[-1], key)
                for key in (
                    "busy_cycles", "t_max_cycles", "input_dram_cycles",
                    "weight_dram_cycles", "output_dram_cycles", "input_bytes",
                    "weight_bytes", "output_bytes", "blocking_gm_bytes",
                )
            }
        else:
            busy = float(rng.integers(0, 8) * 25)
            input_dram = float(rng.integers(0, 6) * 20)
            weight_dram = float(rng.integers(0, 6) * 20)
            output_dram = float(rng.integers(0, 6) * 20)
            if rng.random() < 0.15:
                t_max = busy  # compute bound: zero slack
            else:
                t_max = max(busy, input_dram + weight_dram + output_dram)
            numbers = dict(
                busy_cycles=busy,
                t_max_cycles=t_max,
                input_dram_cycles=input_dram,
                weight_dram_cycles=weight_dram,
                output_dram_cycles=output_dram,
                input_bytes=int(rng.integers(0, 5) * 64),
                weight_bytes=0 if rng.random() < 0.3 else int(rng.integers(1, 5) * 64),
                output_bytes=int(rng.integers(0, 5) * 64),
                blocking_gm_bytes=0 if rng.random() < 0.5 else int(rng.integers(1, 4) * 32),
            )
        draw = rng.random()
        if i == 0 or draw < 0.15:
            predecessor = None
        elif draw < 0.3 and i > 1:
            predecessor = int(rng.integers(0, i - 1))  # skip connection
        else:
            predecessor = i - 1
        regions.append(
            RegionStats(
                index=i,
                name=f"r{i}",
                predecessor=predecessor,
                is_graph_output=(i == num_regions - 1) or bool(rng.random() < 0.05),
                **numbers,
            )
        )
    return regions


def random_capacities(rng, regions):
    """Zero, tight and ample Global Memory capacities for ``regions``."""
    total = sum(r.input_bytes + r.weight_bytes + r.output_bytes for r in regions)
    blocking = max((r.blocking_gm_bytes for r in regions), default=0)
    tight = blocking + int(rng.integers(0, 6) * 64)
    return (0, tight, blocking + total + 1)


RANDOM_SIZES = list(range(0, 13)) + [16, 20, 25, 32, 40, 49, 64, 81, 100, 128, 150]


@lru_cache(maxsize=None)
def random_fusion_inputs():
    """Seeded ``(capacity, regions)`` inputs, n from 0 to 150."""
    rng = np.random.default_rng(2022)
    inputs = []
    for num_regions in RANDOM_SIZES:
        for _ in range(2):
            regions = tuple(random_regions(rng, num_regions))
            for capacity in random_capacities(rng, regions):
                inputs.append((capacity, regions))
    return tuple(inputs)


@lru_cache(maxsize=None)
def simulated_fusion_inputs():
    """The exact fusion inputs of efficientnet-b0 and bert-seq128 on 20 datapaths.

    Records every ``optimize`` call the simulator makes while pricing both
    workloads on sampled datapaths that have a Global Memory.
    """
    space = DatapathSearchSpace()
    rng = np.random.default_rng(12)
    options = SimulationOptions(
        fusion_solver="greedy", op_cache_enabled=False, region_cache_enabled=False
    )
    captured = []
    optimize = FastFusionOptimizer.optimize

    def record(self, regions):
        captured.append((self.gm_capacity_bytes, tuple(regions)))
        return optimize(self, regions)

    datapaths = 0
    with mock.patch.object(FastFusionOptimizer, "optimize", record):
        while datapaths < 20:
            config = space.to_config(space.sample(rng))
            if config.l3_global_buffer_mib <= 0 or not config.enable_fast_fusion:
                continue
            datapaths += 1
            simulator = Simulator(config, options)
            for workload in ("efficientnet-b0", "bert-seq128"):
                simulator.simulate_workload(workload)
    return tuple(captured)


def reference_greedy():
    """Patch the original solver in as the greedy backend."""
    return mock.patch.object(FastFusionOptimizer, "_solve_greedy", reference_solve_greedy)


def assert_same_result(expected: FusionResult, actual: FusionResult) -> None:
    for field in fields(FusionResult):
        assert getattr(actual, field.name) == getattr(expected, field.name), field.name


class TestGreedyMatchesReference:
    @pytest.mark.parametrize("case", range(len(random_fusion_inputs())))
    def test_random_regions(self, case):
        capacity, regions = random_fusion_inputs()[case]
        optimizer = FastFusionOptimizer(gm_capacity_bytes=capacity, solver="greedy")
        with reference_greedy():
            expected = optimizer.optimize(regions)
        assert_same_result(expected, optimizer.optimize(regions))

    def test_simulated_workloads(self):
        inputs = simulated_fusion_inputs()
        assert len(inputs) >= 20
        for capacity, regions in inputs:
            optimizer = FastFusionOptimizer(gm_capacity_bytes=capacity, solver="greedy")
            with reference_greedy():
                expected = optimizer.optimize(regions)
            assert_same_result(expected, optimizer.optimize(regions))

    @pytest.mark.parametrize("source", ["random", "simulated"])
    def test_blocking_aware(self, source):
        inputs = random_fusion_inputs() if source == "random" else simulated_fusion_inputs()
        for capacity, regions in inputs:
            optimizer = BlockingAwareFusionOptimizer(gm_capacity_bytes=capacity, solver="greedy")
            with reference_greedy():
                expected = optimizer.optimize(regions)
            actual = optimizer.optimize(regions)
            assert actual.block_factor == expected.block_factor
            assert actual.cycles_by_factor == expected.cycles_by_factor
            assert_same_result(expected.fusion, actual.fusion)


class TestGreedyTieBreak:
    """Equal densities go to the lowest region index in both phases."""

    def test_activation_tie_pins_first_pair(self):
        # Two identical pairs share region 1, which has room for one
        # activation: the first pair wins and the second no longer fits.
        regions = make_chain(3, act_bytes=100)
        result = FastFusionOptimizer(gm_capacity_bytes=150, solver="greedy").optimize(regions)
        assert [d.pin_output for d in result.decisions] == [True, False, False]

    def test_weight_tie_pins_lowest_index(self):
        regions = [
            RegionStats(
                index=i, name=f"r{i}", busy_cycles=5.0, t_max_cycles=25.0,
                input_dram_cycles=0.0, weight_dram_cycles=20.0, output_dram_cycles=0.0,
                input_bytes=0, weight_bytes=100, output_bytes=0,
            )
            for i in range(3)
        ]
        result = FastFusionOptimizer(gm_capacity_bytes=100, solver="greedy").optimize(regions)
        assert [d.pin_weights for d in result.decisions] == [True, False, False]


def test_a_greedy_search_never_imports_scipy():
    # Searches solve fusion greedily, and only the ILP's LP relaxations need
    # scipy, so a search process never pays scipy.optimize's import.
    script = textwrap.dedent(
        """
        import sys
        from repro.core.fast import FASTSearch
        from repro.core.problem import ObjectiveKind, SearchProblem
        from repro.fusion.fast_fusion import FastFusionOptimizer

        solves = []
        greedy = FastFusionOptimizer._solve_greedy

        def counting(self, regions):
            solves.append(len(regions))
            return greedy(self, regions)

        FastFusionOptimizer._solve_greedy = counting
        problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
        FASTSearch(problem, optimizer="lcs", seed=0).run(num_trials=8, batch_size=4)
        assert solves, "the search solved no fusion problem"
        print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
