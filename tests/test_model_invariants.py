"""Physical invariants of the simulator's post-fusion view.

Seeded property tests over datapaths sampled from the Table 3 search space
with a NumPy generator.  Each of the 40 datapaths is feasible: both
efficientnet-b0 and bert-seq128 schedule on it at its native batch size.
Datapaths without a Global Memory stay in the sample, so the no-fusion view
is covered too.  The invariants are exact, not tolerance-checked:

* per region, ``busy_cycles <= post-fusion cycles <= pre_fusion_cycles``
  (post-fusion cycles are ``max(t_min, t_max - saved)``, with ``t_min`` the
  busy time and ``t_max`` the pre-fusion time);
* ``total_cycles`` is the sum of the per-region post-fusion cycles;
* fusion never adds DRAM traffic;
* compute utilization lies in (0, 1] and fusion efficiency in [0, 1].

Below the post-fusion view, two roofline bounds hold on the same sample:
every mapped matrix op takes at least ``MACs / (num_pes * macs_per_pe)``
cycles, and every region's pre-fusion cycles cover its compute, vector and
DRAM (``bytes / dram_bytes_per_cycle``) cycles.  More resources never hurt:
doubling the GDDR6 channels (up to 8) or the Global Memory (up to 256 MiB)
never makes a design fail to schedule and never lengthens its latency.

One invariant of the area/power model rides along: more PEs never lower a
datapath's area or TDP.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.hardware.area_power import AreaPowerModel
from repro.hardware.datapath import DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace
from repro.mapping.loopnest import extract_problem
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.result import SimulationResult
from repro.workloads.ops import is_matrix_op
from repro.workloads.registry import build_workload

WORKLOADS = ("efficientnet-b0", "bert-seq128")
NUM_DATAPATHS = 40
SEED = 13
OPTIONS = SimulationOptions(fusion_solver="greedy")


def _feasible_results() -> List[Tuple[DatapathConfig, List[SimulationResult]]]:
    """The first NUM_DATAPATHS feasible samples, each with both models' results."""
    space = DatapathSearchSpace()
    rng = np.random.default_rng(SEED)
    found = []
    while len(found) < NUM_DATAPATHS:
        config = space.to_config(space.sample(rng))
        simulator = Simulator(config, OPTIONS)
        results = [simulator.simulate_workload(workload) for workload in WORKLOADS]
        if not any(result.schedule_failed for result in results):
            found.append((config, results))
    return found


@pytest.fixture(scope="module")
def feasible():
    return _feasible_results()


@pytest.fixture(params=range(NUM_DATAPATHS))
def datapath(request, feasible):
    return feasible[request.param][1]


@pytest.fixture(params=range(len(WORKLOADS)), ids=WORKLOADS)
def result(request, datapath):
    return datapath[request.param]


def test_sample_covers_fused_and_unfused_datapaths(feasible):
    fused = [result.fusion_result is not None for _, results in feasible for result in results]
    assert len(fused) == NUM_DATAPATHS * len(WORKLOADS)
    assert any(fused) and not all(fused)


class TestPostFusionInvariants:
    def test_region_cycles_between_busy_and_pre_fusion(self, result):
        post = result.region_post_fusion_cycles
        assert len(post) == len(result.regions)
        for region, cycles in zip(result.regions, post):
            assert region.busy_cycles <= cycles <= region.pre_fusion_cycles

    def test_total_cycles_is_sum_of_regions(self, result):
        assert result.total_cycles == sum(result.region_post_fusion_cycles)

    def test_fusion_never_adds_traffic(self, result):
        assert result.dram_bytes_post_fusion <= result.dram_bytes_pre_fusion
        for position, region in enumerate(result.regions):
            assert (
                result.region_dram_bytes_post_fusion(position)
                <= region.dram_bytes_pre_fusion
            )

    def test_utilization_and_fusion_efficiency_in_unit_interval(self, result):
        assert 0.0 < result.compute_utilization <= 1.0
        assert 0.0 <= result.fusion_efficiency <= 1.0
        for position in range(len(result.regions)):
            assert 0.0 <= result.region_achieved_utilization(position) <= 1.0


# ---------------------------------------------------------------------------
# Roofline bounds
# ---------------------------------------------------------------------------
def test_mapped_ops_take_at_least_their_macs_over_peak(feasible):
    checked = 0
    for config, _ in feasible:
        simulator = Simulator(config, OPTIONS)
        core = simulator.mapper.config
        peak = core.num_pes * core.macs_per_pe
        for workload in WORKLOADS:
            graph = build_workload(workload, batch_size=config.native_batch_size)
            tensors = graph.tensors
            ops = [op for op in graph.ops if is_matrix_op(op.op_type)]
            for op in ops:
                cost = simulator.mapper.map_op(op, tensors)
                assert not cost.schedule_failed, (config, op.name)
                macs = extract_problem(op, tensors).macs
                assert cost.compute_cycles >= macs / peak, (config, op.name)
                checked += 1
    assert checked > NUM_DATAPATHS * len(WORKLOADS) * 50


def test_region_pre_fusion_cycles_cover_compute_vector_and_dram(feasible):
    for config, results in feasible:
        dram_bpc = Simulator(config, OPTIONS).mapper.config.dram_bytes_per_cycle
        for result in results:
            for region in result.regions:
                assert region.pre_fusion_cycles >= max(
                    region.compute_cycles,
                    region.vector_cycles,
                    region.dram_bytes_pre_fusion / dram_bpc,
                ), (config, region.name)


# ---------------------------------------------------------------------------
# More resources never hurt
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "axis, limit", [("gddr6_channels", 8), ("l3_global_buffer_mib", 256)]
)
def test_doubling_a_resource_never_hurts(feasible, axis, limit):
    """A design that schedules still schedules, and is no slower, with twice
    the DRAM channels or Global Memory; a design without one keeps none."""
    doublings = 0
    for config, results in feasible:
        value = getattr(config, axis)
        if not 0 < 2 * value <= limit:
            continue
        simulator = Simulator(config.evolve(**{axis: 2 * value}), OPTIONS)
        for workload, base in zip(WORKLOADS, results):
            bigger = simulator.simulate_workload(workload)
            assert not bigger.schedule_failed, (config, axis, workload)
            assert bigger.latency_ms <= base.latency_ms, (config, axis, workload)
            doublings += 1
    assert doublings >= NUM_DATAPATHS  # most draws double on both models


# ---------------------------------------------------------------------------
# Area and TDP in PE count
# ---------------------------------------------------------------------------
NUM_DESIGNS = 400


def test_area_and_tdp_are_monotone_in_pe_count():
    """Doubling ``pes_x_dim`` or ``pes_y_dim`` never lowers area or TDP.

    Each seeded sample of the search space is doubled along each PE axis
    whose doubled value the space still holds, everything else fixed.
    """
    space = DatapathSearchSpace()
    model = AreaPowerModel()
    rng = np.random.default_rng(SEED)
    doublings = 0
    for _ in range(NUM_DESIGNS):
        params = space.sample(rng)
        base = model.evaluate(space.to_config(params))
        for axis in ("pes_x_dim", "pes_y_dim"):
            doubled = params[axis] * 2
            if doubled not in space.spec(axis).choices:
                continue
            bigger = model.evaluate(space.to_config(dict(params, **{axis: doubled})))
            assert bigger.total_area_mm2 >= base.total_area_mm2, (params, axis)
            assert bigger.total_tdp_w >= base.total_tdp_w, (params, axis)
            doublings += 1
    assert doublings > NUM_DESIGNS  # most draws double along both axes
