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

One invariant of the area/power model rides along: more PEs never lower a
datapath's area or TDP.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.hardware.area_power import AreaPowerModel
from repro.hardware.search_space import DatapathSearchSpace
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.result import SimulationResult

WORKLOADS = ("efficientnet-b0", "bert-seq128")
NUM_DATAPATHS = 40
SEED = 13


def _feasible_results() -> List[List[SimulationResult]]:
    """Both models' results on each of the first NUM_DATAPATHS feasible samples."""
    space = DatapathSearchSpace()
    rng = np.random.default_rng(SEED)
    options = SimulationOptions(fusion_solver="greedy")
    found = []
    while len(found) < NUM_DATAPATHS:
        config = space.to_config(space.sample(rng))
        simulator = Simulator(config, options)
        results = [simulator.simulate_workload(workload) for workload in WORKLOADS]
        if not any(result.schedule_failed for result in results):
            found.append(results)
    return found


@pytest.fixture(scope="module")
def feasible():
    return _feasible_results()


@pytest.fixture(params=range(NUM_DATAPATHS))
def datapath(request, feasible):
    return feasible[request.param]


@pytest.fixture(params=range(len(WORKLOADS)), ids=WORKLOADS)
def result(request, datapath):
    return datapath[request.param]


def test_sample_covers_fused_and_unfused_datapaths(feasible):
    fused = [result.fusion_result is not None for results in feasible for result in results]
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
