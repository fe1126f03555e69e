"""Golden pins of the post-fusion metrics a :class:`SimulationResult` reports.

The simulator is pinned on efficientnet-b0 and bert-seq128 (each at its
design's native batch size) on the three named designs (TPU-v3, FAST-Small,
FAST-Large) plus eight feasible datapaths drawn from the Table 3 search
space with a seeded NumPy generator, all with the greedy fusion solver.  A
sampled datapath is feasible when it has a Global Memory (so fusion runs)
and both models schedule on it.  For every pair the pins hold
``summary()``, ``total_cycles``, ``dram_bytes_post_fusion``,
``runtime_fraction_by_op_type`` (post- and pre-fusion),
``per_layer_utilization()`` and the per-region post-fusion cycles, and the
test compares them with exact float equality: JSON floats round-trip
exactly, so any drift in the cost model, the fusion solver or the way a
result assembles its post-fusion view fails here.

How ``golden_simulation_results.json`` was generated: by running this
module as a script (``PYTHONPATH=src python tests/test_golden_results.py``)
at commit 48e4059, before post-fusion cycles and pin decisions moved from
the region records onto :class:`SimulationResult`.  At that commit the
per-region post-fusion cycles were read from each record's
``RegionPerformance.post_fusion_cycles`` instead of
``SimulationResult.region_post_fusion_cycles``.  Regenerate the file the
same way only for an intended change to the cost model.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.core.designs import FAST_LARGE, FAST_SMALL, TPU_V3
from repro.hardware.datapath import DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.result import SimulationResult

GOLDEN_PATH = Path(__file__).with_name("golden_simulation_results.json")
WORKLOADS = ("efficientnet-b0", "bert-seq128")
NAMED = (("tpu-v3", TPU_V3), ("fast-small", FAST_SMALL), ("fast-large", FAST_LARGE))
NUM_SAMPLED = 8
SAMPLE_SEED = 2022


def _simulate(config: DatapathConfig, workload: str) -> SimulationResult:
    options = SimulationOptions(fusion_solver="greedy")
    return Simulator(config, options).simulate_workload(workload)


def _designs() -> Iterator[Tuple[str, Dict[str, object], Dict[str, SimulationResult]]]:
    """Yield ``(label, sampled params or {}, {workload: result})`` per design."""
    for label, config in NAMED:
        yield label, {}, {w: _simulate(config, w) for w in WORKLOADS}
    space = DatapathSearchSpace()
    rng = np.random.default_rng(SAMPLE_SEED)
    sampled = 0
    while sampled < NUM_SAMPLED:
        params = space.sample(rng)
        config = space.to_config(params)
        if config.l3_global_buffer_mib <= 0:
            continue
        results = {w: _simulate(config, w) for w in WORKLOADS}
        if any(result.schedule_failed for result in results.values()):
            continue
        sampled += 1
        jsonable = {name: getattr(value, "value", value) for name, value in params.items()}
        yield f"sampled-{sampled}", jsonable, results


def _pins(result: SimulationResult) -> Dict[str, object]:
    return {
        "summary": result.summary(),
        "total_cycles": result.total_cycles,
        "dram_bytes_post_fusion": result.dram_bytes_post_fusion,
        "runtime_fraction_post_fusion": {
            op_type.value: share
            for op_type, share in result.runtime_fraction_by_op_type(True).items()
        },
        "runtime_fraction_pre_fusion": {
            op_type.value: share
            for op_type, share in result.runtime_fraction_by_op_type(False).items()
        },
        "per_layer_utilization": result.per_layer_utilization(),
        "region_post_fusion_cycles": list(result.region_post_fusion_cycles),
    }


def compute_golden() -> Dict[str, Dict[str, object]]:
    """The pins the current code produces, keyed by design label."""
    golden: Dict[str, Dict[str, object]] = {}
    for label, params, results in _designs():
        entry: Dict[str, object] = {"params": params} if params else {}
        for workload, result in results.items():
            entry[workload] = _pins(result)
        golden[label] = entry
    return golden


def _load_golden() -> Dict[str, Dict[str, object]]:
    if not GOLDEN_PATH.exists():  # first generation
        return {}
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


GOLDEN = _load_golden()


@pytest.fixture(scope="module")
def actual():
    # Through JSON, so keys and values take the exact form the file stores.
    return json.loads(json.dumps(compute_golden()))


def test_golden_covers_every_design():
    assert len(GOLDEN) == len(NAMED) + NUM_SAMPLED
    for entry in GOLDEN.values():
        for workload in WORKLOADS:
            assert entry[workload]["summary"]["schedule_failed"] is False


def test_same_designs_sampled(actual):
    assert list(actual) == list(GOLDEN)
    for label, entry in GOLDEN.items():
        assert actual[label].get("params") == entry.get("params"), label


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("label", list(GOLDEN))
def test_result_matches_golden(actual, label, workload):
    expected = GOLDEN[label][workload]
    got = actual[label][workload]
    for metric in expected:
        assert got[metric] == expected[metric], f"{label}/{workload}: {metric}"
    assert set(got) == set(expected)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
