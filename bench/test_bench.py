"""Smoke test of the search benchmark in ``bench/``.

Runs a full set at 16 trials per round and one repeat (every workload, the
traced runs, the scalar-reference check) and checks the printed metric names
and units against ``BENCHMARK.json``.  Everything runs in subprocesses with
working files under ``tmp_path``, so no cache, file or patched attribute
leaks into the rest of the test session or the source tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=240,
    )


def test_full_set_smoke(tmp_path):
    output = tmp_path / "set.json"
    process = _run(["--repeats", "1", "--trials", "16", "--output", str(output),
                    "--work", str(tmp_path / "work")])
    assert process.returncode == 0, process.stdout[-3000:] + process.stderr[-3000:]
    result = json.loads(output.read_text())
    assert result["failures"] == []

    workloads = [workload["name"] for workload in DECLARED["workloads"]]
    assert list(result["summary"]) == workloads
    end_to_end = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
    for rows in result["summary"].values():
        printed = {name: row["unit"] for name, row in rows.items() if name != "failed_frac"}
        assert printed == end_to_end
    per_layer = [metric["name"] for metric in DECLARED["per_layer"]]
    for name in workloads:
        assert list(result["layers"][name]) == per_layer

    # Traced histories equal the untimed ones of the same search.
    untimed = {run["workload"]: run["rounds"][0]["digest"] for run in result["runs"]}
    for run in result["traced"]:
        for r in run["traced_rounds"]:
            assert r["digest"] == untimed[run["workload"]]


def test_one_run_result_line(tmp_path):
    # The second run reuses the first one's cached scalar reference.
    for seed in ("1", "2"):
        process = _run(["--workload", "enet-cold", "--seed", seed, "--trials", "16", "--trace", "0",
                        "--work", str(tmp_path)])
        assert process.returncode == 0, process.stderr[-3000:]
        line = json.loads(process.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 16
        declared = {metric["name"]: metric["unit"] for metric in DECLARED["end_to_end"]}
        assert {name: value["unit"] for name, value in line["metrics"].items()} == declared
        assert all(value["value"] > 0 for value in line["metrics"].values())
    assert [path.name.split("-")[0] for path in (tmp_path / "cache").iterdir()] == ["reference"]


RESTORE_CHECK = r"""
import inspect, sys
sys.path.insert(0, sys.argv[1])
import layertrace, searchproc

class Targets(layertrace.LayerTrace):
    def patch(self, owner, attr, name, **options):
        self.targets.append((owner, attr))

probe = Targets()
probe.targets = []
layertrace.install_layers(probe)
from repro.search.evolutionary import LinearCombinationSwarmOptimizer
probe.targets.append((LinearCombinationSwarmOptimizer, "tell"))

def state():
    return [(attr in vars(owner), inspect.getattr_static(owner, attr)) for owner, attr in probe.targets]

before = state()
trace = layertrace.LayerTrace()
layertrace.install_layers(trace)
searchproc.run_search(
    {"models": ["efficientnet-b0"], "optimizer": "lcs", "seed": 2, "trials": 16,
     "workers": 1, "engine": ""},
    trace,
)
assert len(trace.patched()) == len(probe.targets), (len(trace.patched()), len(probe.targets))
assert trace.summary()["trial.evaluate"]["calls"] == 16
trace.restore()
assert trace.patched() == []
after = state()
changed = [t for t, b, a in zip(probe.targets, before, after) if b[0] != a[0] or b[1] is not a[1]]
assert not changed, changed
print("restored", len(before))
"""


def test_patched_attributes_are_restored():
    process = subprocess.run(
        [sys.executable, "-c", RESTORE_CHECK, str(BENCH)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert process.returncode == 0, process.stderr[-3000:]
    assert process.stdout.startswith("restored")
