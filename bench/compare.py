#!/usr/bin/env python3
"""Compare two full-set result files of ``bench/run.py``.

    python3 bench/compare.py PARENT.json CHANGE.json

Prints one row per workload x end-to-end metric, reading the bounds and
directions from ``BENCHMARK.json``:

* ``unresolved`` - either side's quartile spread (IQR / median) exceeds the
  bound, unless every run of the change reads better (or every run worse)
  than every run of the parent;
* ``worse`` - the change's median is worse than the parent's by more than
  the bound;
* ``better`` - the change's median is better by more than the parent's
  IQR;
* ``unchanged`` - anything else.

Count-type per-layer metrics of the traced runs are then compared exactly
(in ``enet-pool2`` worker-side counts depend on scheduling, see README).
Exits 1 when any row is ``worse`` or a failure count grew.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def verdict(parent: List[float], change: List[float], bound: float, higher_is_better: bool) -> str:
    """Classify one workload x metric pair (see module docstring)."""
    sign = 1.0 if higher_is_better else -1.0
    q1_a, median_a, q3_a = quartiles(parent)
    q1_b, median_b, q3_b = quartiles(change)
    spread = max((q3_a - q1_a) / abs(median_a), (q3_b - q1_b) / abs(median_b))
    gain = sign * (median_b - median_a) / abs(median_a)
    all_better = all(sign * b > sign * a for a in parent for b in change)
    all_worse = all(sign * b < sign * a for a in parent for b in change)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > 0 and abs(median_b - median_a) > q3_a - q1_a:
        return "better"
    return "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    print(f"{'workload':<12} {'metric':<14} {'parent':>10} {'change':>10} {'delta':>8}  verdict")
    for workload in declared["workloads"]:
        name = workload["name"]
        rows_a = parent["summary"].get(name, {})
        rows_b = change["summary"].get(name, {})
        for metric in declared["end_to_end"]:
            key = metric["name"]
            if key not in rows_a or key not in rows_b:
                print(f"{name:<12} {key:<14} {'-':>10} {'-':>10} {'-':>8}  missing")
                continue
            a, b = rows_a[key]["values"], rows_b[key]["values"]
            result = verdict(a, b, metric["bound"], metric["better"] == "higher")
            worse += result == "worse"
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(f"{name:<12} {key:<14} {median_a:>10.4g} {median_b:>10.4g}"
                  f" {(median_b - median_a) / median_a:>+8.1%}  {result}")
        failed_a = rows_a.get("failed_frac", {}).get("failed", 0)
        failed_b = rows_b.get("failed_frac", {}).get("failed", 0)
        if failed_b > failed_a:
            worse += 1
            print(f"{name:<12} {'failed trials':<14} {failed_a:>10} {failed_b:>10} {'':>8}  worse")

    units = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    same = differ = 0
    for name, layers_a in parent.get("layers", {}).items():
        layers_b = change.get("layers", {}).get(name, {})
        for key, value in layers_a.items():
            if units.get(key) != "count" or key not in layers_b:
                continue
            if layers_b[key] == value:
                same += 1
            else:
                differ += 1
                note = " (scheduling-dependent)" if name == "enet-pool2" else ""
                print(f"{name:<12} {key:<30} {value:>10} -> {layers_b[key]:<10} count differs{note}")
    print(f"count-type layer metrics: {same} identical, {differ} differ")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
