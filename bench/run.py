#!/usr/bin/env python3
"""FAST search benchmark: search workloads, end-to-end metrics, per-layer trace.

One run of one workload::

    python3 bench/run.py --workload enet-cold --seed 0 --seconds 15 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``
with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), and exits non-zero when a correctness check fails.

A full set — every workload ``--repeats`` times, round-robin, then one
traced run per workload::

    python3 bench/run.py [--repeats R] [--output PATH]

prints median, quartiles and n per workload x metric, writes a result file
(environment, raw per-run values, per-layer metrics) and exits non-zero when
any check fails.  ``bench/README.md`` explains the workloads and metrics.

A run is a number of *rounds*; each round is a fresh process
(``bench/searchproc.py``) running the workload's search, so caches start
empty and every round's set-up and RSS are its own.  Every round of every
run repeats the same search (search seed ``SEARCH_SEED``): the cost of a
2000-trial search moves more with its seed than the bounds allow, so only
the host varies between runs.  ``--seed`` is recorded but chooses nothing.
The round count follows from ``--seconds`` and the workload's nominal round
cost, never from the speed of the host.  Besides its rounds, a run starts
``SETUP_PROBES`` processes that only set up, so set-up time is a median.

Reported times are host-corrected: the time the hypervisor stole is taken
off, and the rest is scaled by the host's speed while it was measured, which
a round samples with a fixed gauge slice after every batch and around its
set-up (``bench/searchproc.py``).  Raw times stay in the result file.

The warm-store pass and the scalar reference run once per program version
in a checkout, cached under ``--work``; later runs reuse them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from searchproc import PREFIX_TRIALS, trimmed_mean

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"  # default --work
RESULTS = BENCH / "results"

REFERENCE_ENGINE = "scalar:op_cache=off,region_cache=off"
SEARCH_SEED = 0
SETUP_PROBES = 2  # set-up-only processes per untraced run, besides its rounds
RUN_DEADLINE_S = 170.0  # every run ends within 180 s
# searchproc.host_gauge() on an uncontended core of the reference host (a
# 2-vCPU Xeon VM); host-corrected times read as that core would give them.
GAUGE_REF_S = 33e-6
STOP_GRACE_S = 5.0  # a finished round's leftover processes get this long to exit
GAUGE_WINDOW = 8  # batches on each side whose gauge slices correct a batch


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (BENCHMARK.json says why each exists)."""

    name: str
    models: Tuple[str, ...]
    optimizer: str
    trials: int  # per round; long enough for the region-cache reuse of real searches
    round_s: float  # nominal seconds of one round (set-up + search) on the reference host
    workers: int = 1
    persist: bool = False  # op + region stores, trial cache, checkpoints
    warm: bool = False  # read op + region stores an untimed cold pass wrote


WORKLOADS: List[Workload] = [
    Workload("enet-cold", ("efficientnet-b0",), "lcs", 2000, 23.0, persist=True),
    Workload("enet-warm", ("efficientnet-b0",), "lcs", 2000, 11.0, warm=True),
    Workload("suite-anneal", ("efficientnet-b0", "bert-seq128"), "annealing", 1000, 16.0),
    Workload("enet-pool2", ("efficientnet-b0",), "lcs", 2000, 8.5, workers=2),
]
BY_NAME = {workload.name: workload for workload in WORKLOADS}


def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class RoundFailed(Exception):
    """A round crashed or ran past the run's deadline."""


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def _stop_group(pgid: int) -> None:
    """Wait for every process of a finished round's group, then kill leftovers."""
    give_up = time.monotonic() + STOP_GRACE_S
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_round(spec: dict, workdir: Path, deadline: float) -> dict:
    """Run ``searchproc.py`` on ``spec`` in a fresh process group; return its output.

    The round runs in ``workdir``, where the search's stores live in
    ``stores/``, so a spec names no path and can key a cache.
    """
    (workdir / "stores").mkdir(parents=True, exist_ok=True)
    spec_path, out_path = workdir / "spec.json", workdir / "out.json"
    spec_path.write_text(json.dumps(spec))
    command = [sys.executable, str(BENCH / "searchproc.py"), str(spec_path), str(out_path)]
    with open(workdir / "stderr.txt", "w") as stderr:
        process = subprocess.Popen(
            command, cwd=workdir, env=_child_env(), stdout=subprocess.DEVNULL,
            stderr=stderr, start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise RoundFailed("a round ran past the run deadline")
        finally:
            _stop_group(process.pid)
    if code != 0:
        tail = (workdir / "stderr.txt").read_text().strip().splitlines()[-3:]
        raise RoundFailed(f"a round exited with {code}: {' | '.join(tail)}")
    return json.loads(out_path.read_text())


def _program_digest() -> str:
    """sha256 over every file of the program's sources and the round driver."""
    digest = hashlib.sha256()
    files = [path for path in (ROOT / "src").rglob("*") if path.is_file() and "__pycache__" not in path.parts]
    for path in sorted(files) + [BENCH / "searchproc.py"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(name: str, spec: dict, work: Path, deadline: float) -> Tuple[dict, Path]:
    """An untimed round's search output and directory, run once per program.

    The warm-store pass and the scalar reference depend only on the
    program's sources and ``spec``, so the first run in a checkout makes
    them and every later run reuses that one's, under ``work/cache``.
    """
    key = hashlib.sha256(json.dumps([_program_digest(), spec], sort_keys=True).encode()).hexdigest()
    entry = work / "cache" / f"{name}-{key[:16]}"
    if not (entry / "out.json").is_file():
        staging = entry.with_name(f"{entry.name}.{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        try:
            run_round(spec, staging, deadline)
            shutil.rmtree(entry, ignore_errors=True)
            staging.rename(entry)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return json.loads((entry / "out.json").read_text())["search"], entry


def _search_spec(workload: Workload, trials: int) -> dict:
    spec = {
        "models": list(workload.models),
        "optimizer": workload.optimizer,
        "seed": SEARCH_SEED,
        "trials": trials,
        "workers": workload.workers,
        "engine": "",
    }
    if workload.persist or workload.warm:
        spec["op_cache"] = "stores/ops.jsonl"
        spec["engine"] = "region_store=stores/regions.jsonl"  # default mapper
    if workload.persist:
        spec["trial_cache"] = "stores/trials.jsonl"
        spec["checkpoint"] = "stores/ck.json"
    return spec


def round_count(workload: Workload, seconds: float, trace: bool, trials_override: Optional[int]) -> int:
    """Rounds in a run: as many as ``seconds`` holds, at least one; never host-dependent."""
    if trials_override is not None:
        return 1
    count = max(1, int(seconds // workload.round_s))
    return math.ceil(count / 2) if trace else count  # traced: each round runs twice


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 trials_override: Optional[int] = None, trace_dir: Path = RESULTS) -> dict:
    """One run: every round of one workload, its set-up probes, the checks.

    Working files go under ``work``.  A traced run writes the Chrome trace
    of its first round into ``trace_dir``.
    """
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    trials = trials_override or workload.trials
    count = round_count(workload, seconds, trace, trials_override)
    workdir = work / f"{workload.name}-{os.getpid()}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = {"workload": workload.name, "seed": seed, "trace": trace, "trials": trials,
           "rounds": [], "traced_rounds": [], "setup_probes": [], "failures": []}
    search = _search_spec(workload, trials)
    try:
        cold, warm_stores = None, None
        if workload.warm:
            # The untimed cold pass that writes the stores runs on a 2-worker
            # pool: its history and store contents are the serial ones
            # (duplicate appends are folded on load), in half the time.
            cold, entry = run_once("warm-stores", {"search": {**search, "workers": 2}}, work, deadline)
            warm_stores = entry / "stores"

        def start_round(directory: Path) -> Path:
            """A fresh round directory; a warm round gets its own copy of the stores."""
            if warm_stores is not None:
                shutil.copytree(warm_stores, directory / "stores")
            return directory

        chrome_path = trace_dir.resolve() / f"trace-{workload.name}.json"
        for index in range(count):
            for traced in ((False, True) if trace else (False,)):
                spec = {
                    "search": search,
                    "trace": traced,
                    "chrome_trace": str(chrome_path) if traced and index == 0 else None,
                }
                out = run_round(spec, start_round(workdir / f"round-{index}-{int(traced)}"), deadline)
                result = out["search"]
                if traced:
                    result["layers"] = out["layers"]
                    run["traced_rounds"].append(result)
                else:
                    run["rounds"].append(result)
        if not trace:
            for index in range(SETUP_PROBES):
                spec = {"search": search, "setup_only": True}
                out = run_round(spec, start_round(workdir / f"setup-{index}"), deadline)
                run["setup_probes"].append(out["search"])
        reference, _ = run_once("reference", {"search": {
            "models": list(workload.models), "optimizer": workload.optimizer,
            "seed": SEARCH_SEED, "trials": min(PREFIX_TRIALS, trials),
            "workers": 1, "engine": REFERENCE_ENGINE,
        }}, work, deadline)
        run["failures"] = check_run(run, cold, reference)
    except RoundFailed as error:
        run["failures"].append(str(error))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run["wall_s"] = time.monotonic() - started
    run["attempted"] = trials * count * (2 if trace else 1)
    run["failed"] = run["attempted"] if run["failures"] else 0
    if not run["failures"]:
        run["metrics"] = layer_metrics(run) if trace else end_to_end_metrics(run)
    return run


def check_run(run: dict, cold: Optional[dict], reference: dict) -> List[str]:
    """Correctness checks a single run can make on its own."""
    failures = []
    rounds, traced = run["rounds"], run["traced_rounds"]
    for result in rounds + traced:
        if result["trials"] != run["trials"]:
            failures.append(f"{result['trials']} trials, budget {run['trials']}")
    first = rounds[0]
    if any(result["digest"] != first["digest"] for result in rounds):
        failures.append("rounds of the same search gave different histories")
    if any(result["digest"] != first["digest"] for result in traced):
        failures.append("traced history differs from untraced")
    if cold is not None and first["digest"] != cold["digest"]:
        failures.append("warm history differs from the cold pass")
    if (reference["prefix_len"], reference["prefix_digest"]) != (first["prefix_len"], first["prefix_digest"]):
        failures.append(
            f"first {first['prefix_len']} trials differ from the {REFERENCE_ENGINE} reference"
        )
    return failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def host_corrected(seconds: float, stolen_s: float, gauge_s: float) -> float:
    """Wall ``seconds`` as the reference host would give them.

    ``stolen_s`` of them the hypervisor gave to something else, and the
    rest ran while ``host_gauge()`` took ``gauge_s``.
    """
    return (seconds - stolen_s) * GAUGE_REF_S / gauge_s


def setup_seconds(result: dict) -> float:
    return host_corrected(result["setup_s"], result["setup_stolen_s"], result["setup_gauge_s"])


def corrected_batches_ms(result: dict) -> List[float]:
    """A round's batch latencies, each corrected by its own steal and nearby gauge slices.

    The host's speed moves within a round; a local window tracks it where
    one factor per round would leave the median batch off by several percent.
    """
    gauges = result["batch_gauge_s"]
    return [
        host_corrected(ms, stolen_ms, trimmed_mean(gauges[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1]))
        for i, (ms, stolen_ms) in enumerate(zip(result["batch_ms"], result["batch_stolen_ms"]))
    ]


def search_seconds(result: dict) -> float:
    return sum(corrected_batches_ms(result)) / 1e3


def end_to_end_metrics(run: dict) -> Dict[str, float]:
    """Per-round rates and RSS, and set-ups, as medians; batch latency pooled.

    Every time is host-corrected (see :func:`host_corrected`); search time
    is the sum of the corrected batches.
    """
    rounds = run["rounds"]
    batches = [ms for result in rounds for ms in corrected_batches_ms(result)]
    return {
        "trials_per_s": statistics.median(r["trials"] / search_seconds(r) for r in rounds),
        "setup_s": statistics.median(setup_seconds(r) for r in rounds + run["setup_probes"]),
        "batch_ms_p50": statistics.median(batches),
        "peak_rss_mib": statistics.median(
            (r["maxrss_kib"] + r["workers"] * r["child_maxrss_kib"]) / 1024 for r in rounds
        ),
    }


def layer_metrics(run: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced run, summed over its traced rounds.

    In a pool run the worker-side layers sum over every worker.
    """
    traced = run["traced_rounds"]
    records: Dict[str, Dict[str, float]] = {}
    for result in traced:
        for name, fields in result["layers"].items():
            total = records.setdefault(name, dict.fromkeys(fields, 0))
            for field, value in fields.items():
                total[field] += value

    def field(name, key):
        return records.get(name, {}).get(key, 0)

    def calls(name):
        return field(name, "calls")

    def self_s(*names):
        return sum(field(name, "self_s") for name in names)

    def items(name):
        return field(name, "items")

    def hits(name):
        return field(name, "hits")

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    wall = sum(result["search_s"] for result in traced)
    overhead = sum(search_seconds(result) for result in traced) / sum(
        search_seconds(result) for result in run["rounds"]
    )
    workers = max(result["workers"] for result in traced)
    run_total = field("search.run", "total_s")
    return {
        "search.ask.calls": calls("search.ask"),
        "search.ask.self_s": self_s("search.ask"),
        "search.tell.self_s": self_s("search.tell"),
        "executor.evaluate_batch.self_s": self_s("executor.evaluate_batch"),
        "executor.worker_cpu_s": sum(result["child_cpu_s"] for result in traced),
        "executor.worker_util": ratio(
            sum(result["child_cpu_s"] for result in traced), wall * workers
        ) if workers > 1 else 0.0,
        "trial.evaluate.calls": calls("trial.evaluate"),
        "trial.evaluate.self_s": self_s("trial.evaluate", "trial.evaluate_batch"),
        "hardware.to_config.self_s": self_s("hardware.to_config"),
        "hardware.area_power.calls": calls("hardware.area_power"),
        "hardware.area_power.self_s": self_s("hardware.area_power"),
        "simulator.setup.self_s": self_s("simulator.setup"),
        "simulator.simulate.calls": calls("simulator.simulate"),
        "simulator.simulate.self_s": self_s("simulator.simulate"),
        "simulator.gather.self_s": self_s("simulator.gather"),
        "simulator.vector_op.calls": calls("simulator.vector_op"),
        "simulator.vector_op.self_s": self_s("simulator.vector_op"),
        "compiler.compile.calls": calls("compiler.compile"),
        "compiler.compile.self_s": self_s("compiler.compile"),
        "workloads.build.calls": calls("workloads.build"),
        "workloads.build.self_s": self_s("workloads.build"),
        "mapping.map.calls": calls("mapping.map"),
        "mapping.map.ops": items("mapping.map"),
        "mapping.map.self_s": self_s("mapping.map"),
        "fusion.optimize.calls": calls("fusion.optimize"),
        "fusion.optimize.regions": items("fusion.optimize"),
        "fusion.optimize.self_s": self_s("fusion.optimize"),
        "cache.region.lookups": calls("cache.region.get"),
        "cache.region.hits": hits("cache.region.get"),
        "cache.region.hit_ratio": ratio(hits("cache.region.get"), calls("cache.region.get")),
        "cache.region.get_s": self_s("cache.region.get"),
        "cache.region.peek_s": self_s("cache.region.peek"),
        "cache.region.puts": calls("cache.region.put"),
        "cache.region.put_s": self_s("cache.region.put"),
        "cache.op.lookups": calls("cache.op.get"),
        "cache.op.hits": hits("cache.op.get"),
        "cache.op.hit_ratio": ratio(hits("cache.op.get"), calls("cache.op.get")),
        "cache.op.get_s": self_s("cache.op.get"),
        "cache.op.puts": calls("cache.op.put"),
        "cache.op.put_s": self_s("cache.op.put"),
        "cache.load_s": self_s("cache.load"),
        "trial_cache.get_s": self_s("trial_cache.get"),
        "trial_cache.put_s": self_s("trial_cache.put"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.save_s": self_s("checkpoint.save", "checkpoint.maybe_save"),
        "trace.attributed_frac": ratio(run_total - self_s("search.run"), run_total),
        "trace.unattributed_s": self_s("search.run"),
        "trace.overhead_frac": overhead - 1.0,
    }


def result_line(run: dict) -> dict:
    """The one-line JSON result of a run."""
    units = declared_units("per_layer" if run["trace"] else "end_to_end")
    metrics = run.get("metrics") or {}
    return {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


# ---------------------------------------------------------------------------
# Full set
# ---------------------------------------------------------------------------
def environment(seed: int, repeats: int, seconds: float) -> dict:
    import multiprocessing

    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "platform": platform.platform(),
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def cross_run_failures(runs: List[dict], traced: List[dict]) -> List[str]:
    """Checks across runs: repeats agree, cold/warm/pool agree, traced agrees."""
    failures = []
    digests: Dict[str, set] = {}
    for run in runs + traced:
        for result in run["rounds"] + run["traced_rounds"]:
            digests.setdefault(run["workload"], set()).add(result["digest"])
    for name, seen in digests.items():
        if len(seen) > 1:
            failures.append(f"{name}: histories differ across runs")
    same_search = set().union(*(digests.get(name, set()) for name in ("enet-cold", "enet-warm", "enet-pool2")))
    if len(same_search) > 1:
        failures.append("enet-cold / enet-warm / enet-pool2 histories differ")
    return failures


def full_set(args, work: Path) -> int:
    env = environment(args.seed, args.repeats, args.seconds)
    output = Path(args.output) if args.output else RESULTS / "latest.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    runs, traced = [], []
    for repeat in range(args.repeats):
        for workload in WORKLOADS:
            run = run_workload(workload, args.seed, args.seconds, False, work, args.trials)
            run["repeat"] = repeat
            runs.append(run)
            print(f"repeat {repeat} {workload.name}: {run['wall_s']:.1f} s"
                  + (f" FAILED {run['failures']}" if run["failures"] else ""), flush=True)
    for workload in WORKLOADS:
        run = run_workload(workload, args.seed, args.seconds, True, work, args.trials, output.parent)
        traced.append(run)
        print(f"traced {workload.name}: {run['wall_s']:.1f} s"
              + (f" FAILED {run['failures']}" if run["failures"] else ""), flush=True)

    failures = [f"{run['workload']}: {f}" for run in runs + traced for f in run["failures"]]
    failures += cross_run_failures(runs, traced)
    summary: Dict[str, Dict[str, dict]] = {}
    for workload in WORKLOADS:
        own = [run for run in runs if run["workload"] == workload.name]
        attempted = sum(run["attempted"] for run in own)
        failed = sum(run["failed"] for run in own)
        rows = summary.setdefault(workload.name, {})
        for name, unit in declared_units("end_to_end").items():
            values = [run["metrics"][name] for run in own if "metrics" in run]
            if values:
                q1, median, q3 = quartiles(values)
                rows[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                              "n": len(values), "values": values}
        rows["failed_frac"] = {"unit": "fraction", "median": failed / attempted if attempted else 1.0,
                               "attempted": attempted, "failed": failed}
    layers = {run["workload"]: run.get("metrics", {}) for run in traced}

    print(f"\n{'workload':<12} {'metric':<14} {'unit':<9} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    for name, rows in summary.items():
        for metric, row in rows.items():
            if metric == "failed_frac":
                print(f"{name:<12} {metric:<14} {row['unit']:<9} {row['median']:>10.4g}"
                      f" {'':>10} {'':>10} {row['attempted']:>3}")
            else:
                print(f"{name:<12} {metric:<14} {row['unit']:<9} {row['median']:>10.4g}"
                      f" {row['q1']:>10.4g} {row['q3']:>10.4g} {row['n']:>3}")
    print(f"\n{'per-layer metric':<32} {'unit':<9}" + "".join(f" {w.name:>12}" for w in WORKLOADS))
    for metric, unit in declared_units("per_layer").items():
        cells = "".join(
            f" {layers[w.name][metric]:>12.4g}" if metric in layers.get(w.name, {}) else f" {'-':>12}"
            for w in WORKLOADS
        )
        print(f"{metric:<32} {unit:<9}{cells}")

    output.write_text(json.dumps({
        "environment": env,
        "summary": summary,
        "layers": layers,
        "runs": runs,
        "traced": traced,
        "failures": failures,
    }, indent=1))
    print(f"\nresult file: {output}")
    if failures:
        print("CHECKS FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run one workload and print its one-line JSON result")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the result; every run repeats the same search")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="time budget of one run; sets its round count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer (1) or end-to-end (0) metrics")
    parser.add_argument("--repeats", type=int, default=5, help="full set: runs per workload")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the per-round trial budget and use one round (smoke tests)")
    parser.add_argument("--output", default=None, help="full set: result file path")
    parser.add_argument("--work", default=str(WORK),
                        help="directory for working files and the cache of untimed rounds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    work = Path(args.work).resolve()
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    if args.workload is None:
        return full_set(args, work)
    run = run_workload(BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace), work, args.trials)
    for failure in run["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result_line(run)))
    return 1 if run["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
