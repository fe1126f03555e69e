"""One benchmark round: a FAST search in a fresh process, built as the CLI does.

``bench/run.py`` starts this script once per round, so caches start empty
and the process's peak RSS belongs to that round alone::

    python bench/searchproc.py SPEC.json OUT.json

``SPEC.json`` holds ``{"search": {...}, "trace": bool, "chrome_trace":
path-or-null, "setup_only": bool}``; the search names its models,
optimizer, seed, trial budget, worker count, engine spec and store paths.
``OUT.json`` receives the search's set-up time, batch latencies, resource
usage and history digests, plus per-layer statistics when traced.

Two things the host does change wall time without the program changing,
and a round measures both for every stretch it times (set-up, search):

* steal: time the hypervisor ran something else on a CPU the round wanted,
  read from ``/proc/stat``.  Set-up and a serial search run pinned to one
  CPU, so that CPU's steal is the round's own; a pool search spreads over
  every CPU and takes their mean.
* speed: a fixed slice of interpreter work (:func:`host_gauge`), timed
  before set-up starts, right after it ends and after every batch.

Steal is read after every batch too, so each batch can be corrected alone.

``bench/run.py`` takes the steal off each time and scales it by the gauge
(see ``bench/README.md``).  Linux only.
"""

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

BATCH_SIZE = 8  # the `repro search --batch-size` default
CHECKPOINT_EVERY = 25  # the `repro search --checkpoint-every` default
PREFIX_TRIALS = 64  # trials compared against the scalar reference
CHROME_TRACE_BATCHES = 16
GAUGE_SAMPLES = 32  # gauge slices taken before and after set-up


def host_gauge() -> float:
    """Seconds one fixed slice of interpreter work takes right now.

    Dict updates on small-int keys: no object the cyclic garbage collector
    tracks is created, so the slice's time follows the host's speed and not
    the state of the search's heap.
    """
    start = time.perf_counter()
    table = {}
    for i in range(400):
        key = i & 63
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def stolen_s(cpus) -> float:
    """Mean over ``cpus`` of the seconds the hypervisor has stolen from them."""
    with open("/proc/stat") as stat:
        steal = {row[0]: int(row[8]) for row in map(str.split, stat) if row[0].startswith("cpu")}
    return sum(steal[f"cpu{cpu}"] for cpu in cpus) / len(cpus) / os.sysconf("SC_CLK_TCK")


def trimmed_mean(values) -> float:
    """Mean of ``values`` without the lowest and highest tenth of them."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def _children_usage():
    return resource.getrusage(resource.RUSAGE_CHILDREN)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def history_digests(history):
    """sha256 of the canonical trial records: (whole history, first ``PREFIX_TRIALS``)."""
    from repro.reporting.serialization import trial_metrics_to_dict

    whole = hashlib.sha256()
    head = None
    for index, metrics in enumerate(history):
        if index == PREFIX_TRIALS:
            head = whole.hexdigest()
        whole.update(json.dumps(trial_metrics_to_dict(metrics), sort_keys=True).encode())
        whole.update(b"\n")
    digest = whole.hexdigest()
    return digest, head if head is not None else digest


def run_search(spec: dict, trace=None, setup_only: bool = False) -> dict:
    """Build one search exactly as ``repro search`` does and run it.

    Set-up is timed from before ``import repro`` to entering
    ``FASTSearch.run``.  With ``setup_only`` the search is built but not
    run, and only the set-up's measurements are returned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    serial = cpus[-1:]
    os.sched_setaffinity(0, serial)
    setup_gauges = [host_gauge() for _ in range(GAUGE_SAMPLES)]
    started, steal_before = time.perf_counter(), stolen_s(serial)

    from repro.core.fast import FASTSearch
    from repro.core.problem import ObjectiveKind, SearchProblem
    from repro.core.trial import TrialEvaluator
    from repro.runtime import SearchCheckpoint, TrialCache, make_executor
    from repro.simulator.enginespec import EngineSpec

    problem = SearchProblem(
        workloads=list(spec["models"]), objective=ObjectiveKind("perf_per_tdp")
    )
    engine = EngineSpec.parse(spec.get("engine") or "")
    evaluator = TrialEvaluator(
        problem,
        simulation_options=engine.to_simulation_options(
            fusion_solver="greedy", op_cache_path=spec.get("op_cache")
        ),
    )
    cache = TrialCache(spec["trial_cache"]) if spec.get("trial_cache") else None
    checkpoint = (
        SearchCheckpoint(spec["checkpoint"], interval=CHECKPOINT_EVERY)
        if spec.get("checkpoint")
        else None
    )
    evaluator.warm_caches()

    workers = int(spec["workers"])
    trials = int(spec["trials"])
    # The pool starts with the first batch; its workers get every CPU.
    search_cpus = cpus if workers > 1 else serial
    batch_starts, batch_ends, batch_gauges, steals = [], [], [], []

    def on_trial(index, _metrics):
        if (index + 1) % BATCH_SIZE == 0 or index + 1 == trials:
            batch_ends.append(time.perf_counter())
            batch_gauges.append(host_gauge())
            steals.append(stolen_s(search_cpus))
            batch_starts.append(time.perf_counter())  # gauge and steal reads are not search time

    with make_executor(workers) as executor:
        search = FASTSearch(
            problem,
            optimizer=spec["optimizer"],
            seed=int(spec["seed"]),
            evaluator=evaluator,
            executor=executor,
            cache=cache,
            checkpoint=checkpoint,
        )
        if trace is not None:
            trace.patch(type(search.optimizer), "tell", "search.tell")
        entered = time.perf_counter()
        setup = {
            "setup_s": entered - started,
            "setup_stolen_s": stolen_s(serial) - steal_before,
            "setup_gauge_s": trimmed_mean(setup_gauges + [host_gauge() for _ in range(GAUGE_SAMPLES)]),
        }
        if setup_only:
            return setup
        os.sched_setaffinity(0, search_cpus)
        before = _children_usage()
        steals.append(stolen_s(search_cpus))
        batch_starts.append(time.perf_counter())
        result = search.run(num_trials=trials, batch_size=BATCH_SIZE, callback=on_trial)
        finished = time.perf_counter()
    after = _children_usage()  # the pool has shut down: its workers are reaped

    digest, prefix_digest = history_digests(result.history)
    batch_s = [end - start for start, end in zip(batch_starts, batch_ends)]
    batch_s[-1] += finished - batch_starts[-1]  # the search's wrap-up after its last trial
    return {
        "seed": int(spec["seed"]),
        "entered": entered,
        **setup,
        "search_s": sum(batch_s),
        "trials": len(result.history),
        "feasible": result.num_feasible_trials,
        "batch_ends": batch_ends,
        "batch_ms": [1e3 * seconds for seconds in batch_s],
        "batch_stolen_ms": [1e3 * (later - earlier) for earlier, later in zip(steals, steals[1:])],
        "batch_gauge_s": batch_gauges,
        "child_cpu_s": _cpu(after) - _cpu(before),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_maxrss_kib": after.ru_maxrss,
        "workers": workers,
        "digest": digest,
        "prefix_digest": prefix_digest,
        "prefix_len": min(PREFIX_TRIALS, len(result.history)),
    }


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(out_path)
    trace = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layertrace import LayerTrace, chrome_trace, install_layers

        trace = LayerTrace()
        install_layers(trace)
        trace.collect_workers(out.parent)
    try:
        result = run_search(spec["search"], trace, bool(spec.get("setup_only")))
    finally:
        if trace is not None:
            trace.restore()
    payload = {"search": result}
    if trace is not None:
        dumps = [trace.to_dict()] + trace.merge_worker_dumps()
        payload["layers"] = trace.summary()
        if spec.get("chrome_trace") and result["batch_ends"]:
            ends = result["batch_ends"]
            cutoff = ends[min(CHROME_TRACE_BATCHES, len(ends)) - 1]
            Path(spec["chrome_trace"]).write_text(
                json.dumps(chrome_trace(dumps, result["entered"], cutoff))
            )
    # raw clock readings mean nothing to the caller
    result.pop("batch_ends", None)
    result.pop("entered", None)
    out.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
