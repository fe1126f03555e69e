"""Command-line interface for the FAST reproduction.

The CLI exposes the main entry points of the library without writing any
Python: listing and inspecting workloads, simulating a named design on a
workload, running the characterization analyses of Section 4, running a
(small) FAST search, computing ROI, and regenerating the paper's tables and
figures through the experiment registry.

Examples::

    python -m repro list-workloads
    python -m repro simulate --design fast-large --workload efficientnet-b0
    python -m repro characterize --workload efficientnet-b7
    python -m repro search --workload efficientnet-b0 --trials 50 --optimizer lcs
    python -m repro roi --speedup 3.9 --volume 4000
    python -m repro reproduce table1

Scaling searches
----------------
``repro search`` runs on the :mod:`repro.runtime` subsystem, which adds four
independent scaling knobs:

* ``--workers N`` evaluates trial batches on ``N`` worker processes.  Trial
  ordering is preserved, so the search history depends only on the seed and
  batch size — ``--workers 4`` finds the same designs as ``--workers 1``.
* ``--batch-size B`` (default 8) controls how many proposals are asked from
  the optimizer per step.  Larger batches expose more parallelism; smaller
  batches give the optimizer fresher feedback.
* ``--cache PATH`` memoizes trial metrics in a JSON-lines file keyed by the
  configuration and problem fingerprint.  Repeated configurations — across
  restarts, sweeps, and benchmarks — skip the simulator entirely.
* ``--checkpoint PATH`` saves the optimizer state and history every
  ``--checkpoint-every`` trials; ``--resume PATH`` continues an interrupted
  search from that file to the full trial budget.

``--progress`` streams live per-trial progress lines (trial outcomes, cache
hits, new best-so-far, checkpoint saves).  Example::

    python -m repro search --workload efficientnet-b0 --trials 200 \
        --workers 4 --batch-size 8 --cache trials.jsonl \
        --checkpoint search.ckpt --progress
    # interrupted? continue where it stopped:
    python -m repro search --workload efficientnet-b0 --trials 200 \
        --workers 4 --batch-size 8 --cache trials.jsonl --resume search.ckpt

Beyond one process, ``repro sweep`` shards a single search across ``N``
independent shards (decorrelated seed streams, or disjoint slices of one
parameter axis with ``--mode space --partition-axis <name>``) and merges
their Pareto fronts, trial histories, and runtime stats into one
deduplicated result.  Everything is deterministic for a fixed seed, so the
merged sweep equals the same shard searches run back-to-back in a single
process.  Run it all in one go::

    python -m repro sweep --workload efficientnet-b0 --trials 200 --shards 4 \
        --workers 4 --cache trials.jsonl --output sweep.json

or run shards on separate hosts and merge their files afterwards::

    # on host k (k = 0..3):
    python -m repro sweep --workload efficientnet-b0 --trials 200 --shards 4 \
        --shard-index $K --output shard-$K.json
    # anywhere, afterwards:
    python -m repro sweep --merge shard-0.json shard-1.json shard-2.json \
        shard-3.json --output sweep.json

Shards sharing one ``--cache`` path append to per-shard sidecar files, so
concurrent writers never corrupt the store.  ``repro cache compact`` folds
the sidecars back into the base file, keeps one record per key (the last
one read; evaluation is deterministic, so every record of a key is the
same), and beyond ``--max-entries`` evicts the earliest-written entries:
base file first, then sidecars in name order.  Merged sidecars are
deleted.  It refuses a store of another kind — an op or region store, whose
records have no ``"metrics"`` — and leaves it as it was::

    python -m repro cache compact --cache trials.jsonl --max-entries 10000

Sharded writers claim their sidecar with a pid/host owner marker:
compaction folds in sidecars orphaned by crashed (or finished) writers while
never touching one a live foreign process still appends to, so ``repro cache
compact`` is safe while a sweep is writing, and when a previous sweep died
mid-write.

Remote evaluation
~~~~~~~~~~~~~~~~~
Beyond one machine, trial evaluation itself can move to a fleet of
evaluation services.  ``repro serve`` starts a stdlib-only HTTP service that
accepts batches of trial parameters plus a problem fingerprint and returns
the evaluated metrics (``--workers N`` parallelizes each batch server-side;
``--op-cache`` keeps a warm persistent op-cost cache across requests)::

    # on each evaluator host:
    python -m repro serve --port 8642 --workers 4

    # on the search host:
    python -m repro search --workload efficientnet-b0 --trials 200 \
        --executor remote --endpoints http://hostA:8642 \
        --endpoints http://hostB:8642 --progress

The remote executor fans each batch out to the endpoints concurrently with
a per-request ``--remote-timeout``, bounded retry with exponential backoff,
hedged re-dispatch of stragglers (after ``--hedge-after`` seconds without
progress the still-pending chunks are duplicated onto other endpoints;
first result wins), and graceful blacklisting of endpoints that keep
failing.  **Equivalence guarantee:** results are reassembled in proposal
order and evaluation is deterministic, so a remote search reproduces the
serial executor's trial history bit-for-bit for the same seed and batch
size — and injected faults (timeouts, errors, stragglers) can delay a
batch but never corrupt or reorder the merged history (a batch that cannot
be evaluated raises instead of returning partial results).  Per-endpoint
request/retry/hedge/latency counters land in the ``RuntimeStats`` of the
search summary and ``--output`` JSON.

The service also hosts the cross-shard scoreboard used by ``repro sweep
--exchange``: pass a file prefix (shared filesystem) or a service URL and
every shard publishes its best-so-far between batches while guided
optimizers (annealing incumbents, Bayesian EI) fold the best score found by
*other* shards into their proposals::

    python -m repro sweep --workload efficientnet-b0 --trials 200 --shards 4 \
        --exchange /tmp/scores.json        # or --exchange http://hostA:8642

``--exchange`` is off by default, excludes a shard's own records, and a
1-shard sweep is bit-for-bit identical with or without it — cross-shard
coupling is strictly opt-in.

Performance
-----------
Trial evaluation itself — the Figure-1 pipeline of mapper, VPU cost model,
and FAST fusion — runs on fast paths, and one flag names them all:
``--engine MAPPER[:key=value,...]`` on ``repro search``, ``sweep``,
``profile``, and ``serve``::

    --engine graph-batched                       # the default engine
    --engine scalar                              # pure-Python reference loop
    --engine graph-batched:op_cache=off,region_cache=off

Two mapping engines, bit-for-bit equivalent — same tilings, cycles, and
DRAM bytes:

* **scalar** — the op-by-op pure-Python candidate loop; the reference for
  verification and profiling.
* **graph-batched** (default) — the whole trial is the unit of
  vectorization: every matrix op a trial needs mapped is gathered across
  all fusion regions and costed in ONE stacked NumPy pass over
  ``ops x dataflows x (m, n, k)-tilings``, then scattered back.

Engine options ``op_cache=on|off`` and ``region_cache=on|off`` toggle the
two cross-trial memoization layers: the region-level result cache (whole
fusion-region evaluations keyed by graph fingerprint, region index, and
mapping-relevant datapath sub-config) and the per-op cost cache.

**The shared cost caches.**  Each memoization layer is one tier: an
in-process memory LRU plus an optional persistent JSON-lines store —
``--op-cache PATH`` for op costs, ``--engine ...:region_store=PATH`` for
whole evaluated regions.  Stores are digest-keyed, append-only
(single-write appends make concurrent writers safe; duplicates are folded
by compaction), and warm-loaded at startup — by searches, sweep shards, and
``repro serve`` alike.  A store entry is bit-identical to a fresh
evaluation, so a store can change only wall-clock time, never a search
history.  Disk-served lookups are reported separately as
``op_cache_disk_hits`` / ``region_cache_disk_hits``.

Worked example — one host computes, every later run starts warm::

    # Host A: serve evaluations, keeping every evaluated region in a store
    python -m repro serve --host 0.0.0.0 --port 8642 \
        --engine graph-batched:region_store=runs/regions.jsonl

    # Host B: evaluate on host A; repeat runs (from any host) are served
    # from host A's caches for every region it has already evaluated
    python -m repro search --workload resnet50 --trials 200 \
        --executor remote --endpoints http://hostA:8642

    # Host A, later: warm-load the store directly, no network
    python -m repro search --workload resnet50 --trials 200 \
        --engine graph-batched:region_store=runs/regions.jsonl

Hit/miss counters for both caches appear in the search summary, progress
lines, and ``RuntimeStats``; a service reports its own on ``/metrics``
(``repro_cache_lookups``).

**Warm parallel workers** (``--workers N``) compose with every engine:
the parent warms once before it starts the pool (graphs, compiled regions,
op/region caches and their persistent stores), and fork carries those
caches to every worker and to every worker respawned after a crash.
Workers inherit the parent's engine spec through the pool initializer —
the resolved spec is echoed back as ``engine`` in ``RuntimeStats``, so a
pool silently running a different engine than you asked for is visible in
``repro profile``.

``repro profile`` measures both engines on a fixed-seed search:
trials/sec, a per-stage time breakdown (mapper / vector / fusion / other),
and cache hit rates for the scalar reference, the graph-batched engine with
each cache off and on, and parallel modes, verifying along the way that
every mode reproduces the same trial history.  Every row runs traced: its
stage columns are span totals (mapper is ``batch_map`` + ``map_op``, vector
``vector_op``, fusion ``fusion``, other the rest of ``trial``), the names
``repro trace`` prints; a pool row sums its workers' spans::

    python -m repro profile --workload efficientnet-b0 --trials 48 \
        --warm-op-cache --output profile.json

When to prefer which knob: the defaults (``--engine graph-batched``,
both caches on, serial) are the right starting point; add ``--workers``
when a profile shows the evaluator saturating one core — warm workers
compose with every cache layer — and add ``--op-cache PATH`` whenever you
run more than one search over the same workloads (sweeps, shards,
services, restarts).

Observability
-------------
Every run can explain where its time went.  ``--trace PATH`` on ``repro
search`` and ``repro sweep`` records spans across the whole pipeline —
search batches, trials, simulator stages (setup / mapping / regions /
fusion, plus a ``map_op`` span per op the scalar engine maps and a
``vector_op`` span per VPU op costed on an op-cache miss), process-pool
workers (worker spans merge back into the parent trace exactly once), and
remote requests all the way into the evaluation service (the trace context
travels in an HTTP header, so server-side spans appear in the client's
trace) — and writes a Chrome-trace JSON (load it in
chrome://tracing or Perfetto) or, with a ``.jsonl`` extension, one span per
line.  ``--trace-sample RATE`` keeps that fraction of trial span trees.
Tracing is strictly observational: trial histories are bit-for-bit
identical with it on or off.  ``repro trace PATH`` digests a recorded file
into a per-stage timeline, the fraction of trial wall time the spans
explain, and the slowest individual spans::

    python -m repro search --workload efficientnet-b0 --trials 50 \
        --trace search-trace.json
    python -m repro trace search-trace.json --top 5

``repro serve`` exposes Prometheus text metrics at ``GET /metrics``
(per-route request counters and latency histograms, uptime, worker / trial
/ cache gauges) next to ``GET /health`` (which reports uptime and
per-route request counts); ``repro serve --verbose`` turns on per-request
access logging.

Fault tolerance
---------------
Partial failure never changes what a search computes.  The runtime's
recovery guarantees, from the inside out:

* **Supervised worker pools.**  A pool worker dying mid-batch (OOM kill,
  segfault) breaks the pool; the executor detects it, spawns a fresh pool —
  whose workers fork from the warm parent like the first ones — and
  re-dispatches the in-flight batch, up to a restart budget.  Evaluation is
  deterministic, so the history is bit-for-bit what a fault-free run
  produces; ``worker_restarts`` in the summary reports what happened.
* **Remote escalation ladder with local fallback.**  Remote batches get
  per-request timeouts, bounded retry with backoff, hedged straggler
  re-dispatch, endpoint blacklisting, and whole-fleet forgiveness; if a
  batch *still* cannot be evaluated remotely, it is evaluated serially
  in-process instead of failing the search (``remote_fallbacks`` counts
  these, and a ``remote_fallback`` span records why).
* **Crash-safe stores.**  A checkpoint is a journal: its first save writes
  a snapshot (temp file, ``fsync``, rename), and each later save of the
  run appends only the trials since the one before, ``fsync``'d before
  the search goes on.  Cache/op-store compactions also write a temp file,
  ``fsync`` it, then rename, so they survive power loss, not just process
  death.  A torn JSONL tail from a killed append, in a store or in the
  checkpoint journal, is quarantined (skipped + counted as
  ``corrupt_records``, dropped by the next compaction or snapshot) instead
  of aborting the load, and stale temp files from crashed writers are
  swept on the next load or poll.  Killing a search
  and rerunning with ``--resume`` reproduces the uninterrupted history
  bit-for-bit.

All of it is testable on purpose: ``--inject-faults SPEC --fault-seed N``
(on ``repro search`` and ``repro sweep``) installs a seeded, deterministic
fault plan, so chaos runs are reproducible in CI.  A spec is a
comma-separated list of fault points, each with optional colon-separated
params — ``p=PROB`` (fire probability per opportunity, default 1),
``n=MAX`` (total fire budget), ``at=I|J|K`` (pin to exact opportunity
indices), ``delay=SECONDS`` (for the slow/delay points)::

    python -m repro search --workload efficientnet-b0 --trials 16 \
        --workers 2 --inject-faults "worker-crash:n=1,torn-write:n=1" \
        --fault-seed 7 --cache trials.jsonl

Fault points: ``worker-crash`` (SIGKILL a pool worker mid-batch),
``remote-drop`` / ``remote-timeout`` / ``remote-slow`` (client-side request
faults), ``service-error`` / ``service-drop`` / ``service-delay``
(service-side faults; also available on ``repro serve --inject-faults`` to
run a deliberately flaky endpoint), and ``torn-write`` (truncated cache
append / half a checkpoint journal record / partial checkpoint temp file).  The injected-fault history must
equal the clean history bit-for-bit — CI's ``chaos`` smoke asserts exactly
that, plus a kill-and-``--resume`` round-trip.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.footprint import storage_requirements
from repro.analysis.intensity import intensity_report
from repro.core.designs import NAMED_DESIGNS
from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.economics.roi import RoiModel
from repro.hardware.area_power import AreaPowerModel
from repro.reporting.experiments import list_experiments, run_experiment
from repro.reporting.serialization import save_config, save_search_result
from repro.reporting.tables import format_kv, format_table
from repro.simulator.engine import Simulator
from repro.simulator.enginespec import EngineSpec
from repro.workloads.registry import available_workloads, build_workload

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns a process exit code)
# ---------------------------------------------------------------------------
def _configure_trace(path: Optional[str], sample_rate: float, seed: int) -> bool:
    """Enable span tracing for this process (and any pools it starts)."""
    if not path:
        return False
    from repro.runtime.telemetry import configure_tracer

    configure_tracer(enabled=True, sample_rate=sample_rate, seed=seed)
    return True


def _configure_faults(spec: Optional[str], seed: int) -> bool:
    """Install the ``--inject-faults`` plan for this process; True on error.

    Installed before the executor exists, like tracing, so every failure
    site — pool dispatch, remote attempts, cache and checkpoint writers —
    consults the same seeded plan.
    """
    from repro.runtime.faults import configure_faults

    try:
        configure_faults(spec, seed=seed)
    except ValueError as error:
        print(f"error: {error}")
        return True
    return False


def _write_trace(path: str) -> None:
    """Write the recorded spans as Chrome trace (.json) or JSONL (.jsonl)."""
    from repro.runtime.telemetry import get_tracer, write_chrome_trace, write_jsonl_trace

    tracer = get_tracer()
    records = tracer.snapshot()
    writer = write_jsonl_trace if path.endswith(".jsonl") else write_chrome_trace
    count = writer(records, path)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"trace: {count} spans written to {path}{dropped}")


def _cmd_list_workloads(_args) -> int:
    rows = []
    for name in available_workloads():
        graph = build_workload(name, batch_size=1)
        rows.append(
            [
                name,
                len(graph),
                f"{graph.total_flops() / 1e9:.2f} GFLOPs",
                f"{graph.weight_bytes() / (1 << 20):.1f} MiB",
            ]
        )
    print(format_table(["Workload", "Ops", "FLOPs (batch 1)", "Weights"], rows))
    return 0


def _cmd_list_designs(_args) -> int:
    model = AreaPowerModel()
    rows = []
    for name, config in NAMED_DESIGNS.items():
        breakdown = model.evaluate(config)
        rows.append(
            [
                name,
                f"{config.peak_matrix_flops / 1e12:.0f} TFLOPS",
                f"{config.dram_bandwidth_bytes_per_s / 1e9:.0f} GB/s",
                f"{config.systolic_array_x}x{config.systolic_array_y}",
                config.l3_global_buffer_mib,
                f"{breakdown.total_area_mm2:.0f} mm2",
                f"{breakdown.total_tdp_w:.0f} W",
            ]
        )
    print(format_table(["Design", "Peak", "Bandwidth", "Systolic", "GM MiB", "Area", "TDP"], rows))
    return 0


def _cmd_simulate(args) -> int:
    config = _resolve_design(args.design)
    if config is None:
        return 1
    simulator = Simulator(config)
    result = simulator.simulate_workload(args.workload, batch_size=args.batch_size)
    if result.schedule_failed:
        print(f"schedule failure: {args.workload} cannot be mapped onto {args.design}")
        return 1
    tdp = AreaPowerModel().tdp_w(config)
    print(format_kv(
        {
            "workload": args.workload,
            "design": args.design,
            "batch size": result.batch_size,
            "latency (ms)": result.latency_ms,
            "throughput (QPS)": result.qps,
            "compute utilization": result.compute_utilization,
            "operational intensity (post-fusion)": result.operational_intensity(),
            "memory stall fraction": result.memory_stall_fraction(),
            "TDP (W)": tdp,
            "Perf/TDP (QPS/W)": result.qps / tdp if tdp else 0.0,
        },
        title=f"Simulation of {args.workload} on {args.design}",
    ))
    return 0


def _cmd_characterize(args) -> int:
    graph = build_workload(args.workload, batch_size=args.batch_size)
    storage = storage_requirements(graph)
    intensity = intensity_report(graph)
    print(format_kv(
        {
            "ops": len(graph),
            "total FLOPs": graph.total_flops(),
            "weights (MiB)": storage.weight_mib,
            "max working set (MiB)": storage.max_working_set_mib,
            "matrix-op FLOP fraction": graph.matrix_op_flop_fraction(),
            "op intensity (no fusion)": intensity["none"],
            "op intensity (XLA fusion)": intensity["xla"],
            "op intensity (block fusion)": intensity["block"],
            "op intensity (ideal)": intensity["ideal"],
        },
        title=f"{args.workload} at batch {args.batch_size}",
    ))
    return 0


def _cmd_search(args) -> int:
    from repro.core.trial import TrialEvaluator
    from repro.runtime import ProgressBus, ProgressPrinter, SearchCheckpoint, TrialCache, make_executor

    problem = SearchProblem(
        workloads=list(args.workload),
        objective=ObjectiveKind(args.objective),
    )
    try:
        engine = EngineSpec.parse(args.engine)
    except ValueError as error:
        print(f"error: {error}")
        return 1
    evaluator = TrialEvaluator(
        problem,
        simulation_options=engine.to_simulation_options(
            fusion_solver="greedy",
            op_cache_path=args.op_cache,
        ),
    )
    cache = TrialCache(args.cache) if args.cache else None
    checkpoint_path = args.resume or args.checkpoint
    checkpoint = (
        SearchCheckpoint(checkpoint_path, interval=args.checkpoint_every)
        if checkpoint_path
        else None
    )
    progress = None
    if args.progress:
        progress = ProgressBus()
        progress.subscribe(ProgressPrinter())
    if args.executor == "remote" and not args.endpoints:
        print("error: --executor remote requires at least one --endpoints URL")
        return 1
    # Tracing must be configured before the executor exists: the process
    # pool ships the telemetry config to workers through its initializer.
    tracing = _configure_trace(args.trace, args.trace_sample, args.seed)
    if _configure_faults(args.inject_faults, args.fault_seed):
        return 1
    with make_executor(
        args.workers,
        kind=args.executor,
        endpoints=args.endpoints,
        timeout=args.remote_timeout,
        hedge_after=args.hedge_after,
    ) as executor:
        search = FASTSearch(
            problem,
            optimizer=args.optimizer,
            seed=args.seed,
            evaluator=evaluator,
            executor=executor,
            cache=cache,
            checkpoint=checkpoint,
            progress=progress,
        )
        try:
            result = search.run(
                num_trials=args.trials,
                batch_size=args.batch_size,
                resume=bool(args.resume),
            )
        except ValueError as error:  # e.g. checkpoint/problem mismatch
            print(f"error: {error}")
            return 1
    if tracing:
        _write_trace(args.trace)
    if result.best_metrics is None:
        print("search found no feasible design within the trial budget")
        return 1
    print(format_kv(result.best_config.describe(), title="Best design found"))
    print()
    summary = {
        "trials": result.num_trials,
        "feasible trials": result.num_feasible_trials,
        "best score": result.best_score,
        **{f"QPS ({w})": q for w, q in result.best_metrics.per_workload_qps.items()},
        "TDP (W)": result.best_metrics.tdp_w,
        "area (mm2)": result.best_metrics.area_mm2,
    }
    if result.runtime is not None:
        summary["trials/sec"] = result.runtime.trials_per_second
        if cache is not None:
            summary["cache hits"] = result.runtime.cache_hits
        if result.runtime.op_cache_hits or result.runtime.op_cache_misses:
            summary["op-cache hits"] = result.runtime.op_cache_hits
            summary["op-cache hit rate"] = result.runtime.op_cache_hit_rate
        if result.runtime.op_cache_disk_hits:
            summary["op-cache disk hits"] = result.runtime.op_cache_disk_hits
        if result.runtime.region_cache_hits or result.runtime.region_cache_misses:
            summary["region-cache hits"] = result.runtime.region_cache_hits
            summary["region-cache hit rate"] = result.runtime.region_cache_hit_rate
        if result.runtime.region_cache_disk_hits:
            summary["region-cache disk hits"] = result.runtime.region_cache_disk_hits
        if result.runtime.resumed_trials:
            summary["resumed trials"] = result.runtime.resumed_trials
        if result.runtime.worker_restarts:
            summary["worker restarts"] = result.runtime.worker_restarts
        if result.runtime.remote_fallbacks:
            summary["remote fallbacks"] = result.runtime.remote_fallbacks
        if result.runtime.corrupt_records:
            summary["quarantined records"] = result.runtime.corrupt_records
        if result.runtime.faults_injected:
            summary["faults injected"] = result.runtime.faults_injected
        if result.runtime.remote_requests:
            summary["remote requests"] = result.runtime.remote_requests
            summary["remote retries"] = result.runtime.remote_retries
            summary["remote hedges"] = result.runtime.remote_hedges
            for url, counters in sorted(result.runtime.endpoint_stats.items()):
                successes = counters.get("successes", 0)
                mean_ms = (
                    1e3 * counters.get("latency_seconds", 0.0) / successes
                    if successes
                    else 0.0
                )
                summary[f"endpoint {url}"] = (
                    f"{int(counters.get('requests', 0))} req, "
                    f"{int(counters.get('retries', 0))} retries, "
                    f"{mean_ms:.0f} ms mean"
                )
    print(format_kv(summary, title="Search summary"))
    if args.output:
        save_search_result(result, args.output, include_history=args.history)
        print(f"\nsearch result written to {args.output}")
    if args.save_config:
        save_config(result.best_config, args.save_config)
        print(f"best design written to {args.save_config}")
    return 0


def _cmd_sweep(args) -> int:
    import json

    from repro.runtime import make_executor
    from repro.runtime.sharding import (
        load_shard_result,
        merge_shard_results,
        plan_shards,
        run_shard,
        save_shard_result,
        sweep_result_to_dict,
    )

    if args.merge:
        try:
            shard_results = [load_shard_result(path) for path in args.merge]
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot load shard file: {error}")
            return 1
    else:
        if not args.workload:
            print("error: --workload is required unless --merge is given")
            return 1
        problem = SearchProblem(
            workloads=list(args.workload),
            objective=ObjectiveKind(args.objective),
        )
        try:
            specs = plan_shards(
                args.trials,
                args.shards,
                seed=args.seed,
                mode=args.mode,
                partition_axis=args.partition_axis,
            )
            if args.mode == "space":
                from repro.hardware.search_space import DatapathSearchSpace
                from repro.runtime.sharding import shard_space

                space = DatapathSearchSpace()
                if args.partition_axis not in space.parameter_names:
                    known = ", ".join(space.parameter_names)
                    raise ValueError(
                        f"unknown partition axis {args.partition_axis!r}; "
                        f"available: {known}"
                    )
                for spec in specs:
                    shard_space(space, spec)  # validates the shard count fits
        except (KeyError, ValueError) as error:
            print(f"error: {error}")
            return 1
        try:
            engine = EngineSpec.parse(args.engine)
        except ValueError as error:
            print(f"error: {error}")
            return 1
        tracing = _configure_trace(args.trace, args.trace_sample, args.seed)
        if _configure_faults(args.inject_faults, args.fault_seed):
            return 1
        with make_executor(args.workers) as executor:
            if args.shard_index is not None:
                if not 0 <= args.shard_index < args.shards:
                    print(f"error: --shard-index must be in [0, {args.shards})")
                    return 1
                spec = specs[args.shard_index]
                result = run_shard(
                    problem, spec, optimizer=args.optimizer, batch_size=args.batch_size,
                    executor=executor, cache_path=args.cache, exchange=args.exchange,
                    op_cache_path=args.op_cache,
                    engine=engine,
                )
                out = args.output or f"shard-{spec.shard_id}.json"
                save_shard_result(result, out)
                print(format_kv(
                    {
                        "shard": f"{spec.shard_id} of {spec.num_shards}",
                        "seed": spec.seed,
                        "trials": result.num_trials,
                        "written to": out,
                    },
                    title="Shard complete (merge with `repro sweep --merge`)",
                ))
                if tracing:
                    _write_trace(args.trace)
                return 0
            shard_results = [
                run_shard(
                    problem, spec, optimizer=args.optimizer, batch_size=args.batch_size,
                    executor=executor, cache_path=args.cache, exchange=args.exchange,
                    op_cache_path=args.op_cache,
                    engine=engine,
                )
                for spec in specs
            ]
        if tracing:
            _write_trace(args.trace)
        if args.shard_dir:
            for shard in shard_results:
                save_shard_result(
                    shard, f"{args.shard_dir}/shard-{shard.spec.shard_id}.json"
                )

    sweep = merge_shard_results(shard_results)
    rows = []
    for spec in sweep.shards:
        best = sweep.shard_best_scores.get(spec.shard_id, float("nan"))
        rows.append([
            spec.shard_id,
            spec.seed,
            spec.num_trials,
            "-" if best != best else f"{best:.3f}",
        ])
    print(format_table(["Shard", "Seed", "Trials", "Best score"], rows))
    print()
    summary = {
        "shards": len(sweep.shards),
        "unique trials": sweep.num_trials,
        "duplicates removed": sweep.duplicates_removed,
        "Pareto-front size": len(sweep.pareto_front),
        "best score": sweep.best_score,
    }
    if sweep.best_trial is not None:
        summary["best shard"] = sweep.best_trial.shard_id
    if sweep.runtime is not None and sweep.runtime.cache_hits:
        summary["cache hits"] = sweep.runtime.cache_hits
    if sweep.runtime is not None and sweep.runtime.op_cache_hits:
        summary["op-cache hits"] = sweep.runtime.op_cache_hits
    if sweep.runtime is not None and sweep.runtime.region_cache_hits:
        summary["region-cache hits"] = sweep.runtime.region_cache_hits
    if sweep.runtime is not None and sweep.runtime.exchange_published:
        summary["exchange publishes"] = sweep.runtime.exchange_published
        summary["exchange adoptions"] = sweep.runtime.exchange_adopted
    print(format_kv(summary, title="Merged sweep"))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(sweep_result_to_dict(sweep), handle, indent=2)
        print(f"\nmerged sweep written to {args.output}")
    if sweep.best_trial is None:
        print("sweep found no feasible design within the trial budget")
        return 1
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.runtime.profiling import PROFILE_MODES, ProfileMode, profile_search

    modes = PROFILE_MODES
    if args.engine:
        # Profile just the requested engine against the scalar reference.
        try:
            spec = EngineSpec.parse(args.engine)
        except ValueError as error:
            print(f"error: {error}")
            return 1
        modes = (PROFILE_MODES[0],)
        if spec != PROFILE_MODES[0].engine:
            modes = modes + (ProfileMode(str(spec), spec),)

    report = profile_search(
        list(args.workload),
        trials=args.trials,
        optimizer=args.optimizer,
        seed=args.seed,
        batch_size=args.batch_size,
        objective=ObjectiveKind(args.objective),
        modes=modes,
        warm_op_cache=args.warm_op_cache,
    )
    rows = []
    for record in report.records:
        stages = record.stage_seconds
        disk_hits = record.op_cache_disk_hits + record.region_cache_disk_hits
        rows.append([
            record.mode,
            f"{record.trials_per_second:.1f}",
            f"{report.speedup(record.mode):.2f}x",
            f"{stages.get('mapper', 0.0) * 1e3:.0f}",
            f"{stages.get('vector', 0.0) * 1e3:.0f}",
            f"{stages.get('fusion', 0.0) * 1e3:.0f}",
            f"{stages.get('other', 0.0) * 1e3:.0f}",
            f"{record.op_cache_hit_rate:.2f}" if record.op_cache_hits else "-",
            f"{record.region_cache_hit_rate:.2f}" if record.region_cache_hits else "-",
            str(disk_hits) if disk_hits else "-",
        ])
    print(format_table(
        ["Mode", "Trials/s", "vs scalar", "Mapper ms", "Vector ms",
         "Fusion ms", "Other ms", "Op-cache hit rate", "Region-cache hit rate",
         "Disk hits"],
        rows,
    ))
    print(
        f"\n{report.trials} trials, batch={report.batch_size}, "
        f"optimizer={report.optimizer}, seed={report.seed}, "
        f"workloads={','.join(report.workloads)}"
    )
    if report.histories_match:
        print("equivalence: all modes reproduced the reference trial "
              "history bit-for-bit")
    else:
        print("equivalence FAILED: some mode diverged from the reference trial history")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"profile written to {args.output}")
    return 0 if report.histories_match else 1


def _cmd_serve(args) -> int:
    from repro.runtime.service import serve

    if args.verbose:
        import logging

        logging.basicConfig(
            level=logging.DEBUG,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
    try:
        engine = EngineSpec.parse(args.engine) if args.engine else None
        service = serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            op_cache_path=args.op_cache,
            fault_spec=args.inject_faults,
            fault_seed=args.fault_seed,
            engine=engine,
        )
    except ValueError as error:  # e.g. a typo'd spec (--engine/--inject-faults)
        print(f"error: {error}")
        return 1
    host, port = service.address
    print(
        f"serving trial evaluation on http://{host}:{port} "
        f"(workers={args.workers}) — Ctrl-C to stop",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.close()
    return 0


def _cmd_trace(args) -> int:
    from repro.runtime.profiling import summarize_trace
    from repro.runtime.telemetry import load_trace

    try:
        records = load_trace(args.path)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot load trace {args.path!r}: {error}")
        return 1
    if not records:
        print(f"error: no spans in {args.path}")
        return 1
    summary = summarize_trace(records, top_k=args.top)
    rows = [
        [
            stage.name,
            stage.category,
            stage.count,
            f"{stage.total_seconds * 1e3:.1f}",
            f"{stage.mean_seconds * 1e3:.2f}",
        ]
        for stage in summary.stages
    ]
    print(format_table(["Stage", "Category", "Spans", "Total ms", "Mean ms"], rows))
    print()
    overview = {
        "spans": summary.num_spans,
        "trials": summary.num_trials,
        "trial wall time (s)": f"{summary.trial_seconds:.3f}",
    }
    if summary.num_trials:
        overview["trial time covered by stage spans"] = f"{100 * summary.coverage:.1f}%"
    print(format_kv(overview, title=f"Trace {args.path}"))
    if summary.slowest:
        print()
        rows = [
            [
                span.name,
                f"{span.duration * 1e3:.2f}",
                span.pid,
                ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items())) or "-",
            ]
            for span in summary.slowest
        ]
        print(format_table(["Slowest spans", "ms", "PID", "Attributes"], rows))
    return 0


def _cmd_cache_compact(args) -> int:
    from pathlib import Path

    from repro.runtime import TrialCache

    cache = TrialCache(args.cache)
    if not cache.disk_files():
        print(f"error: no cache store at {args.cache}")
        return 1
    try:
        stats = cache.compact(args.max_entries)
    except ValueError as error:
        print(f"error: {error}")
        return 1
    summary = {
        "files merged": stats.files_merged,
        "entries kept": stats.kept,
        "duplicates dropped": stats.duplicates_dropped,
        "entries evicted": stats.evicted,
        "store": str(Path(args.cache)),
    }
    if stats.live_writers_skipped:
        summary["live writers skipped"] = stats.live_writers_skipped
    print(format_kv(summary, title="Cache compaction"))
    return 0


def _cmd_roi(args) -> int:
    model = RoiModel()
    value = model.roi(args.volume, args.speedup)
    print(format_kv(
        {
            "Perf/TCO speedup": f"{args.speedup}x",
            "deployment volume": args.volume,
            "ROI": value,
            "break-even volume": model.breakeven_volume(args.speedup),
            "volume for 2x ROI": model.deployment_volume_for_roi(2.0, args.speedup),
            "volume for 4x ROI": model.deployment_volume_for_roi(4.0, args.speedup),
        },
        title="Return-on-investment estimate",
    ))
    return 0


def _cmd_reproduce(args) -> int:
    if args.list or not args.experiment:
        rows = [
            [spec.name, "yes" if spec.expensive else "no", spec.title]
            for spec in list_experiments()
        ]
        print(format_table(["Experiment", "Slow", "Title"], rows))
        return 0
    options = _parse_options(args.option or [])
    report = run_experiment(args.experiment, **options)
    print(report)
    return 0


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _resolve_design(name: str):
    key = name.lower()
    if key not in NAMED_DESIGNS:
        known = ", ".join(sorted(NAMED_DESIGNS))
        print(f"unknown design {name!r}; available: {known}")
        return None
    return NAMED_DESIGNS[key]


def _parse_options(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse ``key=value`` experiment options, casting numerics."""
    options: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"invalid --option {pair!r}; expected key=value")
        key, value = pair.split("=", 1)
        try:
            options[key] = int(value)
        except ValueError:
            try:
                options[key] = float(value)
            except ValueError:
                options[key] = value
    return options


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FAST (ASPLOS 2022) reproduction: full-stack accelerator search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="List registered workloads").set_defaults(
        func=_cmd_list_workloads
    )
    sub.add_parser("list-designs", help="List named accelerator designs").set_defaults(
        func=_cmd_list_designs
    )

    simulate = sub.add_parser("simulate", help="Simulate a workload on a named design")
    simulate.add_argument("--design", default="tpu-v3", help="tpu-v3 / fast-large / fast-small")
    simulate.add_argument("--workload", required=True)
    simulate.add_argument("--batch-size", type=int, default=None)
    simulate.set_defaults(func=_cmd_simulate)

    characterize = sub.add_parser(
        "characterize", help="Footprint and operational-intensity analysis of a workload"
    )
    characterize.add_argument("--workload", required=True)
    characterize.add_argument("--batch-size", type=int, default=1)
    characterize.set_defaults(func=_cmd_characterize)

    search = sub.add_parser("search", help="Run a (small) FAST search")
    search.add_argument("--workload", action="append", required=True,
                        help="Repeat for multi-workload search")
    search.add_argument("--trials", type=int, default=50)
    search.add_argument("--optimizer", default="lcs",
                        help="random / bayesian / lcs / annealing / coordinate / safe:<name>")
    search.add_argument("--objective", default="perf_per_tdp",
                        choices=[kind.value for kind in ObjectiveKind])
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--workers", type=int, default=1,
                        help="Worker processes for trial evaluation (1 = serial)")
    search.add_argument("--executor", default=None,
                        choices=["serial", "process", "remote"],
                        help="Trial executor kind (default: serial, or process "
                             "when --workers > 1)")
    search.add_argument("--endpoints", action="append", default=None, metavar="URL",
                        help="Evaluation-service URL for --executor remote "
                             "(repeat for a fleet)")
    search.add_argument("--remote-timeout", type=float, default=60.0,
                        help="Per-request timeout (seconds) of the remote executor")
    search.add_argument("--hedge-after", type=float, default=10.0,
                        help="Seconds without progress before straggling remote "
                             "chunks are hedged onto other endpoints")
    search.add_argument("--batch-size", type=int, default=8,
                        help="Proposals per ask/tell batch; fixes the search "
                             "trajectory independently of --workers")
    search.add_argument("--cache", default=None, metavar="PATH",
                        help="Persistent trial cache (JSON-lines file)")
    search.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="Write periodic checkpoints to this file")
    search.add_argument("--checkpoint-every", type=int, default=25,
                        help="Trials between checkpoint saves")
    search.add_argument("--resume", default=None, metavar="PATH",
                        help="Resume from this checkpoint file (implies --checkpoint PATH)")
    search.add_argument("--progress", action="store_true",
                        help="Stream live per-trial progress lines")
    search.add_argument("--op-cache", default=None, metavar="PATH",
                        help="Persist the cross-trial per-op cost cache to this "
                             "JSON-lines file (shared across processes and restarts)")
    search.add_argument("--engine", default=None, metavar="SPEC",
                        help="Evaluation engine spec: "
                             "MAPPER[:key=value,...] with MAPPER scalar "
                             "(reference loop) or graph-batched (one NumPy "
                             "pass per trial) and keys "
                             "op_cache=on|off, region_cache=on|off, "
                             "region_store=PATH (persistent JSONL region "
                             "store) "
                             "(default: graph-batched with both caches on; "
                             "both engines give identical results)")
    search.add_argument("--inject-faults", default=None, metavar="SPEC",
        help="Deterministic chaos testing: comma-separated fault points with "
             "colon-separated params, e.g. 'worker-crash:n=1,remote-drop:p=0.25:n=4' "
             "(see the Fault tolerance section of `python -m repro --help`'s module docs)")
    search.add_argument("--fault-seed", type=int, default=0, metavar="N",
        help="Seed of the fault plan's random streams (default 0); same spec + "
             "seed fires the same faults")
    search.add_argument("--trace", default=None, metavar="PATH",
                        help="Record spans across search/executor/workers/remote "
                             "and write a Chrome trace (.json; chrome://tracing "
                             "or Perfetto) or JSONL (.jsonl) file here")
    search.add_argument("--trace-sample", type=float, default=1.0, metavar="RATE",
                        help="Fraction of trial span trees to record (default "
                             "1.0; sampling never changes search results)")
    search.add_argument("--output", default=None, help="Write the search result JSON here")
    search.add_argument("--history", action="store_true",
                        help="Include the full trial history and proposals in --output "
                             "(used by the CI equivalence check)")
    search.add_argument("--save-config", default=None, help="Write the best design JSON here")
    search.set_defaults(func=_cmd_search)

    serve = sub.add_parser(
        "serve",
        help="Run a trial-evaluation service other hosts can target with "
             "`repro search --executor remote --endpoints`",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="Bind address (use 0.0.0.0 to accept remote searches)")
    serve.add_argument("--port", type=int, default=8642, help="TCP port (0 = pick free)")
    serve.add_argument("--workers", type=int, default=1,
                       help="Worker processes evaluating each request batch")
    serve.add_argument("--op-cache", default=None, metavar="PATH",
                       help="Persist the service's cross-trial op-cost cache here "
                            "(warm across requests and clients)")
    serve.add_argument("--engine", default=None, metavar="SPEC",
                       help="The service's evaluation engine (same grammar "
                            "as `repro search --engine`); requests cannot "
                            "choose engine, caches or store paths")
    serve.add_argument("--inject-faults", default=None, metavar="SPEC",
        help="Serve as a deliberately flaky endpoint: seeded service-side "
             "faults, e.g. 'service-error:p=0.2,service-drop:n=3'")
    serve.add_argument("--fault-seed", type=int, default=0, metavar="N",
        help="Seed of the service fault plan (default 0)")
    serve.add_argument("--verbose", action="store_true",
                       help="Log per-request access lines (DEBUG) to stderr")
    serve.set_defaults(func=_cmd_serve)

    profile = sub.add_parser(
        "profile",
        help="Profile trial evaluation: per-stage times and trials/sec for the "
             "scalar and graph-batched engines, each cache, and warm worker "
             "pools (verifies equivalence)",
    )
    profile.add_argument("--workload", action="append", required=True,
                         help="Repeat for multi-workload profiles")
    profile.add_argument("--trials", type=int, default=48)
    profile.add_argument("--optimizer", default="lcs",
                         help="random / bayesian / lcs / annealing / coordinate / safe:<name>")
    profile.add_argument("--objective", default="perf_per_tdp",
                         choices=[kind.value for kind in ObjectiveKind])
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--batch-size", type=int, default=8)
    profile.add_argument("--warm-op-cache", action="store_true",
                         help="Also warm the op cache and time its steady state "
                              "(the sweep / repeated-search regime)")
    profile.add_argument("--engine", default=None, metavar="SPEC",
                         help="Profile just this engine spec against the scalar "
                              "reference instead of the whole mode ladder "
                              "(same grammar as `repro search --engine`)")
    profile.add_argument("--output", default=None, metavar="PATH",
                         help="Write the profile report JSON here")
    profile.set_defaults(func=_cmd_profile)

    sweep = sub.add_parser(
        "sweep", help="Sharded sweep: run N independent search shards and merge them"
    )
    sweep.add_argument("--workload", action="append",
                       help="Repeat for multi-workload sweeps (required unless --merge)")
    sweep.add_argument("--trials", type=int, default=48,
                       help="Total trial budget split across all shards")
    sweep.add_argument("--shards", type=int, default=4, help="Number of shards")
    sweep.add_argument("--shard-index", type=int, default=None, metavar="K",
                       help="Run only shard K and write its JSON (multi-host workflow)")
    sweep.add_argument("--merge", nargs="+", default=None, metavar="SHARD_JSON",
                       help="Merge previously written shard files instead of searching")
    sweep.add_argument("--mode", choices=["seed", "space"], default="seed",
                       help="Shard by decorrelated seed streams or by a space partition")
    sweep.add_argument("--partition-axis", default=None, metavar="PARAM",
                       help="Search-space axis split across shards (mode=space)")
    sweep.add_argument("--optimizer", default="lcs",
                       help="random / bayesian / lcs / annealing / coordinate / safe:<name>")
    sweep.add_argument("--objective", default="perf_per_tdp",
                       choices=[kind.value for kind in ObjectiveKind])
    sweep.add_argument("--seed", type=int, default=0, help="Base seed of the sweep")
    sweep.add_argument("--workers", type=int, default=1,
                       help="Worker processes for trial evaluation within each shard")
    sweep.add_argument("--batch-size", type=int, default=8,
                       help="Proposals per ask/tell batch within each shard")
    sweep.add_argument("--cache", default=None, metavar="PATH",
                       help="Shared trial cache; shards append to per-shard sidecars")
    sweep.add_argument("--op-cache", default=None, metavar="PATH",
                       help="Persistent per-op cost store shared by every shard "
                            "(and their pool workers); later shards reuse op "
                            "costs earlier shards mapped")
    sweep.add_argument("--engine", default=None, metavar="SPEC",
                       help="Evaluation engine spec for every shard (same "
                            "grammar as `repro search --engine`)")
    sweep.add_argument("--exchange", default=None, metavar="PATH_OR_URL",
                       help="Live cross-shard best-score exchange: scoreboard file "
                            "prefix or evaluation-service URL (off by default; "
                            "guided optimizers fold in other shards' bests)")
    sweep.add_argument("--shard-dir", default=None, metavar="DIR",
                       help="Also write each shard's JSON into this directory")
    sweep.add_argument("--inject-faults", default=None, metavar="SPEC",
        help="Deterministic chaos testing, as in `repro search --inject-faults`")
    sweep.add_argument("--fault-seed", type=int, default=0, metavar="N",
        help="Seed of the fault plan's random streams (default 0)")
    sweep.add_argument("--trace", default=None, metavar="PATH",
                       help="Record spans across all shards run in this process "
                            "and write a Chrome trace (.json) or JSONL (.jsonl) "
                            "file here")
    sweep.add_argument("--trace-sample", type=float, default=1.0, metavar="RATE",
                       help="Fraction of trial span trees to record (default 1.0)")
    sweep.add_argument("--output", default=None, metavar="PATH",
                       help="Write the merged sweep JSON (or the shard JSON with "
                            "--shard-index) here")
    sweep.set_defaults(func=_cmd_sweep)

    cache = sub.add_parser("cache", help="Trial-cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    compact = cache_sub.add_parser(
        "compact",
        help="Merge shard sidecars (skipping those a live writer owns), keep one "
             "record per key, cap the store size; refuses an op or region store",
    )
    compact.add_argument("--cache", required=True, metavar="PATH",
                         help="Trial-cache store to compact")
    compact.add_argument("--max-entries", type=int, default=None,
                         help="Evict the earliest-written entries (base file first, "
                              "then sidecars in name order) beyond this count")
    compact.set_defaults(func=_cmd_cache_compact)

    trace = sub.add_parser(
        "trace",
        help="Summarize a trace recorded with `repro search --trace`: per-stage "
             "timeline, trial coverage, and the slowest spans",
    )
    trace.add_argument("path", help="Chrome-trace .json or .jsonl span file")
    trace.add_argument("--top", type=int, default=10,
                       help="Number of slowest spans to list")
    trace.set_defaults(func=_cmd_trace)

    roi = sub.add_parser("roi", help="Return-on-investment estimate (Eq. 1-2)")
    roi.add_argument("--speedup", type=float, required=True, help="Perf/TCO speedup vs baseline")
    roi.add_argument("--volume", type=int, default=4000, help="Deployed accelerator count")
    roi.set_defaults(func=_cmd_roi)

    reproduce = sub.add_parser("reproduce", help="Regenerate a paper table/figure by name")
    reproduce.add_argument("experiment", nargs="?", default=None, help="e.g. table1, fig13")
    reproduce.add_argument("--list", action="store_true", help="List available experiments")
    reproduce.add_argument("--option", action="append", metavar="KEY=VALUE",
                           help="Experiment option, e.g. workload=resnet50 or trials=100")
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream closed early (e.g. `repro trace ... | head`): not an
        # error worth a traceback.  Detach stdout so interpreter shutdown
        # does not retry the flush and print to stderr.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
