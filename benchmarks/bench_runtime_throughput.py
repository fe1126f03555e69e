"""Runtime throughput: trials/sec for the evaluation fast path and executors.

Measures the ``repro.runtime`` execution engine on a small EfficientNet-B0
search, always with the same fixed-seed trajectory:

* ``scalar`` — the reference evaluator (scalar mapping engine, no caches),
* ``serial`` — the default fast path (graph-batched mapper + region cache +
  cross-trial op cache), starting cold,
* ``serial-warm`` — the same fast path in its steady state (region/op caches
  populated by the previous run), i.e. the regime of sweeps, shards, and
  repeated searches,
* ``serial-traced`` — the warm fast path with span tracing enabled
  (``--trace``): the telemetry layer must stay within 5% of the untraced
  steady state,
* ``parallel-2`` / ``parallel-4`` — process pools whose workers start warm
  (fork-inherited caches or the warm-start initializer),
* ``parallel-4-warm`` — a 4-worker pool over a *cold* parent that warm-loads
  a persistent op store from disk in each worker (the sweep-shard /
  multi-host regime; this is the mode that used to regress to 0.71x of
  scalar when workers started cold),
* a persistent trial cache first cold then warm.

Results are reported as a table and as JSON
(``benchmarks/results/runtime_throughput.json``); the numbers are also
recorded in the repo-root ``BENCH_mapper.json`` so future PRs have a
performance trajectory for the mapping engine.

Speedup assertions never depend on multi-core hardware: warm workers win by
skipping work (cache hits), not by overlapping it, so even a single-core
runner must show ``parallel-4-warm`` beating the cold serial path.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import RESULTS_DIR, bench_trials, format_table, report, timing_asserts_enabled

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator, clear_graph_cache
from repro.runtime import ParallelExecutor, TrialCache, reset_op_caches
from repro.simulator.engine import SimulationOptions

_WORKLOAD = "efficientnet-b0"
_BATCH_SIZE = 8
_SEED = 0

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_mapper.json"


def record_bench(key: str, payload: dict) -> None:
    """Merge one benchmark's numbers into the repo-root BENCH_mapper.json."""
    data = {}
    if BENCH_FILE.exists():
        try:
            data = json.loads(BENCH_FILE.read_text())
        except json.JSONDecodeError:
            data = {}
    data[key] = payload
    BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")


def _evaluator(scalar: bool = False, op_cache_path=None):
    problem = SearchProblem([_WORKLOAD], ObjectiveKind.PERF_PER_TDP)
    options = SimulationOptions(
        fusion_solver="greedy",
        mapper_engine="scalar" if scalar else "graph-batched",
        region_cache_enabled=not scalar,
        op_cache_enabled=not scalar,
        op_cache_path=str(op_cache_path) if op_cache_path else None,
    )
    return problem, TrialEvaluator(problem, simulation_options=options)


def _run_search(
    trials: int, executor=None, cache=None, scalar: bool = False, op_cache_path=None,
    fixture=None,
) -> float:
    """Run one fixed-trajectory search; returns trials/sec.

    ``fixture`` optionally supplies a shared ``(problem, evaluator, space)``
    triple so consecutive runs reuse one executor pool (the pool is keyed by
    evaluator/space identity).
    """
    if fixture is None:
        problem, evaluator = _evaluator(scalar=scalar, op_cache_path=op_cache_path)
        space = None
    else:
        problem, evaluator, space = fixture
    search = FASTSearch(
        problem, optimizer="lcs", space=space, seed=_SEED, evaluator=evaluator,
        executor=executor, cache=cache,
    )
    started = time.monotonic()
    result = search.run(num_trials=trials, batch_size=_BATCH_SIZE)
    elapsed = time.monotonic() - started
    assert result.num_trials == trials
    return trials / elapsed if elapsed > 0 else float("inf")


def _measure(trials: int, cache_path, op_store_path) -> dict:
    rates = {}
    clear_graph_cache()
    reset_op_caches()
    # Warm-up pass: builds the workload graphs and compiled regions every
    # mode shares, so no timed mode is charged for one-time setup.
    _run_search(trials)

    reset_op_caches()
    rates["scalar"] = _run_search(trials, scalar=True)
    reset_op_caches()
    rates["serial"] = _run_search(trials)
    # Same fast path with the region/op caches left populated by the previous
    # run: the steady state of sweeps, shards, and repeated searches.
    rates["serial-warm"] = _run_search(trials)
    # Tracing on over the same warm caches, interleaved with untraced runs
    # and best-of-N on both sides, so scheduler noise on a loaded runner
    # cannot dominate the traced-vs-untraced comparison.  The end-to-end
    # rates feed the report; the <5% overhead assert uses the modeled
    # overhead below (spans/trial x cost/span), because differencing two
    # wall-clock rates cannot resolve a few-percent effect under shared-CPU
    # noise that routinely exceeds 10%.
    from repro.runtime.telemetry import Tracer, configure_tracer, get_tracer, set_tracer

    untraced = [rates["serial-warm"]]
    traced = []
    spans_per_trial = 0.0
    try:
        for _ in range(5):
            set_tracer(Tracer(enabled=False))
            untraced.append(_run_search(trials))
            configure_tracer(enabled=True, seed=_SEED)
            traced.append(_run_search(trials))
            spans_per_trial = get_tracer().total_recorded / trials
    finally:
        set_tracer(Tracer(enabled=False))
    rates["serial-warm"] = max(untraced)
    rates["serial-traced"] = max(traced)
    # Per-span cost: a tight in-process loop is CPU-bound and best-of-N
    # stable, unlike the end-to-end difference.
    bench_tracer = Tracer(enabled=True)
    span_cost = float("inf")
    for _ in range(3):
        reps = 20000
        started = time.perf_counter()
        for _ in range(reps):
            with bench_tracer.span("overhead-probe", category="bench"):
                pass
        span_cost = min(span_cost, (time.perf_counter() - started) / reps)
    extras = {
        "span_cost_us": span_cost * 1e6,
        "spans_per_trial": spans_per_trial,
        # Fraction of a warm trial spent on span bookkeeping: the modeled
        # tracing overhead the timing assert enforces (<5%).
        "tracing_overhead": spans_per_trial * span_cost * rates["serial-warm"],
    }
    # Parallel pools over the warm parent: fork-started workers inherit the
    # warm caches outright; spawn-started ones rebuild via the warm-start
    # initializer.
    for workers in (2, 4):
        with ParallelExecutor(num_workers=workers) as executor:
            rates[f"parallel-{workers}"] = _run_search(trials, executor=executor)
    # Populate a persistent op store (unmeasured, from cold caches — warm
    # region caches would satisfy trials before the mapper ever computes,
    # and puts, the op costs this store exists to hold)...
    reset_op_caches()
    _run_search(trials, op_cache_path=op_store_path)
    # ...then measure a 4-worker pool over a COLD parent: every worker
    # warm-loads the store from disk.  Two unmeasured passes pay the pool
    # start + store load and fill the per-worker region caches; the measured
    # pass is the steady state a sweep shard runs in.  This is the regime
    # that regressed to 0.71x of scalar when workers started cold with
    # nothing to load.
    reset_op_caches()
    from repro.hardware.search_space import DatapathSearchSpace

    problem, evaluator = _evaluator(op_cache_path=op_store_path)
    fixture = (problem, evaluator, DatapathSearchSpace())
    with ParallelExecutor(num_workers=4) as executor:
        _run_search(trials, executor=executor, fixture=fixture)
        _run_search(trials, executor=executor, fixture=fixture)
        rates["parallel-4-warm"] = _run_search(trials, executor=executor, fixture=fixture)
    # Cold cache: every trial simulated and appended to the store.
    reset_op_caches()
    rates["cache-cold"] = _run_search(trials, cache=TrialCache(cache_path))
    # Warm cache: a fresh process-equivalent cache over the same file; the
    # identical seed/batch trajectory means every trial is a disk hit.
    warm_cache = TrialCache(cache_path)
    rates["cache-warm"] = _run_search(trials, cache=warm_cache)
    assert warm_cache.stats.hits == trials, "warm re-run should be served entirely from cache"
    return rates, extras


def test_runtime_throughput(benchmark, tmp_path):
    trials = bench_trials(default=48)
    cache_path = tmp_path / "trials.jsonl"
    op_store_path = tmp_path / "op-store.jsonl"
    rates, extras = benchmark.pedantic(
        _measure, args=(trials, cache_path, op_store_path), rounds=1, iterations=1
    )

    scalar = rates["scalar"]
    rows = [
        [mode, f"{rate:.1f}", f"{rate / scalar:.2f}x"] for mode, rate in rates.items()
    ]
    report(
        "runtime_throughput",
        format_table(["Mode", "Trials/sec", "vs scalar"], rows)
        + f"\n({trials} trials, batch={_BATCH_SIZE}, {_WORKLOAD}, {os.cpu_count()} CPUs; "
        "identical search trajectory in every mode)\n"
        f"tracing: {extras['spans_per_trial']:.1f} spans/trial x "
        f"{extras['span_cost_us']:.2f} us/span = "
        f"{extras['tracing_overhead'] * 100:.2f}% of a warm trial",
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": _WORKLOAD,
        "trials": trials,
        "batch_size": _BATCH_SIZE,
        "cpus": os.cpu_count(),
        "trials_per_second": rates,
        "speedup_vs_scalar": {m: r / scalar for m, r in rates.items()},
        "tracing": extras,
    }
    (RESULTS_DIR / "runtime_throughput.json").write_text(json.dumps(payload, indent=2))
    record_bench("runtime_throughput", payload)

    if not timing_asserts_enabled():
        return
    # The evaluation fast path (serial, 1 worker): the steady-state caches
    # must deliver at least 3x the scalar reference's trials/sec, and even a
    # cold start must beat scalar outright.  Hardware-independent.
    assert rates["serial-warm"] >= 3.0 * scalar
    assert rates["serial"] >= 1.2 * scalar
    # Span tracing is observational: <5% overhead on the warm steady state.
    # The primary check is the modeled overhead (spans/trial x cost/span as
    # a fraction of a warm trial), which a shared-CPU runner measures
    # stably; the end-to-end ratio only guards against catastrophic
    # regressions (e.g. tracing accidentally defeating a cache), since
    # run-to-run noise on a loaded runner routinely exceeds 10%.
    assert extras["tracing_overhead"] < 0.05
    assert rates["serial-traced"] >= 0.75 * rates["serial-warm"]
    # A warm trial cache skips the evaluator entirely.
    assert rates["cache-warm"] >= 3.0 * rates["serial"]
    # Warm workers win by skipping work (cache hits), not by overlapping it,
    # so these hold on any core count.  parallel-4-warm warms through the
    # persistent op store plus the pool initializer, which works under any
    # start method; the plain parallel modes owe their warmth to
    # fork-inherited caches, so their asserts only apply where fork is the
    # start method (spawn-started workers begin cold).
    assert rates["parallel-4-warm"] >= 2.0 * scalar
    import multiprocessing

    if multiprocessing.get_start_method() == "fork":
        # parallel-4 must beat the cold serial path (it was 0.71x of scalar
        # before workers started warm), and no warm pool may regress below
        # the scalar reference.
        assert rates["parallel-4"] >= rates["serial"]
        assert rates["parallel-4"] >= 2.0 * scalar
        assert rates["parallel-2"] >= scalar
