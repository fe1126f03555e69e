"""Parallel search runtime: batched execution, trial caching, checkpointing.

This package turns the serial FAST search loop into a scalable execution
engine, layered as:

* :mod:`repro.runtime.executor` — serial / process-pool batch evaluation
  (pool workers fork from a warm parent and inherit its caches), and
  ``make_executor``, which builds the ``serial``, ``process`` or
  ``remote`` executor by name,
* :mod:`repro.runtime.batching` — batched, de-duplicated asks over any optimizer,
* :mod:`repro.runtime.cache` — persistent memoization of trial metrics with
  shard-safe concurrent writers and size-capped compaction,
* :mod:`repro.runtime.opcache` — cross-trial memoization of per-op mapping
  costs plus whole evaluated fusion regions, keyed by problem
  fingerprint + mapping-relevant sub-config and optionally persisted as
  JSON lines (op store / region store); ``caches_for`` picks the caches
  an evaluator's simulation options name.  Its ``CostCacheBase`` is the
  one JSONL store implementation, behind the trial cache too,
* :mod:`repro.runtime.checkpoint` — periodic save + ``--resume`` support;
  a checkpoint holds each trial once, and resume replays its history,
* :mod:`repro.runtime.progress` — event bus for live progress reporting,
* :mod:`repro.runtime.service` — stdlib HTTP evaluation service
  (``repro serve``): accepts batches of trial params + a problem
  fingerprint and returns evaluated metrics,
* :mod:`repro.runtime.remote` — :class:`AsyncRemoteExecutor`: fans batches
  out to service endpoints with per-request timeouts, bounded retry with
  exponential backoff, hedged re-dispatch of stragglers, and graceful
  endpoint blacklisting, while preserving proposal order,
* :mod:`repro.runtime.exchange` — live cross-shard best-score exchange
  (file- or service-backed scoreboard) feeding guided optimizers,
* :mod:`repro.runtime.profiling` — per-stage timing harness comparing the
  scalar and graph-batched engines, each cache, and warm worker pools
  (``repro profile``), its stage times taken from span totals,
* :mod:`repro.runtime.sharding` — sharded sweep orchestration: split one
  search into N shards (seed stream or design-space partition) and merge
  their Pareto fronts, histories, and stats into one deduplicated result,
* :mod:`repro.runtime.telemetry` — dependency-free span tracer + metrics
  registry: end-to-end spans across search → executor → worker → remote
  service, per-span-name totals (``repro profile``), Chrome-trace / JSONL
  export (``repro search --trace``, ``repro trace``), and Prometheus text
  exposition (``GET /metrics``) — the one source of stage times,
* :mod:`repro.runtime.faults` — seeded deterministic fault injection
  (``repro search --inject-faults``): worker crashes, remote drops /
  timeouts / slowdowns, service errors, and torn writes, exercising the
  runtime's supervision, fallback, and quarantine paths reproducibly.

:class:`~repro.core.fast.FASTSearch` accepts instances of these pieces via
its ``executor=``, ``cache=``, ``checkpoint=``, and ``progress=`` arguments;
the ``repro search`` CLI exposes them as ``--workers``, ``--cache``,
``--checkpoint``/``--resume``, and ``--progress``.
"""

from repro.runtime.batching import BatchedOptimizer, proposal_key
from repro.runtime.cache import TrialCache, problem_fingerprint
from repro.runtime.checkpoint import CheckpointState, SearchCheckpoint
from repro.runtime.exchange import (
    ExchangeClient,
    FileScoreboard,
    Scoreboard,
    ScoreRecord,
    ServiceScoreboard,
    make_scoreboard,
)
from repro.runtime.executor import (
    ParallelExecutor,
    SerialExecutor,
    TrialExecutor,
    WorkerCrashError,
    make_executor,
)
from repro.runtime.faults import (
    KNOWN_FAULT_POINTS,
    FaultPlan,
    FaultPoint,
    clear_faults,
    configure_faults,
    get_fault_plan,
    parse_fault_spec,
    set_fault_plan,
)
from repro.runtime.remote import (
    AsyncRemoteExecutor,
    EndpointStats,
    RemoteExecutionError,
)
from repro.runtime.opcache import (
    CompactionStats,
    CostCacheStats,
    OpCostCache,
    RegionCostCache,
    caches_for,
    get_op_cache,
    get_region_cache,
    reset_op_caches,
    reset_region_caches,
)
from repro.runtime.profiling import (
    PROFILE_MODES,
    ProfileMode,
    ProfileRecord,
    ProfileReport,
    StageStat,
    TraceSummary,
    profile_search,
    summarize_trace,
)
from repro.runtime.progress import ProgressBus, ProgressPrinter, SearchEvent
from repro.runtime.service import EvaluationService, ServiceStats, serve
from repro.runtime.telemetry import (
    MetricsRegistry,
    SpanRecord,
    Tracer,
    apply_telemetry_config,
    chrome_trace_events,
    configure_tracer,
    get_tracer,
    load_trace,
    set_tracer,
    telemetry_config,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.runtime.sharding import (
    ShardResult,
    ShardSpec,
    SweepResult,
    SweepTrial,
    load_shard_result,
    merge_shard_results,
    plan_shards,
    run_shard,
    run_sharded_sweep,
    save_shard_result,
    sweep_result_to_dict,
)

__all__ = [
    "AsyncRemoteExecutor",
    "BatchedOptimizer",
    "CheckpointState",
    "CompactionStats",
    "CostCacheStats",
    "EndpointStats",
    "EvaluationService",
    "FaultPlan",
    "FaultPoint",
    "KNOWN_FAULT_POINTS",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "ExchangeClient",
    "FileScoreboard",
    "OpCostCache",
    "PROFILE_MODES",
    "ParallelExecutor",
    "ProfileMode",
    "ProfileRecord",
    "ProfileReport",
    "ProgressBus",
    "ProgressPrinter",
    "RegionCostCache",
    "RemoteExecutionError",
    "Scoreboard",
    "ScoreRecord",
    "SearchCheckpoint",
    "SearchEvent",
    "SerialExecutor",
    "ServiceScoreboard",
    "ServiceStats",
    "ShardResult",
    "ShardSpec",
    "StageStat",
    "SweepResult",
    "SweepTrial",
    "TraceSummary",
    "TrialCache",
    "TrialExecutor",
    "WorkerCrashError",
    "apply_telemetry_config",
    "caches_for",
    "chrome_trace_events",
    "clear_faults",
    "configure_faults",
    "configure_tracer",
    "get_fault_plan",
    "get_tracer",
    "load_trace",
    "get_op_cache",
    "get_region_cache",
    "load_shard_result",
    "make_executor",
    "make_scoreboard",
    "merge_shard_results",
    "parse_fault_spec",
    "plan_shards",
    "problem_fingerprint",
    "profile_search",
    "proposal_key",
    "reset_op_caches",
    "reset_region_caches",
    "run_shard",
    "run_sharded_sweep",
    "save_shard_result",
    "serve",
    "set_fault_plan",
    "set_tracer",
    "summarize_trace",
    "sweep_result_to_dict",
    "telemetry_config",
    "write_chrome_trace",
    "write_jsonl_trace",
]
