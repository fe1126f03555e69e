"""Profiling harness for the trial-evaluation pipeline.

``repro profile`` runs the same fixed-seed search under several evaluator
configurations — the scalar reference mapping engine, the graph-batched
engine with each cross-trial cache (region results, op costs) off and on,
and a warm process-pool executor — and reports trials/sec plus a per-stage
wall-clock breakdown (mapper / fusion / other) and cache hit counters.  Each
mode runs under its own enabled tracer, and its stage times are that
tracer's span totals — mapper is ``batch_map`` plus ``map_op``, fusion
``fusion`` and evaluate ``trial``, the names ``repro trace`` prints.
Because every mode is bit-for-bit equivalent by design, the harness also
verifies that every mode reproduces the reference trial history and flags
any divergence: it doubles as an end-to-end equivalence check in CI.  The
``parallel`` rows exist so a process-pool regression can never hide: their
throughput, worker-side cache counters and worker spans land in the same
report as every serial mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.fast import FASTSearch, RuntimeStats
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.reporting.serialization import trial_metrics_to_dict
from repro.runtime.opcache import reset_op_caches
from repro.runtime.telemetry import SpanRecord, Tracer, get_tracer, set_tracer
from repro.simulator.enginespec import EngineSpec

__all__ = [
    "ProfileMode",
    "ProfileRecord",
    "ProfileReport",
    "PROFILE_MODES",
    "StageStat",
    "TraceSummary",
    "profile_search",
    "summarize_trace",
]


@dataclass(frozen=True)
class ProfileMode:
    """One evaluator configuration to profile: an engine plus an executor."""

    name: str
    engine: EngineSpec
    workers: int = 1


#: The standard comparison ladder, slowest first; the first mode is the
#: reference whose history every other mode must reproduce bit-for-bit.
#: ``graph-batched+caches`` is the default engine, run serially.
#: ``parallel-2`` runs it on a 2-worker warm process pool — the row that
#: keeps executor regressions visible.
PROFILE_MODES = (
    ProfileMode("scalar", EngineSpec("scalar", op_cache=False, region_cache=False)),
    ProfileMode("graph-batched", EngineSpec(op_cache=False, region_cache=False)),
    ProfileMode("graph-batched+region-cache", EngineSpec(op_cache=False)),
    ProfileMode("graph-batched+op-cache", EngineSpec(region_cache=False)),
    ProfileMode("graph-batched+caches", EngineSpec()),
    ProfileMode("parallel-2", EngineSpec(), workers=2),
)


def _stage_seconds(totals: Dict[str, list]) -> Dict[str, float]:
    """Stage columns from a tracer's per-span-name ``[count, seconds]`` totals.

    ``map_ops_batch`` is not added to ``mapper``: it runs inside ``batch_map``.
    """
    def seconds(*names: str) -> float:
        return sum(totals[name][1] for name in names if name in totals)

    mapper = seconds("batch_map", "map_op")
    fusion, evaluate = seconds("fusion"), seconds("trial")
    return {
        "mapper": mapper,
        "fusion": fusion,
        "evaluate": evaluate,
        "other": max(0.0, evaluate - mapper - fusion),
    }


@dataclass
class ProfileRecord:
    """Measured outcome of one profiled mode."""

    mode: str
    trials: int
    elapsed_seconds: float
    trials_per_second: float
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    op_cache_hits: int = 0
    op_cache_misses: int = 0
    op_cache_hit_rate: float = 0.0
    op_cache_disk_hits: int = 0
    region_cache_hits: int = 0
    region_cache_misses: int = 0
    region_cache_hit_rate: float = 0.0
    region_cache_disk_hits: int = 0
    workers: int = 1
    engine: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form of this record."""
        return {
            "mode": self.mode,
            "trials": self.trials,
            "elapsed_seconds": self.elapsed_seconds,
            "trials_per_second": self.trials_per_second,
            "stage_seconds": dict(self.stage_seconds),
            "op_cache_hits": self.op_cache_hits,
            "op_cache_misses": self.op_cache_misses,
            "op_cache_hit_rate": self.op_cache_hit_rate,
            "op_cache_disk_hits": self.op_cache_disk_hits,
            "region_cache_hits": self.region_cache_hits,
            "region_cache_misses": self.region_cache_misses,
            "region_cache_hit_rate": self.region_cache_hit_rate,
            "region_cache_disk_hits": self.region_cache_disk_hits,
            "workers": self.workers,
            "engine": self.engine,
        }


@dataclass
class ProfileReport:
    """All profiled modes plus the cross-mode equivalence verdict."""

    workloads: List[str]
    trials: int
    batch_size: int
    optimizer: str
    seed: int
    records: List[ProfileRecord] = field(default_factory=list)
    histories_match: bool = True

    def record(self, mode: str) -> ProfileRecord:
        """Look up a mode's record by name."""
        for record in self.records:
            if record.mode == mode:
                return record
        raise KeyError(f"no profiled mode named {mode!r}")

    def speedup(self, mode: str, baseline: str = "scalar") -> float:
        """Throughput of ``mode`` relative to ``baseline``."""
        base = self.record(baseline).trials_per_second
        return self.record(mode).trials_per_second / base if base > 0 else float("inf")

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form of the whole report."""
        return {
            "workloads": list(self.workloads),
            "trials": self.trials,
            "batch_size": self.batch_size,
            "optimizer": self.optimizer,
            "seed": self.seed,
            "histories_match": self.histories_match,
            "records": [record.to_dict() for record in self.records],
            "speedups_vs_scalar": {
                record.mode: self.speedup(record.mode) for record in self.records
            },
        }


@dataclass
class StageStat:
    """Aggregated timing of one span name across a trace."""

    name: str
    category: str
    count: int
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "category": self.category,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "mean_seconds": self.mean_seconds,
        }


@dataclass
class TraceSummary:
    """Stage-timeline digest of a recorded trace (``repro trace``).

    ``coverage`` is the fraction of total trial wall time accounted for by
    the trial spans' direct children — the acceptance gauge that the spans
    actually explain where trial time goes instead of leaving dark matter.
    """

    num_spans: int
    num_trials: int
    trial_seconds: float
    coverage: float
    stages: List[StageStat] = field(default_factory=list)
    slowest: List[SpanRecord] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_spans": self.num_spans,
            "num_trials": self.num_trials,
            "trial_seconds": self.trial_seconds,
            "coverage": self.coverage,
            "stages": [stage.to_dict() for stage in self.stages],
            "slowest": [span.to_dict() for span in self.slowest],
        }


def summarize_trace(records: Sequence[SpanRecord], top_k: int = 10) -> TraceSummary:
    """Aggregate a span list into the per-stage timeline ``repro trace`` prints.

    Groups spans by name (count + total/mean seconds, sorted by total time
    descending), finds the ``trial`` spans, computes the direct-child
    coverage of trial wall time, and keeps the ``top_k`` slowest individual
    spans.  Works on the output of :func:`repro.runtime.telemetry.load_trace`
    for both Chrome-trace and JSONL files.
    """
    records = list(records)
    totals: Dict[str, StageStat] = {}
    for record in records:
        stat = totals.get(record.name)
        if stat is None:
            totals[record.name] = StageStat(
                name=record.name,
                category=record.category,
                count=1,
                total_seconds=record.duration,
            )
        else:
            stat.count += 1
            stat.total_seconds += record.duration

    trials = [r for r in records if r.name == "trial"]
    trial_ids = {r.span_id for r in trials}
    trial_seconds = sum(r.duration for r in trials)
    child_seconds = sum(
        r.duration for r in records if r.parent_id in trial_ids
    )
    coverage = child_seconds / trial_seconds if trial_seconds > 0 else 0.0

    stages = sorted(totals.values(), key=lambda s: (-s.total_seconds, s.name))
    slowest = sorted(records, key=lambda r: -r.duration)[: max(0, int(top_k))]
    return TraceSummary(
        num_spans=len(records),
        num_trials=len(trials),
        trial_seconds=trial_seconds,
        coverage=min(1.0, coverage),
        stages=stages,
        slowest=slowest,
    )


def profile_search(
    workloads: Sequence[str],
    trials: int = 48,
    optimizer: str = "lcs",
    seed: int = 0,
    batch_size: int = 8,
    objective: ObjectiveKind = ObjectiveKind.PERF_PER_TDP,
    modes: Sequence[ProfileMode] = PROFILE_MODES,
    warm_op_cache: bool = False,
) -> ProfileReport:
    """Run the same fixed-seed search under every mode and time each stage.

    A throwaway warm-up pass populates the process-level workload-graph and
    compiled-graph caches first, so no mode is charged for one-time graph
    building and ordering does not bias the comparison.  The op and region
    caches are reset before each mode (cold by default; ``warm_op_cache=True``
    measures the steady-state regime of sweeps and repeated searches by
    running each cache-enabled or parallel mode twice and timing the second
    run — a parallel mode keeps its pool between the two runs, so the timed
    run's workers hold the caches the first run filled).

    Each mode runs under a fresh enabled :class:`Tracer` (a process pool
    ships it to its workers), cleared before a timed second run; the
    caller's tracer is installed again on return.

    Every mode must reproduce the first mode's trial history bit-for-bit;
    ``histories_match`` records the verdict.
    """
    from repro.runtime.executor import ParallelExecutor

    modes = list(modes)
    if not modes:
        raise ValueError("at least one profile mode is required")
    report = ProfileReport(
        workloads=list(workloads),
        trials=int(trials),
        batch_size=int(batch_size),
        optimizer=optimizer,
        seed=int(seed),
    )

    from repro.hardware.search_space import DatapathSearchSpace

    def run_once(mode: ProfileMode, problem, evaluator, space, executor=None):
        # A fresh FASTSearch per run (fresh optimizer state, same seed) over
        # a shared evaluator/space/executor: reruns retrace the identical
        # trajectory, and a parallel executor keeps its warm worker pool
        # alive between the cold and the timed run.
        search = FASTSearch(
            problem, optimizer=optimizer, space=space, seed=seed,
            evaluator=evaluator, executor=executor,
        )
        return search.run(num_trials=trials, batch_size=batch_size)

    def mode_fixture(mode: ProfileMode):
        problem = SearchProblem(list(workloads), objective)
        evaluator = TrialEvaluator(
            problem,
            simulation_options=mode.engine.to_simulation_options(fusion_solver="greedy"),
        )
        return problem, evaluator, DatapathSearchSpace()

    # Warm-up: populate graph/compile caches shared by every mode.
    reset_op_caches()
    run_once(modes[0], *mode_fixture(modes[0]))

    reference_history = None
    caller_tracer = get_tracer()
    for mode in modes:
        reset_op_caches()
        fixture = mode_fixture(mode)
        executor = ParallelExecutor(num_workers=mode.workers) if mode.workers > 1 else None
        tracer = set_tracer(Tracer(enabled=True))
        try:
            result = run_once(mode, *fixture, executor=executor)
            warmable = (
                mode.engine.op_cache or mode.engine.region_cache or mode.workers > 1
            )
            if warmable and warm_op_cache:
                tracer.clear()
                result = run_once(mode, *fixture, executor=executor)  # steady state
        finally:
            if executor is not None:
                executor.close()
            set_tracer(caller_tracer)
        stats: RuntimeStats = result.runtime
        record = ProfileRecord(
            mode=mode.name,
            trials=result.num_trials,
            elapsed_seconds=stats.elapsed_seconds,
            trials_per_second=stats.trials_per_second,
            stage_seconds=_stage_seconds(tracer.totals),
            op_cache_hits=stats.op_cache_hits,
            op_cache_misses=stats.op_cache_misses,
            op_cache_hit_rate=stats.op_cache_hit_rate,
            op_cache_disk_hits=stats.op_cache_disk_hits,
            region_cache_hits=stats.region_cache_hits,
            region_cache_misses=stats.region_cache_misses,
            region_cache_hit_rate=stats.region_cache_hit_rate,
            region_cache_disk_hits=stats.region_cache_disk_hits,
            workers=mode.workers,
            engine=stats.engine or str(mode.engine),
        )
        report.records.append(record)
        history = [trial_metrics_to_dict(m) for m in result.history]
        if reference_history is None:
            reference_history = history
        elif history != reference_history:
            report.histories_match = False
    reset_op_caches()
    return report
