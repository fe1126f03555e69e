"""FAST: the full-stack accelerator search driver.

:class:`FASTSearch` ties together the datapath search space, a black-box
optimizer (random / Bayesian / LCS), and the trial evaluator.  Each trial
proposes a datapath, the simulator schedules the target workloads onto it
(tensor padding + Timeloop-style mapping), the FAST fusion ILP assigns
tensors to the Global Memory, and the resulting performance/TDP feeds back
into the optimizer — the loop of Figure 1.

The search runs on top of the :mod:`repro.runtime` subsystem: proposals are
asked in batches, evaluated through a pluggable :class:`TrialExecutor`
(serial or process-pool parallel), memoized in an optional persistent
:class:`TrialCache`, and periodically checkpointed for ``--resume``.  Results
are told back to the optimizer in proposal order, so for a fixed seed and
batch size the history is identical no matter how many workers evaluate it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.core.problem import SearchProblem
from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.datapath import DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.search import Optimizer, make_optimizer
from repro.search.pareto import ParetoFront

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.runtime.cache import TrialCache
    from repro.runtime.checkpoint import SearchCheckpoint
    from repro.runtime.exchange import ExchangeClient
    from repro.runtime.executor import TrialExecutor
    from repro.runtime.progress import ProgressBus

__all__ = ["RuntimeStats", "FASTSearchResult", "FASTSearch"]


@dataclass
class RuntimeStats:
    """Execution statistics of one search run.

    ``op_cache_hits``/``op_cache_misses`` count per-op cost lookups served by
    the cross-trial :mod:`repro.runtime.opcache`, and
    ``region_cache_hits``/``region_cache_misses`` count whole fusion-region
    evaluations served by the region-level result cache layered above it.
    ``*_disk_hits`` are the subset of hits served from a persistent store's
    index (``--op-cache`` / ``--engine region_store=``).
    Under a serial executor these counters come from this process's caches;
    a :class:`~repro.runtime.executor.ParallelExecutor` aggregates the same
    counters inside its workers and reports them through
    ``runtime_counters()``, so parallel runs no longer show zeros here.
    Per-stage times are not kept here: they are span totals of the tracer
    (``--trace``, ``repro trace``, ``repro profile``).

    The ``remote_*`` counters and per-endpoint ``endpoint_stats`` map are
    filled in when the run used an
    :class:`~repro.runtime.remote.AsyncRemoteExecutor` (requests dispatched,
    retries, hedged re-dispatches, failures, and per-endpoint latency sums);
    ``exchange_published``/``exchange_adopted`` count cross-shard scoreboard
    publications and adopted external bests when a sweep ran with
    ``--exchange``.  ``spans_recorded`` counts telemetry spans captured by
    the run (zero unless tracing was enabled, e.g. via ``--trace``); tracing
    is strictly observational, so histories are identical either way.

    The fault-survival counters report what the run lived through without
    its history changing: ``worker_restarts`` (process pools rebuilt after a
    worker died mid-batch), ``remote_fallbacks`` (batches a remote executor
    evaluated locally after the whole fleet failed), ``corrupt_records``
    (torn JSONL records quarantined while loading the attached trial, op
    and region stores), and ``faults_injected`` (faults fired by an
    ``--inject-faults`` plan during the run; zero in production runs).

    ``engine`` is a configuration echo, not a counter: the canonical
    :class:`~repro.simulator.enginespec.EngineSpec` string the evaluating
    process(es) actually resolved.  For parallel runs it is reported by the
    workers themselves, so a pool silently falling back to a different
    engine than the parent configured would be visible here.
    """

    trials_evaluated: int = 0
    cache_hits: int = 0
    batches: int = 0
    duplicates_avoided: int = 0
    resumed_trials: int = 0
    elapsed_seconds: float = 0.0
    op_cache_hits: int = 0
    op_cache_misses: int = 0
    op_cache_disk_hits: int = 0
    region_cache_hits: int = 0
    region_cache_misses: int = 0
    region_cache_disk_hits: int = 0
    remote_batches: int = 0
    remote_requests: int = 0
    remote_retries: int = 0
    remote_hedges: int = 0
    remote_failures: int = 0
    remote_blacklist_resets: int = 0
    remote_fallbacks: int = 0
    endpoint_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    exchange_published: int = 0
    exchange_adopted: int = 0
    spans_recorded: int = 0
    worker_restarts: int = 0
    corrupt_records: int = 0
    faults_injected: int = 0
    engine: str = ""

    @property
    def trials_per_second(self) -> float:
        """Completed trials (evaluated + cached) per wall-clock second."""
        total = self.trials_evaluated + self.cache_hits
        return total / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def op_cache_hit_rate(self) -> float:
        """Fraction of per-op cost lookups served by the op cache."""
        total = self.op_cache_hits + self.op_cache_misses
        return self.op_cache_hits / total if total else 0.0

    @property
    def region_cache_hit_rate(self) -> float:
        """Fraction of region evaluations served by the region cache."""
        total = self.region_cache_hits + self.region_cache_misses
        return self.region_cache_hits / total if total else 0.0


@dataclass
class FASTSearchResult:
    """Outcome of one FAST search run."""

    problem: SearchProblem
    best_params: Optional[ParameterValues]
    best_config: Optional[DatapathConfig]
    best_metrics: Optional[TrialMetrics]
    history: List[TrialMetrics] = field(default_factory=list)
    proposals: List[ParameterValues] = field(default_factory=list)
    best_score_curve: List[float] = field(default_factory=list)
    pareto_front: Optional[ParetoFront] = None
    runtime: Optional[RuntimeStats] = None

    @property
    def num_trials(self) -> int:
        """Number of evaluated trials."""
        return len(self.history)

    @property
    def num_feasible_trials(self) -> int:
        """Number of trials satisfying all constraints."""
        return sum(1 for m in self.history if m.feasible)

    @property
    def best_score(self) -> float:
        """Best aggregate objective score found (higher is better).

        ``nan`` when no feasible trial exists — distinguishable from a true
        zero score; use :attr:`best_metrics` (``None``-safe) to branch.
        """
        if self.best_metrics is None:
            return float("nan")
        return self.best_metrics.aggregate_score


class FASTSearch:
    """Runs the FAST joint datapath / schedule / fusion search."""

    def __init__(
        self,
        problem: SearchProblem,
        optimizer: Union[str, Optimizer] = "lcs",
        space: Optional[DatapathSearchSpace] = None,
        evaluator: Optional[TrialEvaluator] = None,
        seed: int = 0,
        seed_configs: Optional[List[DatapathConfig]] = None,
        executor: Optional["TrialExecutor"] = None,
        cache: Optional["TrialCache"] = None,
        checkpoint: Optional["SearchCheckpoint"] = None,
        progress: Optional["ProgressBus"] = None,
        exchange: Optional["ExchangeClient"] = None,
    ) -> None:
        """Create a search instance.

        Args:
            problem: Workloads, objective, and constraints.
            optimizer: Optimizer name (``random``/``bayesian``/``lcs``) or instance.
            space: Datapath search space (defaults to the Table 3 space).
            evaluator: Trial evaluator (defaults to one built from ``problem``).
            seed: Random seed for the optimizer.
            seed_configs: Optional known designs (e.g. the baseline datapath)
                evaluated as the first trials to warm-start the optimizer.
                The paper runs 5000 Vizier trials per experiment; warm
                starting lets much smaller budgets reach representative
                designs.
            executor: Trial executor; defaults to in-process serial
                evaluation.  Pass a :class:`~repro.runtime.executor.ParallelExecutor`
                to fan batches out to worker processes.
            cache: Optional persistent trial cache; repeated configurations
                (within a run or across restarts) skip simulation entirely.
            checkpoint: Optional checkpoint manager; the run saves
                periodically and :meth:`run` can resume from the saved state.
            progress: Optional event bus receiving trial/cache/best events.
            exchange: Optional cross-shard exchange client
                (:class:`~repro.runtime.exchange.ExchangeClient`).  When
                set, the run publishes its best-so-far to the shared
                scoreboard after every batch and, before asking the next
                batch, feeds any better score published by *other* shards to
                the optimizer via
                :meth:`~repro.search.optimizer.Optimizer.observe_external_best`.
                A run that never receives an external best is bit-for-bit
                identical to one without an exchange.
        """
        self.problem = problem
        self.space = space or DatapathSearchSpace()
        self.evaluator = evaluator or TrialEvaluator(problem)
        self.seed_configs = list(seed_configs or [])
        self.executor = executor
        self.cache = cache
        self.checkpoint = checkpoint
        self.progress = progress
        self.exchange = exchange
        if isinstance(optimizer, str):
            self.optimizer = make_optimizer(optimizer, self.space, seed=seed)
        else:
            self.optimizer = optimizer

    # ------------------------------------------------------------------
    def run(
        self,
        num_trials: int,
        callback: Optional[Callable[[int, TrialMetrics], None]] = None,
        batch_size: int = 1,
        resume: bool = False,
    ) -> FASTSearchResult:
        """Run the search for a fixed trial budget.

        Args:
            num_trials: Total number of candidate designs to evaluate
                (including any trials restored by ``resume``).
            callback: Optional per-trial hook ``callback(trial_index, metrics)``.
            batch_size: Proposals asked (and evaluated) per inner-loop step.
                The optimizer trajectory depends on the batch size but *not*
                on the executor, so serial and parallel runs with the same
                batch size produce identical histories for a fixed seed.
            resume: Continue from the checkpoint file if one exists
                (requires a ``checkpoint=`` manager).  Resuming an
                interrupted run reproduces the uninterrupted trajectory
                bit-for-bit; extending a *completed* run whose budget was
                not a multiple of ``batch_size`` continues validly but may
                diverge from a single larger-budget run (see
                :mod:`repro.runtime.checkpoint`).

        Returns:
            The search result with the best design, full history, the
            best-so-far score curve, the (latency, TDP, area) Pareto
            frontier across all feasible trials, and runtime statistics.
        """
        from repro.runtime.batching import BatchedOptimizer
        from repro.runtime.cache import problem_fingerprint
        from repro.runtime.checkpoint import (
            CheckpointState,
            optimizer_state_to_dict,
            restore_optimizer,
        )
        from repro.runtime.executor import SerialExecutor
        from repro.runtime.progress import (
            BATCH_STARTED,
            BEST_IMPROVED,
            CACHE_HIT,
            CHECKPOINT_SAVED,
            EXTERNAL_BEST,
            SEARCH_FINISHED,
            SEARCH_RESUMED,
            SEARCH_STARTED,
            ProgressBus,
            TRIAL_FINISHED,
        )

        from repro.runtime.telemetry import get_tracer

        batch_size = max(1, int(batch_size))
        executor = self.executor or SerialExecutor()
        bus = self.progress or ProgressBus()
        tracer = get_tracer()
        spans_start = tracer.total_recorded
        started_unix = time.time()
        started_at = time.monotonic()
        stats = RuntimeStats()
        # Op-cache counters only move in this process, i.e. under a serial
        # executor; with a parallel executor the lookups happen in the
        # workers, which report them through ``runtime_counters()``.
        from repro.runtime.executor import cache_counter_snapshot
        from repro.runtime.opcache import caches_for

        op_cache, region_cache = caches_for(
            getattr(self.evaluator, "simulation_options", None)
            if isinstance(executor, SerialExecutor)
            else None
        )
        cache_start = cache_counter_snapshot(op_cache, region_cache)
        # Remote executors expose lifetime counters; snapshot them so a run
        # on a reused executor (e.g. across sweep shards) reports deltas.
        collect_remote = getattr(executor, "runtime_counters", None)
        remote_start = collect_remote() if callable(collect_remote) else None
        # Fault injection (chaos runs): snapshot the plan's fired total so
        # the stats report only faults injected during *this* run.
        from repro.runtime.faults import get_fault_plan

        fault_plan = get_fault_plan()
        faults_start = fault_plan.total_fired if fault_plan is not None else 0

        def _live_cache_rates() -> Dict[str, float]:
            """Cumulative op/region cache hit rates so far this run.

            Serial runs read the in-process caches; parallel/remote runs fall
            back to the executor's ``runtime_counters()`` worker totals.
            Keys are omitted while a cache has seen no lookups yet, so
            progress lines only show rates that mean something.
            """
            rates: Dict[str, float] = {}
            if op_cache is not None:
                hits, misses = op_cache.snapshot_counters()
                hits -= cache_start.get("op_cache_hits", 0)
                misses -= cache_start.get("op_cache_misses", 0)
                if hits + misses:
                    rates["op_cache_hit_rate"] = hits / (hits + misses)
            if region_cache is not None:
                hits, misses = region_cache.snapshot_counters()
                hits -= cache_start.get("region_cache_hits", 0)
                misses -= cache_start.get("region_cache_misses", 0)
                if hits + misses:
                    rates["region_cache_hit_rate"] = hits / (hits + misses)
            if not rates and remote_start is not None:
                now = collect_remote()
                for prefix in ("op_cache", "region_cache"):
                    hits = now.get(f"{prefix}_hits", 0) - remote_start.get(
                        f"{prefix}_hits", 0
                    )
                    misses = now.get(f"{prefix}_misses", 0) - remote_start.get(
                        f"{prefix}_misses", 0
                    )
                    if hits + misses:
                        rates[f"{prefix}_hit_rate"] = hits / (hits + misses)
            return rates

        history: List[TrialMetrics] = []
        proposals_log: List[ParameterValues] = []
        best_metrics: Optional[TrialMetrics] = None
        best_params: Optional[ParameterValues] = None
        best_curve: List[float] = []
        pareto = ParetoFront()

        batched = BatchedOptimizer(self.optimizer, self.space)
        fingerprint = problem_fingerprint(self.problem, self.evaluator, self.space)

        def _absorb(
            trial_index: int,
            params: ParameterValues,
            metrics: TrialMetrics,
            replay: bool = False,
        ) -> None:
            """Fold one completed trial into history/best/Pareto state."""
            nonlocal best_metrics, best_params
            history.append(metrics)
            proposals_log.append(dict(params))
            if metrics.feasible and math.isfinite(metrics.objective_value):
                if best_metrics is None or metrics.aggregate_score > best_metrics.aggregate_score:
                    best_metrics = metrics
                    best_params = dict(params)
                    if not replay:
                        bus.emit(BEST_IMPROVED, trial_index, score=metrics.aggregate_score)
                mean_latency = _mean(metrics.per_workload_latency_ms.values())
                pareto.add(
                    (mean_latency, metrics.tdp_w, metrics.area_mm2),
                    payload={"params": dict(params), "score": metrics.aggregate_score},
                )
            best_curve.append(best_metrics.aggregate_score if best_metrics else 0.0)

        # -------------------------------------------------- resume
        if resume:
            if self.checkpoint is None:
                raise ValueError("resume=True requires a checkpoint manager")
            if self.checkpoint.exists():
                state = self.checkpoint.load(self.space)
                if state.fingerprint != fingerprint:
                    raise ValueError(
                        "checkpoint was written for a different problem/space "
                        f"(fingerprint {state.fingerprint} != {fingerprint})"
                    )
                restore_optimizer(self.optimizer, self.space, state.optimizer_state)
                for trial_index, (params, metrics) in enumerate(
                    zip(state.proposals, state.history)
                ):
                    batched.note_proposed(params)
                    _absorb(trial_index, params, metrics, replay=True)
                stats.resumed_trials = len(state.history)
                bus.emit(SEARCH_RESUMED, num_completed=stats.resumed_trials)

        seed_params = [self.space.from_config(config) for config in self.seed_configs]
        bus.emit(
            SEARCH_STARTED,
            num_trials=num_trials,
            batch_size=batch_size,
            executor=executor.name,
        )

        # -------------------------------------------------- batched loop
        completed = len(history)
        while completed < num_trials:
            if self.exchange is not None:
                external = self.exchange.poll_external_best()
                if external is not None:
                    params = None
                    if external.params:
                        try:
                            from repro.reporting.serialization import params_from_jsonable

                            params = params_from_jsonable(external.params, self.space)
                        except (KeyError, TypeError, ValueError):
                            params = None  # foreign space: use the score alone
                    hook = getattr(self.optimizer, "observe_external_best", None)
                    if callable(hook):
                        hook(external.objective, params)
                    bus.emit(
                        EXTERNAL_BEST,
                        completed,
                        shard=external.shard_id,
                        score=external.score,
                    )
            want = min(batch_size, num_trials - completed)
            batch: List[ParameterValues] = []
            while len(batch) < want and completed + len(batch) < len(seed_params):
                seed = seed_params[completed + len(batch)]
                batched.note_proposed(seed)
                batch.append(seed)
            if len(batch) < want:
                with tracer.span("ask_batch", category="search", size=want - len(batch)):
                    batch.extend(batched.ask_batch(want - len(batch)))
            bus.emit(BATCH_STARTED, size=len(batch), completed=completed)

            results: List[Optional[TrialMetrics]] = [None] * len(batch)
            keys: List[Optional[str]] = [None] * len(batch)
            miss_indices: List[int] = []
            if self.cache is not None:
                for i, params in enumerate(batch):
                    keys[i] = self.cache.key_for(params, fingerprint)
                    cached = self.cache.get(keys[i])
                    if cached is not None:
                        results[i] = cached
                        stats.cache_hits += 1
                        bus.emit(CACHE_HIT, completed + i)
                    else:
                        miss_indices.append(i)
            else:
                miss_indices = list(range(len(batch)))

            if miss_indices:
                with tracer.span(
                    "evaluate_batch",
                    category="search",
                    size=len(miss_indices),
                    executor=executor.name,
                ):
                    evaluated = executor.evaluate_batch(
                        self.evaluator, self.space, [batch[i] for i in miss_indices]
                    )
                for i, metrics in zip(miss_indices, evaluated):
                    results[i] = metrics
                    if self.cache is not None:
                        self.cache.put(keys[i], metrics)
                stats.trials_evaluated += len(miss_indices)
            stats.batches += 1

            # Tell + bookkeeping strictly in proposal order.
            cache_rates = _live_cache_rates()
            for offset, (params, metrics) in enumerate(zip(batch, results)):
                trial_index = completed + offset
                self.optimizer.tell(
                    params,
                    metrics.objective_value,
                    feasible=metrics.feasible and math.isfinite(metrics.objective_value),
                )
                _absorb(trial_index, params, metrics)
                bus.emit(
                    TRIAL_FINISHED,
                    trial_index,
                    score=metrics.aggregate_score,
                    best_score=best_curve[-1],
                    feasible=metrics.feasible,
                    **cache_rates,
                )
                if callback is not None:
                    callback(trial_index, metrics)
            completed += len(batch)

            if self.exchange is not None and best_metrics is not None:
                from repro.reporting.serialization import params_to_jsonable

                self.exchange.publish_best(
                    objective=best_metrics.objective_value,
                    score=best_metrics.aggregate_score,
                    params_jsonable=(
                        params_to_jsonable(best_params) if best_params is not None else None
                    ),
                    trials=completed,
                )

            if self.checkpoint is not None:
                saved = self.checkpoint.maybe_save(
                    CheckpointState(
                        fingerprint=fingerprint,
                        proposals=proposals_log,
                        history=history,
                        optimizer_state=optimizer_state_to_dict(self.optimizer),
                    )
                )
                if saved is not None:
                    bus.emit(CHECKPOINT_SAVED, num_completed=completed, path=str(saved))

        if self.checkpoint is not None and completed:
            saved = self.checkpoint.save(
                CheckpointState(
                    fingerprint=fingerprint,
                    proposals=proposals_log,
                    history=history,
                    optimizer_state=optimizer_state_to_dict(self.optimizer),
                )
            )
            bus.emit(CHECKPOINT_SAVED, num_completed=completed, path=str(saved))

        stats.elapsed_seconds = time.monotonic() - started_at
        stats.duplicates_avoided = batched.num_duplicates_avoided
        # Engine echo: serial runs resolve it from this process's evaluator;
        # a parallel/remote executor's worker-reported echo overwrites it
        # below, so mismatched pools can't hide behind the parent's config.
        options = getattr(self.evaluator, "simulation_options", None)
        if options is not None:
            try:
                from repro.simulator.enginespec import EngineSpec

                stats.engine = str(EngineSpec.from_simulation_options(options))
            except Exception:
                pass  # informational only
        for key, value in cache_counter_snapshot(op_cache, region_cache).items():
            setattr(stats, key, value - cache_start.get(key, 0))
        if remote_start is not None:
            remote_now = collect_remote()
            for key, value in remote_now.items():
                if key == "endpoint_stats":
                    stats.endpoint_stats = _endpoint_stats_delta(
                        value, remote_start.get(key) or {}
                    )
                elif key == "engine":
                    stats.engine = value  # config echo from the workers
                elif hasattr(stats, key):
                    setattr(stats, key, value - remote_start.get(key, 0))
        if self.exchange is not None:
            stats.exchange_published = self.exchange.published
            stats.exchange_adopted = self.exchange.adopted
        if fault_plan is not None:
            stats.faults_injected = fault_plan.total_fired - faults_start
        # Torn records quarantined while the attached stores loaded — the
        # crash-survival receipt of a resume-after-kill run.
        if self.cache is not None:
            stats.corrupt_records += self.cache.stats.corrupt_records
        if op_cache is not None:
            stats.corrupt_records += op_cache.stats.corrupt_records
        if region_cache is not None:
            stats.corrupt_records += region_cache.stats.corrupt_records
        # Root span for the whole run, synthesized from the measured elapsed
        # time (no-op when tracing is off).  Recorded last so every child
        # span is already in the buffer when the trace file is written.
        tracer.record_span(
            "search",
            start_unix=started_unix,
            duration=stats.elapsed_seconds,
            category="search",
            num_trials=completed,
            batch_size=batch_size,
            executor=executor.name,
        )
        stats.spans_recorded = tracer.total_recorded - spans_start
        bus.emit(
            SEARCH_FINISHED,
            num_trials=completed,
            cache_hits=stats.cache_hits,
            op_cache_hits=stats.op_cache_hits,
            remote_retries=stats.remote_retries,
            remote_hedges=stats.remote_hedges,
            best_score=(
                best_metrics.aggregate_score if best_metrics is not None else float("nan")
            ),
        )

        return FASTSearchResult(
            problem=self.problem,
            best_params=best_params,
            best_config=best_metrics.config if best_metrics else None,
            best_metrics=best_metrics,
            history=history,
            proposals=proposals_log,
            best_score_curve=best_curve,
            pareto_front=pareto,
            runtime=stats,
        )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _endpoint_stats_delta(
    now: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Per-endpoint counter deltas (state flags keep their current value)."""
    delta: Dict[str, Dict[str, float]] = {}
    for url, counters in now.items():
        prior = before.get(url) or {}
        delta[url] = {
            key: value if key == "blacklisted" else value - prior.get(key, 0)
            for key, value in counters.items()
        }
    return delta
