"""Trial executors: evaluate batches of proposals serially or in parallel.

A :class:`TrialExecutor` turns a batch of search-space proposals into
:class:`~repro.core.trial.TrialMetrics`, decoupling *how* trials run from the
search loop that proposes them.  :class:`SerialExecutor` evaluates in-process;
:class:`ParallelExecutor` fans the batch out to a pool of worker processes
(the evaluator and space are shipped to each worker once, at pool start).

Both executors return results **in proposal order**, so a parallel run feeds
the optimizer the exact same tell sequence as a serial run and the search
history is bit-for-bit reproducible for a fixed seed and batch size.

The process pool is *supervised*: a worker dying mid-batch (OOM kill,
segfault, injected ``worker-crash`` fault) breaks the pool, which the
executor detects, rebuilds — the respawned workers fork from the warm
parent like the first ones — and re-dispatches the in-flight batch on.
Evaluation is deterministic, so the re-dispatched batch returns the same
metrics and the search history stays bit-for-bit equal to a fault-free run;
the recovery is visible only in ``runtime_counters()`` (``worker_restarts``).
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.runtime.faults import crash_process, get_fault_plan
from repro.runtime.opcache import caches_for
from repro.simulator.enginespec import EngineSpec
from repro.runtime.telemetry import (
    apply_telemetry_config,
    get_tracer,
    telemetry_config,
)

__all__ = [
    "TrialExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "WorkerCrashError",
    "make_executor",
]


class WorkerCrashError(RuntimeError):
    """A batch kept crashing pool workers past the restart budget."""


# ---------------------------------------------------------------------------
# Worker-process plumbing.  The evaluator/space are installed once per worker
# by the pool initializer.  Workers start warm through fork alone: before it
# builds (or rebuilds) a pool the parent calls ``evaluator.warm_caches()``,
# so every forked worker inherits the parent's workload graphs, compiled
# regions and loaded op / region stores.  Per-task payloads are just the
# parameter dicts; graphs are never pickled.
#
# Each task returns its metrics together with a small dict of op/region-cache
# counter deltas measured around the evaluation, the worker's engine echo and,
# when tracing is on, the task's spans, so the parent can aggregate
# worker-side runtime statistics and stage times.
# ---------------------------------------------------------------------------
_WORKER_EVALUATOR: Optional[TrialEvaluator] = None
_WORKER_SPACE: Optional[DatapathSearchSpace] = None


def _init_worker(
    evaluator: TrialEvaluator,
    space: DatapathSearchSpace,
    telemetry: Optional[dict] = None,
) -> None:
    global _WORKER_EVALUATOR, _WORKER_SPACE
    _WORKER_EVALUATOR = evaluator
    _WORKER_SPACE = space
    # Always install a fresh worker tracer (disabled when telemetry is None):
    # a fork-inherited parent buffer must never leak parent spans back with
    # a task delta, and fresh construction gives each worker its own span-id
    # salt, so span ids stay unique across the pool.
    apply_telemetry_config(telemetry)


def cache_counter_snapshot(op_cache, region_cache) -> dict:
    """Tier-level cache counters, keyed like ``RuntimeStats`` fields."""
    snap: dict = {}
    if op_cache is not None:
        stats = op_cache.stats
        snap["op_cache_hits"] = stats.hits
        snap["op_cache_misses"] = stats.misses
        snap["op_cache_disk_hits"] = stats.disk_hits
    if region_cache is not None:
        stats = region_cache.stats
        snap["region_cache_hits"] = stats.hits
        snap["region_cache_misses"] = stats.misses
        snap["region_cache_disk_hits"] = stats.disk_hits
    return snap


def _evaluate_in_worker(task):
    params, crash = task
    if crash:
        # Injected worker death (``worker-crash`` fault): die the way an OOM
        # kill would, before any evaluation work.  The decision was made in
        # the parent, so the re-dispatched task arrives with crash=False.
        crash_process()
    if _WORKER_EVALUATOR is None or _WORKER_SPACE is None:
        raise RuntimeError("worker process was not initialized with an evaluator")
    evaluator = _WORKER_EVALUATOR
    options = getattr(evaluator, "simulation_options", None)
    op_cache, region_cache = caches_for(options)
    cache_before = cache_counter_snapshot(op_cache, region_cache)
    metrics = evaluator.evaluate_params(params, _WORKER_SPACE)
    cache_after = cache_counter_snapshot(op_cache, region_cache)
    delta = {
        key: cache_after[key] - cache_before.get(key, 0) for key in cache_after
    }
    # Named engine echo: proof the worker inherited the parent's EngineSpec
    # through the initializer (a forked pool silently falling back to the
    # default engine would show up here and in ``repro profile``).
    if options is not None:
        try:
            delta["engine"] = str(EngineSpec.from_simulation_options(options))
        except Exception:
            pass  # echo is informational; evaluation results matter more
    tracer = get_tracer()
    if tracer.enabled:
        # Ship this task's spans home with the delta; draining means each
        # span leaves the worker exactly once even when the process is
        # reused across many tasks.
        delta["spans"] = [record.to_dict() for record in tracer.drain()]
    return metrics, delta


# ---------------------------------------------------------------------------
class TrialExecutor(ABC):
    """Evaluates batches of proposals; results come back in proposal order."""

    name: str = "executor"

    @abstractmethod
    def evaluate_batch(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
    ) -> List[TrialMetrics]:
        """Evaluate every proposal in ``batch``, preserving order."""

    def close(self) -> None:
        """Release any resources (worker processes, ...)."""

    # Executors can be used as context managers: ``with ParallelExecutor(4) as ex``.
    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(TrialExecutor):
    """Evaluates trials in the calling process.

    Runs the evaluator's batch entry point,
    :meth:`~repro.core.trial.TrialEvaluator.evaluate_params_batch`.
    """

    name = "serial"

    def evaluate_batch(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
    ) -> List[TrialMetrics]:
        return evaluator.evaluate_params_batch(batch, space)


class ParallelExecutor(TrialExecutor):
    """Evaluates trials on a pool of warm worker processes.

    The pool is created lazily on the first batch and reused across batches;
    it is re-created only if the evaluator or space object changes.  Results
    are collected with an order-preserving ``map``, so trial ordering (and
    hence the optimizer trajectory) is identical to a serial run.

    Workers start *warm* through fork: before each pool build the parent
    calls ``evaluator.warm_caches()`` once (best effort), which builds the
    problem's workload graphs and compiled regions and loads the op /
    region caches — including the persistent stores when the evaluator is
    configured with them (``--op-cache PATH``, ``region_store=PATH``) —
    and every forked worker inherits all of it.  Under a start method other
    than fork, workers rebuild the same caches lazily on first use; results
    are identical either way.  Worker-side cache hits flow back with every
    result and surface through :meth:`runtime_counters`; with tracing on,
    so do the worker's spans, which the parent tracer ingests.

    The pool is supervised: worker death mid-batch (detected as
    ``BrokenProcessPool``) tears the broken pool down, builds a fresh one —
    warming the parent again first, so respawned workers fork exactly as
    warm as the first ones — and re-dispatches the whole in-flight batch,
    up to ``max_worker_restarts`` times per batch.  Evaluation is
    deterministic, so re-dispatch returns identical metrics and the history
    matches a fault-free run bit-for-bit; ``worker_restarts`` in
    :meth:`runtime_counters` reports how many times it happened.

    Each worker task is one proposal, the best load balance for
    heterogeneous trial costs.

    Args:
        num_workers: Worker process count (defaults to the CPU count).
        max_worker_restarts: Pool rebuilds tolerated for one batch before
            :class:`WorkerCrashError` is raised (a batch that *always*
            kills its worker would otherwise respawn forever).
    """

    name = "parallel"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        max_worker_restarts: int = 3,
    ) -> None:
        self.num_workers = max(1, int(num_workers or os.cpu_count() or 1))
        self.max_worker_restarts = max(0, int(max_worker_restarts))
        self.worker_restarts = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        # Strong references to the objects the pool was initialized with;
        # identity is checked with ``is`` (never id() of possibly-collected
        # objects, whose addresses can be reused by new allocations).
        self._pool_args: Optional[tuple] = None
        self._pool_telemetry: Optional[dict] = None
        self._worker_totals: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _ensure_pool(
        self, evaluator: TrialEvaluator, space: DatapathSearchSpace
    ) -> ProcessPoolExecutor:
        telemetry = telemetry_config()
        if self._pool is not None and (
            self._pool_args is None
            or self._pool_args[0] is not evaluator
            or self._pool_args[1] is not space
            or self._pool_telemetry != telemetry
        ):
            self.close()
        if self._pool is None:
            try:
                evaluator.warm_caches()
            except Exception:
                pass  # warm-up is best effort; evaluation must still start
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=_init_worker,
                initargs=(evaluator, space, telemetry),
            )
            self._pool_args = (evaluator, space)
            self._pool_telemetry = telemetry
        return self._pool

    def evaluate_batch(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
    ) -> List[TrialMetrics]:
        if not batch:
            return []
        plan = get_fault_plan()
        restarts = 0
        while True:
            pool = self._ensure_pool(evaluator, space)
            # Crash decisions are drawn per dispatch attempt, in the parent:
            # a re-dispatched batch consumes *fresh* opportunities, so a
            # budgeted (n=K) crash plan converges instead of killing every
            # respawned pool forever.
            tasks = [
                (params, plan is not None and plan.fire("worker-crash") is not None)
                for params in batch
            ]
            try:
                outcomes = list(pool.map(_evaluate_in_worker, tasks))
                break
            except BrokenProcessPool as error:
                self.close()  # the broken pool's workers are already gone
                self.worker_restarts += 1
                restarts += 1
                get_tracer().record_span(
                    "worker_restart",
                    start_unix=time.time(),
                    duration=0.0,
                    category="executor",
                    restarts_this_batch=restarts,
                    batch_size=len(batch),
                )
                if restarts > self.max_worker_restarts:
                    raise WorkerCrashError(
                        f"batch of {len(batch)} kept killing workers through "
                        f"{restarts} pool restarts"
                    ) from error
        totals = self._worker_totals
        tracer = get_tracer()
        for _, delta in outcomes:
            spans = delta.pop("spans", None)
            if spans and tracer.enabled:
                tracer.ingest(spans)
            engine = delta.pop("engine", None)
            if engine is not None:
                totals["engine"] = engine  # config echo, not a counter
            for key, value in delta.items():
                totals[key] = totals.get(key, 0) + value
        return [metrics for metrics, _ in outcomes]

    def runtime_counters(self) -> Dict[str, float]:
        """Lifetime worker-side counters, keyed like ``RuntimeStats`` fields.

        The search loop snapshots this before and after a run and reports
        the delta, so op/region-cache hit counters do not read zero just
        because evaluation happened in worker processes; stage times travel
        home as spans instead.  ``worker_restarts`` counts supervised pool
        rebuilds after worker deaths.  One entry is non-numeric: ``engine``
        echoes the worker-resolved
        :class:`~repro.simulator.enginespec.EngineSpec` string, proof the
        pool inherited the parent's engine configuration.
        """
        counters: Dict[str, float] = dict(self._worker_totals)
        counters["worker_restarts"] = self.worker_restarts
        return counters

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_args = None
            self._pool_telemetry = None


def make_executor(
    workers: int = 1, kind: Optional[str] = None, **remote_options
) -> TrialExecutor:
    """Build a ``serial``, ``process`` or ``remote`` executor.

    Without ``kind``, more than one worker selects the process pool and
    otherwise the serial executor.  ``remote_options`` configure
    ``kind='remote'`` (``endpoints=[...]``, ``timeout=...``, ...; see
    :class:`~repro.runtime.remote.AsyncRemoteExecutor`), and the local kinds
    ignore them, so ``repro search --executor`` passes the same options to
    every kind.
    """
    if kind is None:
        kind = "process" if workers and workers > 1 else "serial"
    if kind == "serial":
        return SerialExecutor()
    if kind == "process":
        return ParallelExecutor(num_workers=workers)
    if kind == "remote":
        from repro.runtime.remote import AsyncRemoteExecutor  # avoid an import cycle

        return AsyncRemoteExecutor(remote_options.pop("endpoints", None) or (), **remote_options)
    raise ValueError(f"unknown executor kind {kind!r}; known: process, remote, serial")
