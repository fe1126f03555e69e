"""Sharded sweep orchestration: split one search into shards and merge them.

The paper's headline results come from large accelerator-design sweeps
(thousands of Vizier trials per study).  This module splits one logical
search into ``N`` independent *shards* that can run in separate processes —
or on separate hosts — and merges their outcomes back into a single
deduplicated result:

* :func:`plan_shards` carves a total trial budget into per-shard
  :class:`ShardSpec`\\ s.  Shards are decorrelated either by **seed stream**
  (each shard searches the full space from a distinct seed derived with
  ``numpy.random.SeedSequence``, so shard streams never collide) or by
  **design-space partition** (one categorical axis is split round-robin
  across shards, giving each shard a disjoint slice of the space).
* :func:`run_shard` executes one shard as a plain
  :class:`~repro.core.fast.FASTSearch` on the existing executor layer —
  a single-shard sweep therefore reproduces the plain search history
  bit-for-bit, and every shard inherits batching, caching (with shard-safe
  ``writer_id`` sidecar files), and parallel trial evaluation for free.
* :func:`merge_shard_results` folds any number of shard results (fresh or
  loaded from JSON written on other hosts) into one
  :class:`SweepResult`: the union of trial histories deduplicated by
  canonical parameter identity, a merged :class:`~repro.search.pareto.ParetoFront`
  whose payloads carry shard/trial provenance, the overall best design, and
  aggregated runtime statistics.  Shards are merged in ``shard_id`` order
  regardless of the order passed in, so the merge is order-independent.

Because every shard is itself deterministic for its (seed, budget, batch
size), the merged sweep is reproducible end-to-end: ``N`` shards merged
equal the union of the same ``N`` searches run one after another in a single
process.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.fast import FASTSearch, FASTSearchResult, RuntimeStats
from repro.core.problem import SearchProblem
from repro.core.trial import TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.reporting.serialization import (
    params_from_jsonable,
    params_to_jsonable,
    runtime_stats_from_dict,
    runtime_stats_to_dict,
    trial_metrics_from_dict,
    trial_metrics_to_dict,
)
from repro.runtime.batching import proposal_key
from repro.runtime.cache import TrialCache
from repro.runtime.exchange import ExchangeClient, Scoreboard, make_scoreboard
from repro.runtime.executor import TrialExecutor
from repro.search.pareto import ParetoFront
from repro.simulator.enginespec import EngineSpec

__all__ = [
    "ShardSpec",
    "ShardResult",
    "SweepTrial",
    "SweepResult",
    "shard_seed",
    "plan_shards",
    "shard_space",
    "run_shard",
    "merge_shard_results",
    "run_sharded_sweep",
    "save_shard_result",
    "load_shard_result",
    "sweep_result_to_dict",
]

_SHARD_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard of a sharded sweep."""

    shard_id: int
    num_shards: int
    seed: int
    num_trials: int
    mode: str = "seed"  # "seed" (seed-stream split) or "space" (axis partition)
    partition_axis: Optional[str] = None


def shard_seed(base_seed: int, shard_id: int, num_shards: int) -> int:
    """Deterministic, collision-free seed for one shard.

    A single shard keeps the base seed untouched (so a 1-shard sweep is the
    plain search).  Multiple shards derive child seeds from a
    :class:`numpy.random.SeedSequence` keyed by ``(base_seed, shard_id)``,
    which decorrelates the shard streams without any chance of two shards
    reusing one another's trivially-shifted seed.
    """
    if num_shards == 1:
        return int(base_seed)
    return int(np.random.SeedSequence([int(base_seed), int(shard_id)]).generate_state(1)[0])


def plan_shards(
    total_trials: int,
    num_shards: int,
    seed: int = 0,
    mode: str = "seed",
    partition_axis: Optional[str] = None,
) -> List[ShardSpec]:
    """Split a total trial budget into per-shard specs.

    The budget is divided as evenly as possible (earlier shards take the
    remainder), so the shard budgets always sum to ``total_trials``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if total_trials < 0:
        raise ValueError("total_trials must be non-negative")
    if mode not in ("seed", "space"):
        raise ValueError(f"unknown shard mode {mode!r}; expected 'seed' or 'space'")
    if mode == "space" and partition_axis is None:
        raise ValueError("mode='space' requires a partition_axis")
    base, remainder = divmod(total_trials, num_shards)
    return [
        ShardSpec(
            shard_id=shard_id,
            num_shards=num_shards,
            seed=shard_seed(seed, shard_id, num_shards),
            num_trials=base + (1 if shard_id < remainder else 0),
            mode=mode,
            partition_axis=partition_axis,
        )
        for shard_id in range(num_shards)
    ]


def shard_space(space: DatapathSearchSpace, spec: ShardSpec) -> DatapathSearchSpace:
    """Search space one shard explores (restricted for ``mode='space'``).

    Seed-mode shards share the full space.  Space-mode shards get a copy in
    which the partition axis keeps only every ``num_shards``-th choice
    starting at ``shard_id`` (round-robin), so the shard slices are disjoint
    and jointly cover the axis.
    """
    if spec.mode != "space":
        return space
    axis = space.spec(spec.partition_axis)  # raises KeyError for unknown axes
    if spec.num_shards > axis.cardinality:
        raise ValueError(
            f"cannot split axis {axis.name!r} ({axis.cardinality} choices) "
            f"across {spec.num_shards} shards"
        )
    return space.with_choices({axis.name: axis.choices[spec.shard_id :: spec.num_shards]})


# ---------------------------------------------------------------------------
# Per-shard execution
# ---------------------------------------------------------------------------
@dataclass
class ShardResult:
    """Outcome of one shard, carrying everything the merge needs."""

    spec: ShardSpec
    proposals: List[ParameterValues] = field(default_factory=list)
    history: List[TrialMetrics] = field(default_factory=list)
    runtime: Optional[RuntimeStats] = None

    @property
    def num_trials(self) -> int:
        """Trials this shard completed."""
        return len(self.history)

    @classmethod
    def from_search_result(cls, spec: ShardSpec, result: FASTSearchResult) -> "ShardResult":
        """Wrap a finished :class:`FASTSearchResult` with shard provenance."""
        return cls(
            spec=spec,
            proposals=[dict(p) for p in result.proposals],
            history=list(result.history),
            runtime=result.runtime,
        )


def run_shard(
    problem: SearchProblem,
    spec: ShardSpec,
    optimizer: str = "lcs",
    space: Optional[DatapathSearchSpace] = None,
    batch_size: int = 8,
    executor: Optional[TrialExecutor] = None,
    cache_path: Optional[Union[str, Path]] = None,
    exchange: Optional[Union[str, Path, Scoreboard]] = None,
    op_cache_path: Optional[Union[str, Path]] = None,
    engine: Optional[EngineSpec] = None,
) -> ShardResult:
    """Run one shard as a plain :class:`FASTSearch` and wrap the result.

    The shard search runs with the shard's own seed (and, in space mode, its
    restricted space) on whatever executor is supplied.  A shared cache path
    is opened with ``writer_id=spec.shard_id`` so concurrent shards append
    to disjoint sidecar files of one logical store.

    Shards share the per-op cost store by default: every shard's evaluator
    keeps the process-local op cache enabled, and ``op_cache_path`` names
    one persistent store they (and their pool workers) all attach to —
    neighboring shards reuse each other's mapped op costs instead of
    re-running the candidate sweep.  ``engine=EngineSpec(op_cache=False)``
    opts out (``repro sweep --engine graph-batched:op_cache=off``); results
    are identical either way.

    ``exchange`` (off by default) enables live cross-shard best-score
    exchange: a scoreboard instance, file prefix, or service URL (see
    :func:`repro.runtime.exchange.make_scoreboard`) that this shard
    publishes its best to after every batch and polls for *other* shards'
    bests before asking the next one — guided optimizers fold what they
    learn into their proposals via ``observe_external_best``.  A shard that
    never sees an external best (including any 1-shard sweep) is bit-for-bit
    identical to an exchange-free run.

    ``engine`` (an :class:`~repro.simulator.enginespec.EngineSpec`, the
    default engine when None) selects the evaluation engine for every
    shard.  Both engines are bit-for-bit equivalent, so the merged sweep
    result is engine-independent.  An
    engine with ``region_store=PATH`` gives every shard (and its pool
    workers) one shared persistent region store the same way
    ``op_cache_path`` shares op costs — appends are single-write and
    duplicate-tolerant, so concurrent shards racing the same region key
    are safe and compaction later folds the duplicates.
    """
    from repro.core.trial import TrialEvaluator

    space = shard_space(space or DatapathSearchSpace(), spec)
    cache = (
        TrialCache(cache_path, writer_id=spec.shard_id)
        if cache_path is not None
        else None
    )
    client = (
        ExchangeClient(make_scoreboard(exchange), spec.shard_id)
        if exchange is not None
        else None
    )
    options = (engine or EngineSpec()).to_simulation_options(
        fusion_solver="greedy",
        op_cache_path=str(op_cache_path) if op_cache_path is not None else None,
    )
    evaluator = TrialEvaluator(problem, simulation_options=options)
    search = FASTSearch(
        problem,
        optimizer=optimizer,
        space=space,
        seed=spec.seed,
        evaluator=evaluator,
        executor=executor,
        cache=cache,
        exchange=client,
    )
    from repro.runtime.telemetry import get_tracer

    try:
        with get_tracer().span(
            "shard",
            category="sweep",
            shard_id=spec.shard_id,
            mode=spec.mode,
            num_trials=spec.num_trials,
        ):
            result = search.run(num_trials=spec.num_trials, batch_size=batch_size)
    finally:
        if cache is not None:
            cache.release()  # finished shards must not block later compaction
    return ShardResult.from_search_result(spec, result)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTrial:
    """One deduplicated trial of the merged sweep, with provenance."""

    shard_id: int
    trial_index: int
    params: ParameterValues
    metrics: TrialMetrics


@dataclass
class SweepResult:
    """Merged outcome of a sharded sweep."""

    shards: List[ShardSpec] = field(default_factory=list)
    trials: List[SweepTrial] = field(default_factory=list)
    pareto_front: ParetoFront = field(default_factory=ParetoFront)
    best_trial: Optional[SweepTrial] = None
    duplicates_removed: int = 0
    shard_best_scores: Dict[int, float] = field(default_factory=dict)
    runtime: Optional[RuntimeStats] = None

    @property
    def num_trials(self) -> int:
        """Unique trials across all shards after deduplication."""
        return len(self.trials)

    @property
    def best_score(self) -> float:
        """Best aggregate score across shards (``nan`` when nothing feasible)."""
        if self.best_trial is None:
            return float("nan")
        return self.best_trial.metrics.aggregate_score

    @property
    def best_params(self) -> Optional[ParameterValues]:
        """Parameters of the best design across all shards."""
        return dict(self.best_trial.params) if self.best_trial is not None else None

    @property
    def best_metrics(self) -> Optional[TrialMetrics]:
        """Metrics of the best design across all shards."""
        return self.best_trial.metrics if self.best_trial is not None else None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def merge_shard_results(shard_results: Sequence[ShardResult]) -> SweepResult:
    """Merge shard results into one deduplicated sweep result.

    Shards are processed in ``shard_id`` order regardless of the order given,
    so the merge is order-independent.  Trials proposing an identical
    parameter assignment (canonical ``proposal_key`` identity) are collapsed
    to their first occurrence — the evaluator is deterministic, so duplicate
    assignments carry identical metrics.  The merged Pareto front replays
    every unique feasible trial with the same (mean latency, TDP, area)
    objectives the single-search front uses, tagging each point's payload
    with its originating shard and trial index.
    """
    ordered = sorted(shard_results, key=lambda r: r.spec.shard_id)
    merged = SweepResult(shards=[r.spec for r in ordered])

    seen_keys: Dict[str, SweepTrial] = {}
    total = RuntimeStats()
    best: Optional[SweepTrial] = None
    for shard in ordered:
        shard_best = float("nan")
        for trial_index, (params, metrics) in enumerate(zip(shard.proposals, shard.history)):
            if metrics.feasible and np.isfinite(metrics.objective_value):
                score = metrics.aggregate_score
                if math.isnan(shard_best) or score > shard_best:
                    shard_best = score
            key = proposal_key(params)
            if key in seen_keys:
                merged.duplicates_removed += 1
                continue
            trial = SweepTrial(
                shard_id=shard.spec.shard_id,
                trial_index=trial_index,
                params=dict(params),
                metrics=metrics,
            )
            seen_keys[key] = trial
            merged.trials.append(trial)
            if metrics.feasible and np.isfinite(metrics.objective_value):
                if best is None or metrics.aggregate_score > best.metrics.aggregate_score:
                    best = trial
                merged.pareto_front.add(
                    (
                        _mean(metrics.per_workload_latency_ms.values()),
                        metrics.tdp_w,
                        metrics.area_mm2,
                    ),
                    payload={
                        "params": dict(params),
                        "score": metrics.aggregate_score,
                        "shard": shard.spec.shard_id,
                        "trial": trial_index,
                    },
                )
        merged.shard_best_scores[shard.spec.shard_id] = shard_best
        if shard.runtime is not None:
            _accumulate_runtime(total, shard.runtime)
    merged.best_trial = best
    merged.runtime = total
    return merged


def _accumulate_runtime(total: RuntimeStats, shard: RuntimeStats) -> None:
    """Fold one shard's runtime stats into the sweep total.

    Numeric counters/timings sum; the per-endpoint counter maps merge by
    endpoint URL (counters sum, the ``blacklisted`` flag keeps its latest
    truthy value).  Iterating the dataclass fields keeps the merge complete
    as new counters are added.
    """
    for stats_field in dataclasses.fields(RuntimeStats):
        value = getattr(shard, stats_field.name)
        if isinstance(value, (int, float)):
            setattr(total, stats_field.name, getattr(total, stats_field.name) + value)
        elif isinstance(value, dict):
            merged_map = getattr(total, stats_field.name)
            for url, counters in value.items():
                into = merged_map.setdefault(url, {})
                for key, amount in counters.items():
                    if key == "blacklisted":
                        into[key] = max(into.get(key, 0.0), amount)
                    else:
                        into[key] = into.get(key, 0.0) + amount


def run_sharded_sweep(
    problem: SearchProblem,
    total_trials: int,
    num_shards: int,
    optimizer: str = "lcs",
    seed: int = 0,
    space: Optional[DatapathSearchSpace] = None,
    mode: str = "seed",
    partition_axis: Optional[str] = None,
    batch_size: int = 8,
    executor: Optional[TrialExecutor] = None,
    cache_path: Optional[Union[str, Path]] = None,
    exchange: Optional[Union[str, Path, Scoreboard]] = None,
    op_cache_path: Optional[Union[str, Path]] = None,
    engine: Optional[EngineSpec] = None,
) -> SweepResult:
    """Plan, run, and merge a sharded sweep in one call.

    Shards run one after another in this process (each using ``executor``
    for its trial batches — pass a
    :class:`~repro.runtime.executor.ParallelExecutor` to parallelize the
    evaluations); for multi-host execution run individual shards with
    :func:`run_shard` / ``repro sweep --shard-index`` instead and merge the
    saved files with :func:`merge_shard_results` / ``repro sweep --merge``.

    The persistent per-op cost store is shared across shards by default:
    pass ``op_cache_path`` and every shard (and every pool worker, forked
    from the warm parent) attaches to the same store, so later shards run
    on the op costs earlier shards already mapped.  Even without a path the
    shards share the process-local op cache.  ``engine`` is as for
    :func:`run_shard`; ``EngineSpec(op_cache=False)`` opts out of the op
    cache entirely, and results are identical either way.

    With ``exchange`` set (a scoreboard, file prefix, or service URL), each
    shard publishes its running best between batches and later shards — or,
    for concurrent multi-host shards, *live* shards — fold the best external
    score into their guided optimizers.  Off by default; a 1-shard sweep
    stays bit-for-bit equal to the plain search either way.
    """
    specs = plan_shards(
        total_trials, num_shards, seed=seed, mode=mode, partition_axis=partition_axis
    )
    scoreboard = make_scoreboard(exchange) if exchange is not None else None
    results = [
        run_shard(
            problem,
            spec,
            optimizer=optimizer,
            space=space,
            batch_size=batch_size,
            executor=executor,
            cache_path=cache_path,
            exchange=scoreboard,
            op_cache_path=op_cache_path,
            engine=engine,
        )
        for spec in specs
    ]
    return merge_shard_results(results)


# ---------------------------------------------------------------------------
# Shard/sweep serialization (multi-host workflows)
# ---------------------------------------------------------------------------
def shard_result_to_dict(result: ShardResult) -> Dict[str, object]:
    """JSON-compatible form of one shard result."""
    return {
        "version": _SHARD_FORMAT_VERSION,
        "spec": dataclasses.asdict(result.spec),
        "proposals": [params_to_jsonable(p) for p in result.proposals],
        "history": [trial_metrics_to_dict(m) for m in result.history],
        "runtime": runtime_stats_to_dict(result.runtime) if result.runtime is not None else None,
    }


def shard_result_from_dict(
    data: Dict[str, object], space: Optional[DatapathSearchSpace] = None
) -> ShardResult:
    """Inverse of :func:`shard_result_to_dict`.

    ``space`` (default: the full Table 3 space) resolves raw parameter
    values back to choice objects; space-mode shard files decode against the
    full space because every proposal is a complete assignment.
    """
    version = data.get("version")
    if version != _SHARD_FORMAT_VERSION:
        raise ValueError(f"unsupported shard file version {version!r}")
    space = space or DatapathSearchSpace()
    spec = ShardSpec(**data["spec"])
    runtime = data.get("runtime")
    return ShardResult(
        spec=spec,
        proposals=[params_from_jsonable(p, space) for p in data.get("proposals", [])],
        history=[trial_metrics_from_dict(m) for m in data.get("history", [])],
        runtime=runtime_stats_from_dict(runtime) if runtime else None,
    )


def save_shard_result(result: ShardResult, path: Union[str, Path]) -> Path:
    """Write one shard result to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(shard_result_to_dict(result)))
    return path


def load_shard_result(
    path: Union[str, Path], space: Optional[DatapathSearchSpace] = None
) -> ShardResult:
    """Read a shard result previously written by :func:`save_shard_result`."""
    return shard_result_from_dict(json.loads(Path(path).read_text()), space)


def sweep_result_to_dict(result: SweepResult) -> Dict[str, object]:
    """JSON-compatible summary of a merged sweep (for ``--output``)."""
    payload: Dict[str, object] = {
        "shards": [dataclasses.asdict(spec) for spec in result.shards],
        "num_trials": result.num_trials,
        "duplicates_removed": result.duplicates_removed,
        "shard_best_scores": {
            str(shard_id): (None if math.isnan(score) else score)
            for shard_id, score in result.shard_best_scores.items()
        },
        "best_score": None if result.best_trial is None else result.best_score,
        "best_shard": None if result.best_trial is None else result.best_trial.shard_id,
        "best_params": (
            params_to_jsonable(result.best_params) if result.best_params is not None else None
        ),
        "best_metrics": (
            trial_metrics_to_dict(result.best_metrics)
            if result.best_metrics is not None
            else None
        ),
        "pareto_front": [
            {
                "objectives": list(point.objectives),
                "shard": point.payload.get("shard"),
                "trial": point.payload.get("trial"),
                "score": point.payload.get("score"),
                "params": (
                    params_to_jsonable(point.payload["params"])
                    if isinstance(point.payload.get("params"), dict)
                    else None
                ),
            }
            for point in result.pareto_front.sorted_by(0)
        ],
    }
    if result.runtime is not None:
        payload["runtime"] = runtime_stats_to_dict(result.runtime)
    return payload
