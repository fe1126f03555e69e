"""Trial evaluation: datapath -> schedule -> fusion -> objective.

A *trial* evaluates one candidate datapath configuration against a search
problem: it checks the area/TDP constraints, simulates every workload at the
design's native batch size (running the mapper and FAST fusion inside the
simulator), and produces the objective value the black-box optimizer
minimizes — the three-phase flow of Figure 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.problem import ObjectiveKind, SearchProblem
from repro.hardware.area_power import AreaPowerModel
from repro.hardware.datapath import DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.simulator.engine import SimulationOptions, Simulator
from repro.simulator.result import SimulationResult
from repro.workloads.graph import Graph
from repro.workloads.registry import build_workload

__all__ = ["TrialMetrics", "TrialEvaluator", "clear_graph_cache"]

# The telemetry tracer is resolved lazily: this module is imported during
# ``repro.runtime``'s own package init (via runtime.cache), so a module-level
# ``from repro.runtime.telemetry import ...`` would be circular.  The accessor
# is cached after the first call, leaving one function call + attribute check
# on the hot path when tracing is disabled.
_get_tracer = None


def _tracer():
    global _get_tracer
    if _get_tracer is None:
        from repro.runtime.telemetry import get_tracer

        _get_tracer = get_tracer
    return _get_tracer()

# Workload graphs are immutable and expensive-ish to build, so they are cached
# per (workload, batch) across all evaluators in the process.  Graphs are
# never pickled to executor workers (only cache *settings* travel); workers
# inherit the entries the parent's :meth:`TrialEvaluator.warm_caches` built
# through fork — graphs are immutable data, so inherited entries are exactly
# what the worker would rebuild — or, under spawn, rebuild lazily on first
# use.
_GRAPH_CACHE: Dict[tuple, Graph] = {}


def _cached_graph(workload: str, batch_size: int) -> Graph:
    key = (workload, batch_size)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = build_workload(workload, batch_size=batch_size)
    return _GRAPH_CACHE[key]


def clear_graph_cache() -> None:
    """Drop all cached workload graphs (for tests and memory-sensitive runs)."""
    _GRAPH_CACHE.clear()


@dataclass
class TrialMetrics:
    """Everything measured for one candidate design."""

    config: DatapathConfig
    area_mm2: float
    tdp_w: float
    feasible: bool
    failure_reason: Optional[str]
    per_workload_qps: Dict[str, float] = field(default_factory=dict)
    per_workload_latency_ms: Dict[str, float] = field(default_factory=dict)
    per_workload_utilization: Dict[str, float] = field(default_factory=dict)
    aggregate_score: float = 0.0
    objective_value: float = math.inf

    @property
    def qps(self) -> float:
        """Single-workload convenience accessor."""
        if len(self.per_workload_qps) == 1:
            return next(iter(self.per_workload_qps.values()))
        return self.aggregate_score

    def perf_per_tdp(self, workload: str) -> float:
        """QPS per TDP watt for one workload."""
        if self.tdp_w <= 0:
            return 0.0
        return self.per_workload_qps.get(workload, 0.0) / self.tdp_w


class TrialEvaluator:
    """Evaluates candidate datapaths for a search problem.

    Each trial runs inside a ``trial`` tracer span, with ``area_power``,
    ``setup`` and one ``simulate`` span per workload beneath it.  Parallel
    executors evaluate on worker-process copies, whose spans travel back to
    the parent tracer with each result.
    """

    def __init__(
        self,
        problem: SearchProblem,
        area_power_model: Optional[AreaPowerModel] = None,
        simulation_options: Optional[SimulationOptions] = None,
        num_cores: int = 1,
    ) -> None:
        self.problem = problem
        self.area_power_model = area_power_model or AreaPowerModel()
        self.simulation_options = simulation_options or SimulationOptions(fusion_solver="greedy")
        self.num_cores = num_cores

    # ------------------------------------------------------------------
    def warm_caches(self, batch_sizes: Optional[tuple] = None) -> None:
        """Pre-warm this process's evaluation caches (best effort).

        Builds and pre-compiles the problem's workload graphs (default: at
        the stock native batch size) and looks up the op / region caches
        the simulation options name, which loads their persistent stores on
        first touch, so the first trial already runs warm.  Used by
        ``repro serve`` and by
        :class:`~repro.runtime.executor.ParallelExecutor`, which calls it in
        the parent before each pool build so forked workers inherit the warm
        caches; every step is a pure cache fill, results are unaffected.
        """
        from repro.runtime.opcache import caches_for
        from repro.simulator.engine import precompile_graph

        caches_for(self.simulation_options)
        sizes = tuple(batch_sizes) if batch_sizes else (DatapathConfig().native_batch_size,)
        for workload in self.problem.workloads:
            for batch_size in sizes:
                try:
                    graph = _cached_graph(workload, batch_size)
                    precompile_graph(graph)
                except Exception:
                    continue  # warm-up must never break evaluation

    # ------------------------------------------------------------------
    def evaluate_params(
        self, params: ParameterValues, space: DatapathSearchSpace
    ) -> TrialMetrics:
        """Evaluate a search-space parameter assignment."""
        with _tracer().span(
            "trial", category="search", workloads=len(self.problem.workloads)
        ) as span:
            try:
                config = space.to_config(params, num_cores=self.num_cores)
            except Exception as error:  # invalid combinations are infeasible trials
                span.set_attr("feasible", False)
                return TrialMetrics(
                    config=None,
                    area_mm2=math.inf,
                    tdp_w=math.inf,
                    feasible=False,
                    failure_reason=f"invalid configuration: {error}",
                )
            metrics = self.evaluate_config(config)
            span.set_attr("feasible", metrics.feasible)
            span.set_attr("score", metrics.aggregate_score)
            return metrics

    def evaluate_config(self, config: DatapathConfig) -> TrialMetrics:
        """Evaluate a concrete datapath configuration."""
        with _tracer().span("area_power", category="simulate"):
            breakdown = self.area_power_model.evaluate(config)
        area = breakdown.total_area_mm2
        tdp = breakdown.total_tdp_w
        constraints = self.problem.constraints

        metrics = TrialMetrics(
            config=config,
            area_mm2=area,
            tdp_w=tdp,
            feasible=True,
            failure_reason=None,
        )
        if not constraints.is_feasible(area, tdp):
            metrics.feasible = False
            metrics.failure_reason = (
                f"cost constraints violated: area {area:.0f} mm^2 (max "
                f"{constraints.max_area_mm2:.0f}), TDP {tdp:.0f} W (max "
                f"{constraints.max_tdp_w:.0f})"
            )
            return metrics

        with _tracer().span("setup", category="simulate"):
            simulator = Simulator(config, self.simulation_options)
        per_workload_scores: Dict[str, float] = {}
        for workload in self.problem.workloads:
            with _tracer().span("simulate", category="simulate", workload=workload):
                graph = _cached_graph(workload, config.native_batch_size)
                result = simulator.simulate(graph)
            if result.schedule_failed:
                metrics.feasible = False
                metrics.failure_reason = f"schedule failure on {workload}"
                return metrics
            metrics.per_workload_qps[workload] = result.qps
            metrics.per_workload_latency_ms[workload] = result.latency_ms
            metrics.per_workload_utilization[workload] = result.compute_utilization
            per_workload_scores[workload] = self.problem.workload_score(
                workload, result.qps, tdp, area
            )

        metrics.aggregate_score = self.problem.aggregate(per_workload_scores)
        metrics.objective_value = self.problem.minimized_value(metrics.aggregate_score)
        return metrics

    # ------------------------------------------------------------------
    def evaluate_params_batch(
        self, params_list, space: DatapathSearchSpace
    ) -> "list[TrialMetrics]":
        """Evaluate a batch of trials, one :meth:`evaluate_params` call each.

        The entry point executors call for a whole proposal batch.
        """
        return [self.evaluate_params(params, space) for params in params_list]

    # ------------------------------------------------------------------
    def simulate_design(self, config: DatapathConfig, workload: str) -> SimulationResult:
        """Full simulation result for one workload (for detailed reporting)."""
        simulator = Simulator(config, self.simulation_options)
        graph = _cached_graph(workload, config.native_batch_size)
        return simulator.simulate(graph)
