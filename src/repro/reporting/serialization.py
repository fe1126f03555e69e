"""JSON serialization of datapath configurations and search results.

Search runs are expensive; these helpers let users persist the designs FAST
finds (and the full trial history) and reload them later for re-simulation,
ablation, or deployment studies without re-running the search.
"""

from __future__ import annotations

import dataclasses
import json
import math
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.fast import FASTSearchResult, RuntimeStats
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialMetrics
from repro.hardware.datapath import (
    BufferConfig,
    DatapathConfig,
    DatapathValidationError,
    L2Config,
    MemoryTechnology,
)
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.hardware.tpu import EvaluationConstraints

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "params_to_jsonable",
    "params_from_jsonable",
    "search_problem_to_dict",
    "search_problem_from_dict",
    "simulation_options_to_dict",
    "simulation_options_from_dict",
    "trial_metrics_to_dict",
    "trial_metrics_from_dict",
    "runtime_stats_to_dict",
    "runtime_stats_from_dict",
    "search_result_to_dict",
    "save_search_result",
]

_ENUM_FIELDS = {
    "l1_buffer_config": BufferConfig,
    "l2_buffer_config": L2Config,
    "memory_technology": MemoryTechnology,
}


def config_to_dict(config: DatapathConfig) -> Dict[str, object]:
    """Convert a datapath configuration to a JSON-compatible dictionary."""
    result: Dict[str, object] = {}
    for name, value in config.__dict__.items():
        if name in _ENUM_FIELDS:
            result[name] = value.value
        else:
            result[name] = value
    return result


def config_from_dict(data: Dict[str, object]) -> DatapathConfig:
    """Rebuild a datapath configuration from :func:`config_to_dict` output.

    Configs come from outside the process (saved designs, trial records), so
    each field must hold its declared JSON type: an integer field an integer,
    ``clock_ghz`` a number, a flag a bool (and a bool only a flag), an enum
    field one of its values.  Anything else raises
    :class:`DatapathValidationError` naming the field.
    """
    return DatapathConfig(**{name: _config_field(name, value) for name, value in data.items()})


#: Each datapath field's declared type (every field has a default of it).
_CONFIG_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(DatapathConfig)}
#: What a JSON value of each scalar field type must be, and its Python types.
_JSON_SCALARS = {int: ("an integer", int), float: ("a number", (int, float)), bool: ("a bool", bool)}


def _config_field(name: str, value: object) -> object:
    """``value`` as datapath field ``name``'s declared type."""
    declared = _CONFIG_FIELD_TYPES.get(name)
    if declared is None:  # not a field: the constructor names it
        return value
    if issubclass(declared, Enum):
        try:
            return declared(value)
        except (TypeError, ValueError):
            expected = f"one of {[member.value for member in declared]}"
    else:
        expected, types = _JSON_SCALARS[declared]
        if isinstance(value, types) and isinstance(value, bool) == (declared is bool):
            return float(value) if declared is float else value
    raise DatapathValidationError(f"{name} must be {expected}, got {value!r}")


def save_config(config: DatapathConfig, path: Union[str, Path]) -> Path:
    """Write a configuration to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
    return path


def load_config(path: Union[str, Path]) -> DatapathConfig:
    """Read a configuration previously written by :func:`save_config`."""
    return config_from_dict(json.loads(Path(path).read_text()))


def params_to_jsonable(params: ParameterValues) -> Dict[str, object]:
    """Encode a search-space parameter assignment as plain JSON values.

    Enum-valued parameters (buffer/L2 configurations, memory technology) are
    replaced by their ``.value``; everything else in the space is already a
    JSON scalar.  Keys are sorted so the output doubles as a canonical form
    for hashing (see :mod:`repro.runtime.cache`).
    """
    encoded: Dict[str, object] = {}
    for name in sorted(params):
        value = params[name]
        encoded[name] = value.value if isinstance(value, Enum) else value
    return encoded


def params_from_jsonable(
    data: Dict[str, object], space: DatapathSearchSpace
) -> ParameterValues:
    """Inverse of :func:`params_to_jsonable`, resolved against a search space.

    Each raw value is matched back to the spec's choice object (so enums are
    restored); unknown parameters are passed through untouched.
    """
    params: ParameterValues = {}
    spec_by_name = {spec.name: spec for spec in space.specs}
    for name, raw in data.items():
        spec = spec_by_name.get(name)
        if spec is None:
            params[name] = raw
            continue
        for choice in spec.choices:
            if choice == raw or (isinstance(choice, Enum) and choice.value == raw):
                params[name] = choice
                break
        else:
            raise ValueError(f"value {raw!r} is not a choice of parameter {name!r}")
    return params


def search_problem_to_dict(problem: SearchProblem) -> Dict[str, object]:
    """Encode a search problem as plain JSON values (the remote wire form)."""
    return {
        "workloads": list(problem.workloads),
        "objective": problem.objective.value,
        "constraints": {
            "max_area_mm2": problem.constraints.max_area_mm2,
            "max_tdp_w": problem.constraints.max_tdp_w,
        },
        "baseline_qps": dict(problem.baseline_qps),
    }


def search_problem_from_dict(data: Dict[str, object]) -> SearchProblem:
    """Inverse of :func:`search_problem_to_dict`."""
    constraints = data.get("constraints")
    return SearchProblem(
        workloads=list(data["workloads"]),
        objective=ObjectiveKind(data["objective"]),
        constraints=(
            EvaluationConstraints(
                max_area_mm2=float(constraints["max_area_mm2"]),
                max_tdp_w=float(constraints["max_tdp_w"]),
            )
            if constraints is not None
            else None
        ),
        baseline_qps=dict(data.get("baseline_qps") or {}),
    )


def simulation_options_to_dict(options) -> Dict[str, object]:
    """Encode :class:`~repro.simulator.engine.SimulationOptions` as JSON values.

    ``mapper_options`` (when set) is flattened to its scalar knobs with
    dataflow enums replaced by their values.
    """
    payload: Dict[str, object] = {}
    for name, value in sorted(vars(options).items()):
        if name == "mapper_options" and value is not None:
            payload[name] = {
                "dataflows": [d.value for d in value.dataflows],
                "max_tiling_candidates": value.max_tiling_candidates,
                "padding_max_overhead": value.padding_max_overhead,
            }
        else:
            payload[name] = getattr(value, "value", value)
    return payload


def simulation_options_from_dict(data: Dict[str, object]):
    """Inverse of :func:`simulation_options_to_dict`.

    Unknown keys are ignored, so options written before the engine was one
    field (``vectorized_mapper``, ``backend``, ``mapper_options.vectorize``
    and the like) still load, with the default engine: every engine computes
    the same results.
    """
    import dataclasses as _dc

    from repro.mapping.dataflow import Dataflow
    from repro.mapping.mapper import MapperOptions
    from repro.simulator.engine import SimulationOptions

    known = {field.name for field in _dc.fields(SimulationOptions)}
    kwargs = {key: value for key, value in data.items() if key in known}
    mapper = kwargs.get("mapper_options")
    if mapper is not None:
        kwargs["mapper_options"] = MapperOptions(
            dataflows=tuple(Dataflow(d) for d in mapper["dataflows"]),
            max_tiling_candidates=int(mapper["max_tiling_candidates"]),
            padding_max_overhead=float(mapper["padding_max_overhead"]),
        )
    return SimulationOptions(**kwargs)


def trial_metrics_to_dict(metrics: TrialMetrics) -> Dict[str, object]:
    """Convert trial metrics (one evaluated design) to a JSON-compatible dict."""
    return {
        "config": config_to_dict(metrics.config) if metrics.config is not None else None,
        "area_mm2": metrics.area_mm2,
        "tdp_w": metrics.tdp_w,
        "feasible": metrics.feasible,
        "failure_reason": metrics.failure_reason,
        "per_workload_qps": dict(metrics.per_workload_qps),
        "per_workload_latency_ms": dict(metrics.per_workload_latency_ms),
        "per_workload_utilization": dict(metrics.per_workload_utilization),
        "aggregate_score": metrics.aggregate_score,
        "objective_value": metrics.objective_value,
    }


_MISSING = object()
_NUMBER = (int, float)
_PER_WORKLOAD_FIELDS = ("per_workload_qps", "per_workload_latency_ms", "per_workload_utilization")


def _field(data: dict, name: str, types: tuple, default: object = _MISSING):
    """``data[name]``, or ``default`` when missing, if it is of ``types``.

    Anything else raises ``TypeError``; a bool is not a number here.
    """
    value = data[name] if default is _MISSING else data.get(name, default)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise TypeError(f"{name} {value!r} has the wrong type")
    return value


def trial_metrics_from_dict(data: Dict[str, object]) -> TrialMetrics:
    """Rebuild trial metrics from :func:`trial_metrics_to_dict` output.

    Records come from outside the process (trial cache, checkpoints, remote
    replies), so one decodes only when each field has its declared type;
    otherwise ``KeyError``, ``TypeError`` or ``ValueError`` is raised.
    Older records without ``objective_value`` get the infeasible default
    (``inf``).
    """
    per_workload = {}
    for name in _PER_WORKLOAD_FIELDS:
        values = _field(data, name, (dict, type(None)), None) or {}
        if not all(isinstance(key, str) for key in values):
            raise TypeError(f"{name} has a key that is not a workload name")
        per_workload[name] = {key: float(_field(values, key, _NUMBER)) for key in values}
    config = _field(data, "config", (dict, type(None)), None)
    return TrialMetrics(
        config=config_from_dict(config) if config is not None else None,
        area_mm2=float(_field(data, "area_mm2", _NUMBER)),
        tdp_w=float(_field(data, "tdp_w", _NUMBER)),
        feasible=_field(data, "feasible", (bool,)),
        failure_reason=_field(data, "failure_reason", (str, type(None)), None),
        aggregate_score=float(_field(data, "aggregate_score", _NUMBER, 0.0)),
        objective_value=float(_field(data, "objective_value", _NUMBER, math.inf)),
        **per_workload,
    )


def runtime_stats_to_dict(stats: RuntimeStats) -> Dict[str, object]:
    """Convert runtime statistics (counters and the engine echo) to a dict."""
    return dataclasses.asdict(stats)


def runtime_stats_from_dict(data: Dict[str, object]) -> RuntimeStats:
    """Rebuild runtime statistics from :func:`runtime_stats_to_dict` output.

    Unknown keys are ignored and missing ones get their defaults, so records
    written before a field existed, or with fields since removed (such as
    the per-stage ``*_seconds`` timings, now span totals), still load.
    """
    known = {field.name for field in dataclasses.fields(RuntimeStats)}
    return RuntimeStats(**{key: value for key, value in data.items() if key in known})


def search_result_to_dict(
    result: FASTSearchResult, include_history: bool = False
) -> Dict[str, object]:
    """Convert a search result to a JSON-compatible dict."""
    payload: Dict[str, object] = {
        "workloads": list(result.problem.workloads),
        "objective": result.problem.objective.value,
        "num_trials": result.num_trials,
        "num_feasible_trials": result.num_feasible_trials,
        # best_score is NaN when nothing feasible was found; JSON has no NaN,
        # so the "no best" case serializes as null.
        "best_score": None if result.best_metrics is None else result.best_score,
        "best_config": (
            config_to_dict(result.best_config) if result.best_config is not None else None
        ),
        "best_metrics": (
            trial_metrics_to_dict(result.best_metrics)
            if result.best_metrics is not None
            else None
        ),
        "best_score_curve": list(result.best_score_curve),
    }
    if result.runtime is not None:
        payload["runtime"] = runtime_stats_to_dict(result.runtime)
    if result.pareto_front is not None and len(result.pareto_front):
        payload["pareto_front"] = [
            {
                "objectives": list(point.objectives),
                "payload": {
                    key: params_to_jsonable(value) if isinstance(value, dict) else value
                    for key, value in point.payload.items()
                },
            }
            for point in result.pareto_front.sorted_by(0)
        ]
    if include_history:
        payload["history"] = [trial_metrics_to_dict(m) for m in result.history]
        payload["proposals"] = [params_to_jsonable(p) for p in result.proposals]
    return payload


def save_search_result(
    result: FASTSearchResult, path: Union[str, Path], include_history: bool = False
) -> Path:
    """Write a search result (and optionally its full history) to JSON."""
    path = Path(path)
    path.write_text(json.dumps(search_result_to_dict(result, include_history), indent=2))
    return path
