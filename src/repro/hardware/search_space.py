"""The FAST datapath search space (Table 3) and its encodings.

Each hyperparameter is modeled as a categorical choice over an explicit list
of values (power-of-two integer ranges or enums).  The space provides the
three operations the optimizers need: uniform sampling, mutation of a single
parameter, and encoding of a configuration into a normalized numeric vector
for surrogate models.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.datapath import BufferConfig, DatapathConfig, L2Config, MemoryTechnology

__all__ = ["ParameterSpec", "DatapathSearchSpace", "ParameterValues"]

ParameterValues = Dict[str, object]


@dataclass(frozen=True)
class ParameterSpec:
    """A single categorical search parameter."""

    name: str
    choices: Tuple[object, ...]

    @property
    def cardinality(self) -> int:
        """Number of possible values."""
        return len(self.choices)

    def index_of(self, value: object) -> int:
        """Index of a value within the choice list."""
        return self.choices.index(value)


def _clamp(index: int, cardinality: int) -> int:
    """``index`` clipped into ``[0, cardinality - 1]`` (plain ints, no NumPy call)."""
    return min(max(index, 0), cardinality - 1)


# A local mutation step, picked by ``rng.integers(0, 2)``: the one draw that
# ``rng.choice([-1, 1])`` makes, without building an array per step.
_STEPS = (-1, 1)


def _first_indices(choices: Sequence[object]) -> Dict[object, int]:
    """Value -> index of its first occurrence, the index ``tuple.index`` returns."""
    indices: Dict[object, int] = {}
    for index, value in enumerate(choices):
        indices.setdefault(value, index)
    return indices


def _pow2_range(lo: int, hi: int) -> Tuple[int, ...]:
    values = []
    v = lo
    while v <= hi:
        values.append(v)
        v *= 2
    return tuple(values)


class DatapathSearchSpace:
    """The joint datapath + compiler-flag search space of Table 3.

    The scheduling mapspace (loop orders and tile sizes explored per op by
    the mapper) and the fusion decision space (explored by the ILP) are not
    enumerated here — they are resolved downstream per trial, exactly as in
    the paper where Vizier proposes the datapath and constrains the schedule
    mapspace while Timeloop and the fusion ILP resolve the rest.

    ``sample``, ``mutate``, ``encode`` and ``decode`` read lookup tables
    built once per spec list: each parameter's choices, a value -> index
    table and a value -> code table (``index / max(cardinality - 1, 1)``),
    so a parameter costs a dict lookup where ``tuple.index`` scanned its
    choices.  A value that misses a table (not a choice, or equal to one
    under another hash) falls back to :meth:`ParameterSpec.index_of`, so it
    still gets ``tuple.index``'s answer or its ``ValueError``.  ``decode``
    rounds every parameter with one ``np.rint``, which rounds half to even as
    ``round`` does.  Restrict choices with :meth:`with_choices`, which
    rebuilds the tables.
    """

    def __init__(
        self,
        memory_technology: MemoryTechnology = MemoryTechnology.GDDR6,
        clock_ghz: float = 0.94,
        allow_two_pass_softmax: bool = True,
        max_pes: int = 256,
        max_systolic_dim: int = 256,
    ) -> None:
        self.memory_technology = memory_technology
        self.clock_ghz = clock_ghz
        self._specs: List[ParameterSpec] = [
            ParameterSpec("pes_x_dim", _pow2_range(1, max_pes)),
            ParameterSpec("pes_y_dim", _pow2_range(1, max_pes)),
            ParameterSpec("systolic_array_x", _pow2_range(1, max_systolic_dim)),
            ParameterSpec("systolic_array_y", _pow2_range(1, max_systolic_dim)),
            ParameterSpec("vector_unit_multiplier", _pow2_range(1, 16)),
            ParameterSpec("l1_buffer_config", (BufferConfig.PRIVATE, BufferConfig.SHARED)),
            ParameterSpec("l1_input_buffer_kib", _pow2_range(1, 1024)),
            ParameterSpec("l1_weight_buffer_kib", _pow2_range(1, 1024)),
            ParameterSpec("l1_output_buffer_kib", _pow2_range(1, 1024)),
            ParameterSpec(
                "l2_buffer_config", (L2Config.DISABLED, L2Config.PRIVATE, L2Config.SHARED)
            ),
            ParameterSpec("l2_input_buffer_multiplier", _pow2_range(1, 128)),
            ParameterSpec("l2_weight_buffer_multiplier", _pow2_range(1, 128)),
            ParameterSpec("l2_output_buffer_multiplier", _pow2_range(1, 128)),
            ParameterSpec("l3_global_buffer_mib", (0,) + _pow2_range(1, 256)),
            ParameterSpec("gddr6_channels", _pow2_range(1, 8)),
            ParameterSpec("native_batch_size", _pow2_range(1, 256)),
        ]
        if allow_two_pass_softmax:
            self._specs.append(ParameterSpec("use_two_pass_softmax", (False, True)))
        self._build_tables()

    def _build_tables(self) -> None:
        """The per-parameter lookup tables of ``self._specs``."""
        self._names = tuple(spec.name for spec in self._specs)
        self._choices = tuple(spec.choices for spec in self._specs)
        self._indices: Tuple[Dict[object, int], ...] = tuple(
            _first_indices(choices) for choices in self._choices
        )
        self._codes: Tuple[Dict[object, float], ...] = tuple(
            {value: index / max(len(choices) - 1, 1) for value, index in indices.items()}
            for choices, indices in zip(self._choices, self._indices)
        )
        self._decode_scales = np.array([max(len(c) - 1, 1) for c in self._choices], dtype=float)
        self._top_indices = np.array([len(c) - 1 for c in self._choices], dtype=float)

    def with_choices(self, choices: Mapping[str, Sequence[object]]) -> "DatapathSearchSpace":
        """A copy in which each parameter named in ``choices`` offers only those values."""
        restricted = copy.copy(self)
        restricted._specs = [
            ParameterSpec(spec.name, tuple(choices[spec.name])) if spec.name in choices else spec
            for spec in self._specs
        ]
        restricted._build_tables()
        return restricted

    # ------------------------------------------------------------------
    @property
    def specs(self) -> List[ParameterSpec]:
        """Parameter specifications, in a stable order."""
        return list(self._specs)

    @property
    def parameter_names(self) -> List[str]:
        """Names of all search parameters."""
        return [spec.name for spec in self._specs]

    def spec(self, name: str) -> ParameterSpec:
        """Look up a parameter spec by name."""
        for spec in self._specs:
            if spec.name == name:
                return spec
        raise KeyError(name)

    @property
    def log10_size(self) -> float:
        """log10 of the number of datapath configurations in the space."""
        return sum(math.log10(spec.cardinality) for spec in self._specs)

    # ------------------------------------------------------------------
    # Sampling and perturbation
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> ParameterValues:
        """Draw a uniform random configuration."""
        return {
            name: choices[int(rng.integers(len(choices)))]
            for name, choices in zip(self._names, self._choices)
        }

    def mutate(
        self,
        params: ParameterValues,
        rng: np.random.Generator,
        num_mutations: int = 1,
    ) -> ParameterValues:
        """Return a copy with ``num_mutations`` parameters re-sampled.

        Integer parameters move to an adjacent choice with high probability
        (local move) and to a uniform random choice otherwise, which is the
        behaviour evolutionary optimizers rely on for fine-tuning.
        """
        mutated = dict(params)
        count = len(self._specs)
        for position in rng.choice(count, size=min(num_mutations, count), replace=False).tolist():
            name, choices = self._names[position], self._choices[position]
            current = self._index(position, mutated[name])
            cardinality = len(choices)
            if cardinality == 1:
                continue
            if rng.random() < 0.7 and cardinality > 2:
                step = _STEPS[int(rng.integers(0, 2))]
                new_index = _clamp(current + step, cardinality)
                if new_index == current:
                    new_index = _clamp(current - step, cardinality)
            else:
                new_index = int(rng.integers(cardinality))
            mutated[name] = choices[new_index]
        return mutated

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    def _index(self, position: int, value: object) -> int:
        """Index of ``value`` among parameter ``position``'s choices, as ``tuple.index``."""
        try:
            return self._indices[position][value]
        except (KeyError, TypeError):
            return self._specs[position].index_of(value)

    def encode(self, params: ParameterValues) -> np.ndarray:
        """Encode a configuration as a vector in [0, 1]^d for surrogates."""
        try:
            codes = [table[params[name]] for name, table in zip(self._names, self._codes)]
        except (KeyError, TypeError):
            codes = [
                self._index(position, params[name]) / max(len(choices) - 1, 1)
                for position, (name, choices) in enumerate(zip(self._names, self._choices))
            ]
        return np.array(codes, dtype=float)

    def decode(self, vector: Sequence[float]) -> ParameterValues:
        """Inverse of :meth:`encode`: the nearest choice, clamped into range.

        Raises ``ValueError`` for a non-finite component.
        """
        scaled = np.rint(np.asarray(vector, dtype=float) * self._decode_scales)
        if not np.isfinite(scaled).all():
            raise ValueError(f"cannot decode a non-finite vector: {vector!r}")
        indices = np.clip(scaled, 0.0, self._top_indices).astype(np.intp).tolist()
        return {
            name: choices[index]
            for name, choices, index in zip(self._names, self._choices, indices)
        }

    # ------------------------------------------------------------------
    # Conversion to a datapath configuration
    # ------------------------------------------------------------------
    def to_config(self, params: ParameterValues, num_cores: int = 1) -> DatapathConfig:
        """Build a :class:`DatapathConfig` from a parameter assignment."""
        return DatapathConfig(
            pes_x_dim=params["pes_x_dim"],
            pes_y_dim=params["pes_y_dim"],
            systolic_array_x=params["systolic_array_x"],
            systolic_array_y=params["systolic_array_y"],
            vector_unit_multiplier=params["vector_unit_multiplier"],
            l1_buffer_config=params["l1_buffer_config"],
            l1_input_buffer_kib=params["l1_input_buffer_kib"],
            l1_weight_buffer_kib=params["l1_weight_buffer_kib"],
            l1_output_buffer_kib=params["l1_output_buffer_kib"],
            l2_buffer_config=params["l2_buffer_config"],
            l2_input_buffer_multiplier=params["l2_input_buffer_multiplier"],
            l2_weight_buffer_multiplier=params["l2_weight_buffer_multiplier"],
            l2_output_buffer_multiplier=params["l2_output_buffer_multiplier"],
            l3_global_buffer_mib=params["l3_global_buffer_mib"],
            gddr6_channels=params["gddr6_channels"],
            native_batch_size=params["native_batch_size"],
            memory_technology=self.memory_technology,
            clock_ghz=self.clock_ghz,
            num_cores=num_cores,
            use_two_pass_softmax=bool(params.get("use_two_pass_softmax", False)),
            enable_fast_fusion=True,
        )

    def from_config(self, config: DatapathConfig) -> ParameterValues:
        """Extract the search parameters from an existing configuration."""
        params: ParameterValues = {
            "pes_x_dim": config.pes_x_dim,
            "pes_y_dim": config.pes_y_dim,
            "systolic_array_x": config.systolic_array_x,
            "systolic_array_y": config.systolic_array_y,
            "vector_unit_multiplier": config.vector_unit_multiplier,
            "l1_buffer_config": config.l1_buffer_config,
            "l1_input_buffer_kib": config.l1_input_buffer_kib,
            "l1_weight_buffer_kib": config.l1_weight_buffer_kib,
            "l1_output_buffer_kib": config.l1_output_buffer_kib,
            "l2_buffer_config": config.l2_buffer_config,
            "l2_input_buffer_multiplier": config.l2_input_buffer_multiplier,
            "l2_weight_buffer_multiplier": config.l2_weight_buffer_multiplier,
            "l2_output_buffer_multiplier": config.l2_output_buffer_multiplier,
            "l3_global_buffer_mib": config.l3_global_buffer_mib,
            "gddr6_channels": config.gddr6_channels,
            "native_batch_size": config.native_batch_size,
        }
        if any(spec.name == "use_two_pass_softmax" for spec in self._specs):
            params["use_two_pass_softmax"] = config.use_two_pass_softmax
        return params
