"""The FAST datapath search space (Table 3) and its encodings.

Each hyperparameter is modeled as a categorical choice over an explicit list
of values (power-of-two integer ranges or enums).  The space provides the
three operations the optimizers need: uniform sampling, mutation of a single
parameter, and encoding of a configuration into a normalized numeric vector
for surrogate models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
            spec.name: spec.choices[int(rng.integers(spec.cardinality))]
            for spec in self._specs
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
        indices = rng.choice(len(self._specs), size=min(num_mutations, len(self._specs)), replace=False)
        for idx in indices:
            spec = self._specs[int(idx)]
            current = spec.index_of(mutated[spec.name])
            if spec.cardinality == 1:
                continue
            if rng.random() < 0.7 and spec.cardinality > 2:
                step = int(rng.choice([-1, 1]))
                new_index = _clamp(current + step, spec.cardinality)
                if new_index == current:
                    new_index = _clamp(current - step, spec.cardinality)
            else:
                new_index = int(rng.integers(spec.cardinality))
            mutated[spec.name] = spec.choices[new_index]
        return mutated

    # ------------------------------------------------------------------
    # Encodings
    # ------------------------------------------------------------------
    def encode(self, params: ParameterValues) -> np.ndarray:
        """Encode a configuration as a vector in [0, 1]^d for surrogates."""
        encoded = np.empty(len(self._specs), dtype=float)
        for i, spec in enumerate(self._specs):
            index = spec.index_of(params[spec.name])
            encoded[i] = index / max(spec.cardinality - 1, 1)
        return encoded

    def decode(self, vector: Sequence[float]) -> ParameterValues:
        """Inverse of :meth:`encode` (rounds to the nearest choice)."""
        params: ParameterValues = {}
        for i, spec in enumerate(self._specs):
            index = int(round(float(vector[i]) * max(spec.cardinality - 1, 1)))
            index = _clamp(index, spec.cardinality)
            params[spec.name] = spec.choices[index]
        return params

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
