"""The engine-spec API: one value naming the evaluation engine.

:class:`EngineSpec` is one frozen value object with a compact string
grammar — the ``--engine`` flag on ``repro search/sweep/profile/serve``::

    MAPPER[:key=value[,key=value...]]

    --engine graph-batched                      # the default engine
    --engine scalar                             # bit-for-bit reference loop
    --engine graph-batched:op_cache=off,region_cache=off
    --engine graph-batched:region_store=runs/regions.jsonl
    --engine graph-batched:cache_service=http://cache-host:8642

``MAPPER`` is ``scalar`` (the op-by-op reference loop) or ``graph-batched``
(one stacked NumPy pass per trial); both compute identical costs.  Keys are
``op_cache`` and ``region_cache`` (booleans:
``on/off/true/false/yes/no/1/0``), ``region_store`` (a path — persist region
results as a JSONL store the way ``--op-cache`` persists op costs) and
``cache_service`` (a ``repro serve`` base URL whose ``/cache/region`` routes
act as the cluster-wide region tier).  ``str()`` of a spec is canonical and
round-trips through :meth:`EngineSpec.parse`, omitting values that equal the
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simulator.engine import MAPPER_MODES, SimulationOptions

__all__ = ["EngineSpec", "MAPPER_MODES", "DEFAULT_ENGINE"]

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})
_OPTION_KEYS = ("op_cache", "region_cache", "region_store", "cache_service")


def _parse_bool(key: str, word: str) -> bool:
    lowered = word.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(
        f"engine spec: {key} must be a boolean "
        f"(on/off/true/false/yes/no/1/0), got {word!r}"
    )


def _check_mapper(mapper: str, where: str = "") -> None:
    if mapper not in MAPPER_MODES:
        raise ValueError(
            f"unknown mapper {mapper!r}{where} "
            f"(expected one of: {', '.join(MAPPER_MODES)})"
        )


@dataclass(frozen=True)
class EngineSpec:
    """One immutable value describing the whole evaluation engine."""

    mapper: str = "graph-batched"
    op_cache: bool = True
    region_cache: bool = True
    region_store: Optional[str] = None
    cache_service: Optional[str] = None

    def __post_init__(self) -> None:
        _check_mapper(self.mapper)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: Optional[str]) -> "EngineSpec":
        """Parse the ``MAPPER[:key=value,...]`` grammar (see module doc)."""
        text = (text or "").strip()
        if not text:
            return cls()
        head, _, tail = text.partition(":")
        head = head.strip()
        if "=" in head:  # bare options, default mapper: "op_cache=off"
            tail = text
            head = ""
        values = {}
        if head:
            _check_mapper(head, f" in engine spec {text!r}")
            values["mapper"] = head
        for item in tail.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key = key.strip().replace("-", "_")
            if not eq:
                raise ValueError(f"engine spec option {item!r} is not key=value")
            if key in ("op_cache", "region_cache"):
                values[key] = _parse_bool(key, value)
            elif key in ("region_store", "cache_service"):
                stripped = value.strip()
                if not stripped:
                    raise ValueError(f"engine spec: {key} needs a non-empty value")
                values[key] = stripped
            else:
                raise ValueError(
                    f"unknown engine spec option {key!r} "
                    f"(expected one of: {', '.join(_OPTION_KEYS)})"
                )
        return cls(**values)

    def __str__(self) -> str:
        """Canonical compact form; round-trips through :meth:`parse`."""
        options = []
        if not self.op_cache:
            options.append("op_cache=off")
        if not self.region_cache:
            options.append("region_cache=off")
        if self.region_store is not None:
            options.append(f"region_store={self.region_store}")
        if self.cache_service is not None:
            options.append(f"cache_service={self.cache_service}")
        if options:
            return f"{self.mapper}:{','.join(options)}"
        return self.mapper

    # ------------------------------------------------------------------
    def to_simulation_options(self, **extra):
        """Expand into a :class:`~repro.simulator.engine.SimulationOptions`.

        ``extra`` passes through any non-engine knobs (``fusion_solver``,
        ``op_cache_path``, ...).
        """
        return SimulationOptions(
            mapper_engine=self.mapper,
            op_cache_enabled=self.op_cache,
            region_cache_enabled=self.region_cache,
            region_store_path=self.region_store,
            region_cache_service=self.cache_service,
            **extra,
        )

    @classmethod
    def from_simulation_options(cls, options) -> "EngineSpec":
        """Recover the spec a :class:`SimulationOptions` encodes."""
        return cls(
            mapper=options.mapper_engine,
            op_cache=options.op_cache_enabled,
            region_cache=options.region_cache_enabled,
            region_store=options.region_store_path,
            cache_service=options.region_cache_service,
        )


#: The session default: graph-batched NumPy with both caches on.
DEFAULT_ENGINE = EngineSpec()
