"""Seeded fuzz of the two spec grammars a user types on the command line.

``--engine`` (:meth:`~repro.simulator.enginespec.EngineSpec.parse`) and
``--inject-faults`` (:func:`~repro.runtime.faults.parse_fault_spec`) must
either accept a string or refuse it with a ``ValueError`` naming what was
wrong — never crash with any other exception.  Strings are random
concatenations of each grammar's own tokens, valid and retired ones, so most
of them come close to parsing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.faults import KNOWN_FAULT_POINTS, parse_fault_spec
from repro.simulator.enginespec import MAPPER_MODES, EngineSpec

#: Random strings per grammar; each parses in microseconds.
STRINGS = 20000

ENGINE_TOKENS = (
    *MAPPER_MODES, "vectorized", "trial-batched",
    "op_cache", "op-cache", "region_cache", "region-cache", "region_store",
    "cache_service", "backend", "mapper",
    "on", "off", "true", "No", "1", "0", "maybe",
    "runs/r.jsonl", "http://h:1", "C:/x",
    ":", ",", "=", " ", "-", "",
)

FAULT_TOKENS = (
    *sorted(KNOWN_FAULT_POINTS), "worker", "bogus",
    "p", "n", "at", "delay", "x",
    "0.5", "1", "-3", "1e999", "nan", "inf", "1|2", "3+4", "0x10", "1_0", "abc",
    ",", ":", "=", "|", "+", " ", "",
)


def _fuzz(parse, tokens, seed: int) -> int:
    """Parse ``STRINGS`` random token strings; returns how many parsed."""
    rng = np.random.default_rng(seed)
    accepted = 0
    for _ in range(STRINGS):
        picks = rng.integers(len(tokens), size=int(rng.integers(1, 13)))
        text = "".join(tokens[i] for i in picks)
        try:
            parse(text)
        except ValueError:
            continue
        except Exception as error:  # the property under test
            pytest.fail(f"{parse.__qualname__}({text!r}) raised {error!r}")
        accepted += 1
    return accepted


@pytest.mark.parametrize("seed", [0, 1])
def test_engine_spec_parse_raises_only_value_error(seed):
    assert _fuzz(EngineSpec.parse, ENGINE_TOKENS, seed) > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_fault_spec_parse_raises_only_value_error(seed):
    assert _fuzz(parse_fault_spec, FAULT_TOKENS, seed) > 0
