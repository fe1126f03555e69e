"""Batched asks over the single-proposal optimizer interface.

Evaluating trials in parallel requires asking the optimizer for several
proposals *before* any of their results are known.  :class:`BatchedOptimizer`
adapts any :class:`~repro.search.optimizer.Optimizer` to that pattern:
``ask_batch(n)`` prefers the optimizer's native ``ask_batch`` (population /
neighborhood / acquisition-ranked proposals generated in one pass, see
:meth:`repro.search.optimizer.Optimizer.ask_batch`) and falls back to
repeated ``ask()`` calls for duck-typed optimizers without one.  Either way
every proposal passes tabu-style de-duplication — a proposal identical to
anything already proposed in this run is mutated or re-asked up to eight
times, so a batch never wastes parallel slots on duplicate configurations.

Outcomes are told to the optimizer itself, by
:meth:`~repro.core.fast.FASTSearch.run`, in proposal order, which keeps the
optimizer's trajectory independent of the order in which workers happened
to finish.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Dict, List, Tuple

from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.reporting.serialization import params_to_jsonable
from repro.search.optimizer import Optimizer

__all__ = ["proposal_key", "BatchedOptimizer"]

# Times a duplicate proposal is mutated or re-asked before it is kept.
_MAX_RETRIES = 8

# The '"name": value' fragment of each (name, type, value) a key has held.
# Only values whose JSON equality fixes (ints, strings, bools, None, enum
# members) are kept: 0.0 == -0.0, yet they dump differently.  A search
# space's choices fill a few hundred entries; the bound only stops values
# from outside any space growing the table without end.
_KEY_FRAGMENTS: Dict[Tuple[str, type, object], str] = {}
_MAX_KEY_FRAGMENTS = 4096
_EXACT_JSON_TYPES = (bool, int, str, type(None))


def proposal_key(params: ParameterValues) -> str:
    """Canonical string identity of a parameter assignment.

    Byte for byte ``json.dumps(params_to_jsonable(params), sort_keys=True)``
    (sharding, de-duplication and resumed runs compare these strings),
    joined from cached per-parameter fragments.
    """
    fragments = []
    for name in sorted(params):
        value = params[name]
        entry = (name, type(value), value)
        try:
            fragment = _KEY_FRAGMENTS.get(entry)
        except TypeError:  # an unhashable value
            fragment = None
        if fragment is None:
            fragment = json.dumps(params_to_jsonable({name: value}), sort_keys=True)[1:-1]
            exact = type(value) in _EXACT_JSON_TYPES or isinstance(value, Enum)
            if exact and len(_KEY_FRAGMENTS) < _MAX_KEY_FRAGMENTS:
                _KEY_FRAGMENTS[entry] = fragment
        fragments.append(fragment)
    return "{" + ", ".join(fragments) + "}"


class BatchedOptimizer:
    """Ask/tell batching wrapper for a black-box optimizer.

    Args:
        optimizer: The wrapped optimizer (its ``rng`` drives diversification,
            so the batched trajectory stays deterministic for a fixed seed).
        space: Search space used for fallback mutations; defaults to the
            optimizer's own space.
    """

    def __init__(self, optimizer: Optimizer, space: DatapathSearchSpace = None) -> None:
        self.optimizer = optimizer
        self.space = space or optimizer.space
        self._seen_keys = set()
        self.num_duplicates_avoided = 0

    # ------------------------------------------------------------------
    def note_proposed(self, params: ParameterValues) -> None:
        """Mark a proposal as used without asking for it (seeds, resumed runs)."""
        self._seen_keys.add(proposal_key(params))

    def ask_batch(self, n: int) -> List[ParameterValues]:
        """Propose ``n`` de-duplicated parameter assignments."""
        native = getattr(self.optimizer, "ask_batch", None)
        if callable(native):
            raw = list(native(n))
        else:
            raw = [self.optimizer.ask() for _ in range(n)]
        return [self._dedup(params) for params in raw]

    def _dedup(self, params: ParameterValues) -> ParameterValues:
        key = proposal_key(params)
        retries = 0
        while key in self._seen_keys and retries < _MAX_RETRIES:
            self.num_duplicates_avoided += 1
            # Mutate first, re-ask only for persistent duplicates: a local
            # mutation usually suffices and costs nothing, while a re-ask can
            # be expensive (e.g. a full surrogate refit for the Bayesian
            # optimizer) but lets guided optimizers move on their own when
            # mutations keep landing on seen configurations.
            if retries % 2 == 0:
                params = self.space.mutate(params, self.optimizer.rng, num_mutations=2)
            else:
                params = self.optimizer.ask()
            key = proposal_key(params)
            retries += 1
        self._seen_keys.add(key)
        return params
