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
from typing import List

from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.reporting.serialization import params_to_jsonable
from repro.search.optimizer import Optimizer

__all__ = ["proposal_key", "BatchedOptimizer"]

# Times a duplicate proposal is mutated or re-asked before it is kept.
_MAX_RETRIES = 8


def proposal_key(params: ParameterValues) -> str:
    """Canonical string identity of a parameter assignment."""
    return json.dumps(params_to_jsonable(params), sort_keys=True)


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
