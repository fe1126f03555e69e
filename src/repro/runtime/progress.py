"""Progress events for the search runtime.

The runtime emits a stream of :class:`SearchEvent` records — search started,
batch dispatched, trial finished, cache hit, new best-so-far, checkpoint
saved — through a :class:`ProgressBus`.  Subscribers are plain callables, so
the CLI can attach a :class:`ProgressPrinter` for live progress lines while
tests attach a list-appending lambda; the search loop itself never knows who
is listening.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TextIO

__all__ = [
    "SEARCH_STARTED",
    "SEARCH_RESUMED",
    "SEARCH_FINISHED",
    "BATCH_STARTED",
    "TRIAL_FINISHED",
    "CACHE_HIT",
    "BEST_IMPROVED",
    "CHECKPOINT_SAVED",
    "EXTERNAL_BEST",
    "SearchEvent",
    "ProgressBus",
    "ProgressPrinter",
]

SEARCH_STARTED = "search_started"
SEARCH_RESUMED = "search_resumed"
SEARCH_FINISHED = "search_finished"
BATCH_STARTED = "batch_started"
TRIAL_FINISHED = "trial_finished"
CACHE_HIT = "cache_hit"
BEST_IMPROVED = "best_improved"
CHECKPOINT_SAVED = "checkpoint_saved"
EXTERNAL_BEST = "external_best"


@dataclass(frozen=True)
class SearchEvent:
    """One runtime event.

    Attributes:
        kind: Event kind (one of the module-level constants).
        trial_index: Trial the event refers to, or ``-1`` for run-level events.
        payload: Free-form event data (scores, batch sizes, paths, ...).
    """

    kind: str
    trial_index: int = -1
    payload: Dict[str, object] = field(default_factory=dict)


class ProgressBus:
    """Tiny synchronous publish/subscribe bus for search events.

    Subscriber exceptions are swallowed (and recorded on :attr:`errors`) so a
    broken progress hook can never abort a long search.
    """

    def __init__(self) -> None:
        self._subscribers: List[Callable[[SearchEvent], None]] = []
        self.errors: List[Exception] = []

    def subscribe(self, subscriber: Callable[[SearchEvent], None]) -> Callable[[SearchEvent], None]:
        """Register a subscriber; returns it so the call can be used inline."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Callable[[SearchEvent], None]) -> None:
        """Remove a previously registered subscriber (no-op if absent)."""
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    def emit(self, kind: str, trial_index: int = -1, **payload: object) -> SearchEvent:
        """Build an event and deliver it to every subscriber."""
        event = SearchEvent(kind=kind, trial_index=trial_index, payload=payload)
        for subscriber in list(self._subscribers):
            try:
                subscriber(event)
            except Exception as error:  # progress must never kill the search
                self.errors.append(error)
        return event


class ProgressPrinter:
    """Formats search events as single-line progress output.

    Attach to a :class:`ProgressBus` with ``bus.subscribe(ProgressPrinter())``.
    Every trial gets one line, and so does every run-level event and
    best-so-far improvement.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream or sys.stdout
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    def __call__(self, event: SearchEvent) -> None:
        line = self._format(event)
        if line is not None:
            print(line, file=self.stream, flush=True)

    def _format(self, event: SearchEvent) -> Optional[str]:
        payload = event.payload
        if event.kind == SEARCH_STARTED:
            self._started_at = time.monotonic()
            return (
                f"search: {payload.get('num_trials', '?')} trials, "
                f"batch={payload.get('batch_size', '?')}, "
                f"executor={payload.get('executor', 'serial')}"
            )
        if event.kind == SEARCH_RESUMED:
            return f"resume: {payload.get('num_completed', 0)} trials restored from checkpoint"
        if event.kind == TRIAL_FINISHED:
            score = payload.get("score", 0.0)
            best = payload.get("best_score", float("nan"))
            status = "ok" if payload.get("feasible") else "infeasible"
            # Live op/region cache hit rates, when the search loop knows
            # them: long sweeps show cache warm-up as it happens instead of
            # only in the final summary.
            caches = ""
            op_rate = payload.get("op_cache_hit_rate")
            if op_rate is not None:
                caches += f" oc={100 * op_rate:.0f}%"
            region_rate = payload.get("region_cache_hit_rate")
            if region_rate is not None:
                caches += f" rc={100 * region_rate:.0f}%"
            return (
                f"[trial {event.trial_index + 1}] {status} "
                f"score={score:.4g} best={best:.4g}{caches}"
            )
        if event.kind == CACHE_HIT:
            return f"[trial {event.trial_index + 1}] cache hit"
        if event.kind == BEST_IMPROVED:
            return f"[trial {event.trial_index + 1}] new best score={payload.get('score', 0.0):.4g}"
        if event.kind == CHECKPOINT_SAVED:
            return f"checkpoint: {payload.get('num_completed', '?')} trials -> {payload.get('path', '')}"
        if event.kind == EXTERNAL_BEST:
            return (
                f"[trial {event.trial_index + 1}] external best from shard "
                f"{payload.get('shard', '?')}: score={payload.get('score', 0.0):.4g}"
            )
        if event.kind == SEARCH_FINISHED:
            elapsed = (
                time.monotonic() - self._started_at if self._started_at is not None else None
            )
            rate = ""
            if elapsed and payload.get("num_trials"):
                rate = f" ({payload['num_trials'] / elapsed:.1f} trials/s)"
            op_hits = payload.get("op_cache_hits", 0)
            op_part = f"{op_hits} op-cache hits, " if op_hits else ""
            remote_part = ""
            if payload.get("remote_retries") or payload.get("remote_hedges"):
                remote_part = (
                    f"{payload.get('remote_retries', 0)} retries, "
                    f"{payload.get('remote_hedges', 0)} hedges, "
                )
            return (
                f"done: {payload.get('num_trials', '?')} trials, "
                f"{payload.get('cache_hits', 0)} cache hits, "
                f"{op_part}"
                f"{remote_part}"
                f"best={payload.get('best_score', float('nan')):.4g}{rate}"
            )
        return None
