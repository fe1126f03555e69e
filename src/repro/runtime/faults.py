"""Seeded, deterministic fault injection for chaos-testing the runtime.

Partial failure is the steady state of a scaled-out search: pool workers get
OOM-killed, evaluation services drop connections or answer 5xx, appends are
torn mid-line by a crash.  The runtime promises that none of this changes
*what* a search computes — the trial history is bit-for-bit identical to a
fault-free run — and this module makes that promise testable by injecting
the failures on purpose, deterministically, from a seed.

A :class:`FaultPlan` is a set of named *fault points*, each an arm/decide
counter the runtime consults at its failure sites:

======================  ====================================================
``worker-crash``        A process-pool worker SIGKILLs itself instead of
                        evaluating its task (decided in the parent, per
                        task, so a respawned pool does not re-crash once
                        the budget is spent).
``remote-drop``         A remote request attempt is abandoned before it is
                        sent, as if the connection dropped.
``remote-timeout``      A remote request attempt is treated as timed out.
``remote-slow``         A remote request attempt sleeps ``delay`` seconds
                        before being sent (straggler simulation).
``service-error``       The evaluation service answers HTTP 500.
``service-drop``        The evaluation service closes the socket without a
                        response.
``service-delay``       The evaluation service sleeps ``delay`` seconds
                        before handling the request.
``torn-write``          A write stops halfway, as a crash mid-write
                        would: a trial-cache append writes a truncated
                        record; a checkpoint save that appends a journal
                        delta writes half of it (load drops that tail and
                        the next save writes a snapshot); one that writes
                        a snapshot leaves a partial ``.tmp`` file and no
                        rename.  Op- and region-store appends never tear:
                        they also run inside pool workers, and fault
                        decisions are made only in the coordinating
                        process.
======================  ====================================================

Plans are built from a compact spec string (``--inject-faults``)::

    worker-crash:n=1,remote-drop:p=0.25:n=4,torn-write:at=0|3

Points are comma-separated; each takes colon-separated ``key=value`` params:
``p`` (fire probability per opportunity, default 1.0), ``n`` (total fire
budget, default unlimited), ``at`` (pinned opportunity indices, ``|``- or
``+``-separated; overrides ``p``), and ``delay`` (seconds, for the slow /
delay points).  Every random decision comes from a per-point
``random.Random`` stream derived from the plan seed, so the same spec and
seed fire the same faults in the same opportunity order — chaos runs are
reproducible.

A plan is also a valid :attr:`EvaluationService.fault_injector
<repro.runtime.service.EvaluationService.fault_injector>`: calling it as
``plan(request_index, path)`` returns the service action tuple
(``("error",)``, ``("drop",)``, ``("delay", seconds)``) for the configured
``service-*`` points, and the :meth:`at` / :attr:`default` hooks preserve
the request-pinned protocol the remote-executor tests were built on.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "KNOWN_FAULT_POINTS",
    "FaultPoint",
    "FaultPlan",
    "parse_fault_spec",
    "configure_faults",
    "get_fault_plan",
    "set_fault_plan",
    "clear_faults",
    "crash_process",
]

#: Fault point names the runtime consults; parse errors name this set.
KNOWN_FAULT_POINTS = frozenset(
    {
        "worker-crash",
        "remote-drop",
        "remote-timeout",
        "remote-slow",
        "service-error",
        "service-drop",
        "service-delay",
        "torn-write",
    }
)


@dataclass
class FaultPoint:
    """One configured failure site: when (and how often) it fires.

    ``at`` pins firing to exact opportunity indices and overrides ``p``;
    otherwise each opportunity fires with probability ``p`` until the
    ``budget`` (total fires) is spent.  ``opportunities``/``fired`` are the
    live counters.
    """

    name: str
    probability: float = 1.0
    budget: Optional[int] = None
    at: Optional[frozenset] = None
    delay: float = 0.05
    opportunities: int = 0
    fired: int = 0

    def spec(self) -> str:
        """Canonical spec fragment rebuilding this point."""
        parts = [self.name]
        if self.at is not None:
            parts.append("at=" + "|".join(str(i) for i in sorted(self.at)))
        elif self.probability != 1.0:
            parts.append(f"p={self.probability:g}")
        if self.budget is not None:
            parts.append(f"n={self.budget}")
        if self.delay != 0.05:
            parts.append(f"delay={self.delay:g}")
        return ":".join(parts)


def parse_fault_spec(spec: str) -> Dict[str, FaultPoint]:
    """Parse an ``--inject-faults`` spec string into fault points.

    Raises :class:`ValueError` on unknown point names, unknown params, or
    malformed values, naming what it understood — a chaos run with a typo'd
    spec silently injecting nothing would defeat its purpose.
    """
    points: Dict[str, FaultPoint] = {}
    for chunk in (spec or "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, param_text = chunk.partition(":")
        name = name.strip()
        if name not in KNOWN_FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {name!r}; known: "
                + ", ".join(sorted(KNOWN_FAULT_POINTS))
            )
        point = FaultPoint(name=name)
        for param in filter(None, (p.strip() for p in param_text.split(":"))):
            key, sep, value = param.partition("=")
            if not sep:
                raise ValueError(f"fault param {param!r} is not key=value")
            try:
                if key == "p":
                    point.probability = min(1.0, max(0.0, float(value)))
                elif key == "n":
                    point.budget = max(0, int(value))
                elif key == "at":
                    point.at = frozenset(
                        int(i) for i in value.replace("+", "|").split("|") if i
                    )
                elif key == "delay":
                    point.delay = max(0.0, float(value))
                else:
                    raise ValueError(
                        f"unknown fault param {key!r} (known: p, n, at, delay)"
                    )
            except (TypeError, ValueError) as error:
                if "unknown fault param" in str(error):
                    raise
                raise ValueError(f"bad value for fault param {param!r}") from error
        points[name] = point
    return points


class FaultPlan:
    """Deterministic, seeded decisions for every configured fault point.

    Thread-safe: remote attempts race on HTTP pool threads and service
    handlers race per request, so decisions are serialized by a lock — the
    fired pattern depends only on the seed and each point's opportunity
    order.

    Also implements the service fault-injector protocol
    (``plan(request_index, path) -> action``): request-pinned actions from
    :meth:`at` / :attr:`default` take precedence, then the seeded
    ``service-*`` points decide.
    """

    def __init__(
        self,
        spec: str = "",
        seed: int = 0,
        points: Optional[Dict[str, FaultPoint]] = None,
    ) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.points = dict(points) if points is not None else parse_fault_spec(spec)
        # One independent stream per point: adding or triggering one point
        # never perturbs another point's decisions.
        self._rngs = {
            name: random.Random(f"{self.seed}:{name}") for name in self.points
        }
        self._lock = threading.Lock()
        # Service-injector protocol state (request-pinned actions).
        self.by_index: Dict[int, Optional[Tuple]] = {}
        self.default: Optional[Tuple] = None
        self.log: List[Tuple] = []

    # ------------------------------------------------------------------
    # Core decision procedure
    # ------------------------------------------------------------------
    def fire(self, name: str) -> Optional[FaultPoint]:
        """Consume one opportunity at a fault point; the point if it fired.

        Unconfigured points never fire (and consume nothing), so leaving
        fault injection off costs one dict lookup per failure site.
        """
        point = self.points.get(name)
        if point is None:
            return None
        with self._lock:
            index = point.opportunities
            point.opportunities += 1
            if point.budget is not None and point.fired >= point.budget:
                return None
            if point.at is not None:
                hit = index in point.at
            else:
                hit = self._rngs[name].random() < point.probability
            if hit:
                point.fired += 1
                return point
            return None

    @property
    def total_fired(self) -> int:
        """Total faults injected across every point so far."""
        return sum(point.fired for point in self.points.values())

    def counters(self) -> Dict[str, int]:
        """Per-point fired counts (spec-named keys) plus the total."""
        summary = {
            f"fault[{name}]": point.fired for name, point in sorted(self.points.items())
        }
        summary["faults_injected"] = self.total_fired
        return summary

    # ------------------------------------------------------------------
    # Service fault-injector protocol
    # ------------------------------------------------------------------
    def at(self, index: int, action: Optional[Tuple]) -> "FaultPlan":
        """Pin a service action to one request index (chainable)."""
        self.by_index[index] = action
        return self

    def __call__(self, index: int, path: str) -> Optional[Tuple]:
        action = self.by_index.get(index, self.default)
        if action is None:
            if self.fire("service-error") is not None:
                action = ("error",)
            elif self.fire("service-drop") is not None:
                action = ("drop",)
            else:
                delayed = self.fire("service-delay")
                if delayed is not None:
                    action = ("delay", delayed.delay)
        self.log.append((index, path, action))
        return action


def crash_process() -> None:
    """SIGKILL the current process — the ``worker-crash`` action.

    SIGKILL (not ``sys.exit``) so no cleanup handlers run: the pool sees
    the same abrupt death an OOM kill or power loss produces.
    """
    os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# Process-global plan.  The CLI configures it once (``--inject-faults``);
# the executor, remote client, cache writers, and checkpoint writer consult
# it through get_fault_plan().  Decisions are made in the coordinating
# process (never inside pool workers), so respawned workers cannot re-draw a
# fresh budget and crash forever.
# ---------------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None


def configure_faults(spec: Optional[str], seed: int = 0) -> Optional[FaultPlan]:
    """Install the process-global fault plan from a spec (None/empty clears)."""
    global _PLAN
    _PLAN = FaultPlan(spec, seed=seed) if spec else None
    return _PLAN


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install an already-built plan (tests compose plans directly)."""
    global _PLAN
    _PLAN = plan


def get_fault_plan() -> Optional[FaultPlan]:
    """The process-global fault plan, or None when injection is off."""
    return _PLAN


def clear_faults() -> None:
    """Remove the process-global fault plan."""
    set_fault_plan(None)
