"""Persistent trial cache: skip re-simulating configurations already seen.

A full trial (mapper + fusion ILP across every workload) is the dominant cost
of a search, yet sweeps, repeated benchmarks, and restarted runs evaluate
many identical configurations.  :class:`TrialCache` memoizes
:class:`~repro.core.trial.TrialMetrics` keyed by a canonical hash of the
parameter assignment *and* a fingerprint of the evaluation context
(workloads, objective, constraints, simulation options, search space), so a
hit is only possible when the result would be identical.

The cache runs on the store the op and region caches share,
:class:`~repro.runtime.opcache.CostCacheBase`: a memory LRU in front of a
JSON-lines store that is streamed into a raw index on load, decoded to
metrics lazily on first hit, and appended to only for keys it has neither
read nor written.  What the trial cache adds is its own: the metrics codec,
the string keys of :meth:`TrialCache.key_for`, and writer sidecars.

Sharded sweeps write safely to one logical store by giving each concurrent
writer its own sidecar file: a cache opened with ``writer_id=k`` appends to
``<path>.shard-<k>`` while *reading* the union of the base file and every
sidecar.  Interleaved appends from different shards (or hosts sharing a
filesystem) therefore can never corrupt each other's lines.  :meth:`compact`
folds the sidecars back into the base file, keeping the last record read
for each key (evaluation is deterministic, so every record of a key is the
same), and past a size cap evicts the earliest-written records — base file
first, then sidecars in name order — so multi-shard sweeps don't grow the
store unboundedly.

Each sharded writer claims its sidecar with a ``<sidecar>.owner`` marker
(pid + host).  Compaction uses the markers to tell *live* writers from the
stale leftovers of crashed ones: sidecars with a live foreign owner are never
folded or deleted, while orphaned sidecars (dead pid, or marker removed by
:meth:`release`) are folded in rather than blocking compaction forever.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.problem import SearchProblem
from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.runtime.batching import proposal_key
from repro.runtime.faults import get_fault_plan
from repro.runtime.opcache import CompactionStats, CostCacheBase
from repro.reporting.serialization import (
    simulation_options_to_dict,
    trial_metrics_from_dict,
    trial_metrics_to_dict,
)

__all__ = ["problem_fingerprint", "TrialCache"]


#: Simulation options that only affect *how fast* a trial evaluates, never
#: what it computes (the graph-batched mapper and the caches are bit-for-bit
#: equivalent to the scalar, uncached path).  They are excluded from the
#: problem fingerprint so runs with different performance knobs share trial
#: cache entries and checkpoints.
_PERF_ONLY_SIMULATION_OPTIONS = frozenset(
    {
        "mapper_engine",
        "region_cache_enabled",
        "op_cache_enabled",
        "op_cache_path",
        "region_store_path",
    }
)


def problem_fingerprint(
    problem: SearchProblem,
    evaluator: Optional[TrialEvaluator] = None,
    space: Optional[DatapathSearchSpace] = None,
) -> str:
    """Stable hash of everything besides the parameters that shapes a trial.

    Two searches share cache entries only when this fingerprint matches:
    same workloads, objective, constraints, baseline normalization, simulator
    options (performance-only knobs excluded), core count, and search-space
    choice lists.  Simulation options are encoded by value, through
    :func:`~repro.reporting.serialization.simulation_options_to_dict`.
    """
    payload: Dict[str, object] = {
        "workloads": list(problem.workloads),
        "objective": problem.objective.value,
        "constraints": [problem.constraints.max_area_mm2, problem.constraints.max_tdp_w],
        "baseline_qps": sorted(problem.baseline_qps.items()),
    }
    if evaluator is not None:
        payload["num_cores"] = evaluator.num_cores
        payload["simulation_options"] = {
            key: value
            for key, value in simulation_options_to_dict(
                evaluator.simulation_options
            ).items()
            if key not in _PERF_ONLY_SIMULATION_OPTIONS
        }
    if space is not None:
        payload["space"] = [
            [spec.name, [getattr(choice, "value", choice) for choice in spec.choices]]
            for spec in space.specs
        ]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode())
    return digest.hexdigest()[:16]


def _pid_alive(pid: object) -> bool:
    """Whether a pid names a live process on this host."""
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError, OverflowError):
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


class TrialCache(CostCacheBase):
    """Memory LRU + JSONL store of trial metrics, with writer sidecars.

    Args:
        path: Optional JSON-lines store for persistence; created on first put.
        max_memory_entries: LRU capacity of the in-memory front.
        writer_id: Concurrent-writer tag.  When set, appends go to the
            sidecar file ``<path>.shard-<writer_id>`` instead of ``path``
            while reads cover the base file plus every sidecar.  Each
            concurrent writer (shard, host) must use a distinct id.
    """

    _PAYLOAD_FIELD = "metrics"

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 4096,
        writer_id: Optional[Union[int, str]] = None,
    ) -> None:
        self.writer_id = writer_id
        self._owner_claimed = False
        super().__init__(path, max_memory_entries)

    def _encode(self, value: TrialMetrics) -> dict:
        return trial_metrics_to_dict(value)

    def _decode(self, raw: dict) -> TrialMetrics:
        return trial_metrics_from_dict(raw)

    @staticmethod
    def digest(key: str, prefix: Optional[str] = None) -> str:
        """A trial key is SHA-256 hex already (:meth:`key_for`): its own digest."""
        return key

    def key_for(self, params: ParameterValues, fingerprint: str) -> str:
        """Cache key for a parameter assignment under an evaluation context."""
        return hashlib.sha256(f"{fingerprint}|{proposal_key(params)}".encode()).hexdigest()

    # ------------------------------------------------------------------
    @property
    def write_path(self) -> Optional[Path]:
        """File this instance appends to (sidecar when ``writer_id`` is set)."""
        if self.path is None:
            return None
        if self.writer_id is None:
            return self.path
        return self.path.with_name(f"{self.path.name}.shard-{self.writer_id}")

    def disk_files(self) -> List[Path]:
        """Base file plus every shard sidecar, in a deterministic order."""
        if self.path is None:
            return []
        files = [self.path] if self.path.exists() else []
        files.extend(
            sorted(
                file
                for file in self.path.parent.glob(f"{self.path.name}.shard-*")
                if not file.name.endswith(".owner")
            )
        )
        return files

    # ------------------------------------------------------------------
    # Sidecar ownership.  Each sharded writer claims its sidecar with a tiny
    # ``<sidecar>.owner`` marker recording its pid and host, so compaction
    # can tell a *live* concurrent writer from the stale leftovers of a
    # crashed one and fold the orphans in instead of skipping forever.
    # ------------------------------------------------------------------
    @staticmethod
    def _owner_path(sidecar: Path) -> Path:
        return sidecar.with_name(sidecar.name + ".owner")

    def _claim_sidecar(self, sidecar: Path) -> None:
        """Record this process as the sidecar's writer (once per instance)."""
        if self._owner_claimed:
            return
        try:
            sidecar.parent.mkdir(parents=True, exist_ok=True)
            self._owner_path(sidecar).write_text(
                json.dumps({"pid": os.getpid(), "host": socket.gethostname()})
            )
        except OSError:
            pass  # ownership is advisory; appends stay safe either way
        self._owner_claimed = True

    def release(self) -> None:
        """Drop this writer's sidecar ownership marker (call when done).

        A released sidecar is treated as orphaned: the next compaction, from
        any process, may fold it into the base file.  Only meaningful for
        caches opened with ``writer_id``.  Also closes the held append
        descriptor; a later put reopens it and re-claims the sidecar.
        """
        write_path = self.write_path
        if self.writer_id is not None and write_path is not None:
            self._owner_path(write_path).unlink(missing_ok=True)
        self._owner_claimed = False
        self.close()

    def _sidecar_writer_state(self, sidecar: Path) -> str:
        """Ownership state of a sidecar: ``'self'``, ``'live'``, or ``'orphaned'``.

        No owner marker (legacy file, released writer, or a writer that
        crashed before its first append) and dead-pid owners on this host
        are ``'orphaned'``.  Owners on *other* hosts cannot be probed and
        are conservatively ``'live'``.
        """
        try:
            owner = json.loads(self._owner_path(sidecar).read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return "orphaned"
        pid = owner.get("pid")
        if owner.get("host") != socket.gethostname():
            return "live"
        if pid == os.getpid():
            return "self"
        return "live" if _pid_alive(pid) else "orphaned"

    def _append(self, line: str) -> None:
        """Append to this writer's file, claiming a sidecar before its first line.

        Under a ``torn-write`` fault only a prefix of the line is written.
        """
        if self.writer_id is not None:
            self._claim_sidecar(self.write_path)
        plan = get_fault_plan()
        if plan is not None and plan.fire("torn-write") is not None:
            # Injected crash mid-append: persist only a prefix of the
            # record.  The in-memory entry is intact, so the run is
            # unaffected; the next load must quarantine this line.
            line = line[: max(1, len(line) // 2)].rstrip("\n") + "\n"
        super()._append(line)

    # ------------------------------------------------------------------
    def compact(self, max_entries: Optional[int] = None) -> CompactionStats:
        """Merge the store into one deduplicated, optionally size-capped file.

        The shard sidecars are folded into the base file by the shared
        rewrite (:meth:`~repro.runtime.opcache.CostCacheBase._rewrite`) and
        removed.  Past ``max_entries`` (default: no cap) the earliest-written
        records are evicted: base file first, then sidecars in name order.

        Sidecars owned by a *live writer in another process* are left
        untouched (not merged, not deleted) and counted in
        ``live_writers_skipped``, so compacting while a sweep is appending
        can never lose that sweep's records; their records stay readable
        through this cache's index.  Sidecars whose owner marker is missing
        or names a dead pid — the leftovers of a crashed writer — are folded
        in like the base file, as are this process's own sidecars (the
        caller owns them).
        """
        if self.path is None:
            raise ValueError("compaction requires a cache path")
        files = self.disk_files()
        sidecars = [file for file in files if file != self.path]
        skipped = [file for file in sidecars if self._sidecar_writer_state(file) == "live"]
        folded = [file for file in files if file not in skipped]
        stats = self._rewrite(folded, max_entries)
        stats.live_writers_skipped = len(skipped)
        # The rewrite closed this writer's held descriptor, so deleting its
        # own folded sidecar cannot strand later puts: the next one reopens
        # (and so recreates) the sidecar.
        for file in folded:
            if file != self.path:
                file.unlink(missing_ok=True)
                self._owner_path(file).unlink(missing_ok=True)
        # If this instance's own sidecar (and owner marker) was just folded,
        # the next append must re-claim ownership — otherwise the recreated
        # sidecar would look orphaned to other processes' compactions.
        self._owner_claimed = False
        self._disk_index.update(self._read(skipped)[0])
        return stats
