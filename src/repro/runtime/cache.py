"""Persistent trial cache: skip re-simulating configurations already seen.

A full trial (mapper + fusion ILP across every workload) is the dominant cost
of a search, yet sweeps, repeated benchmarks, and restarted runs evaluate
many identical configurations.  :class:`TrialCache` memoizes
:class:`~repro.core.trial.TrialMetrics` keyed by a canonical hash of the
parameter assignment *and* a fingerprint of the evaluation context
(workloads, objective, constraints, simulation options, search space), so a
hit is only possible when the result would be identical.

The cache is two-level: an in-memory LRU front for the current process and an
optional JSON-lines store that persists across restarts.  Disk records are
loaded as raw dicts at open time and decoded to metrics lazily on first hit;
writes are O(1) appends, last record wins on duplicate keys.

Sharded sweeps write safely to one logical store by giving each concurrent
writer its own sidecar file: a cache opened with ``writer_id=k`` appends to
``<path>.shard-<k>`` while *reading* the union of the base file and every
sidecar.  Interleaved appends from different shards (or hosts sharing a
filesystem) therefore can never corrupt each other's lines.  :meth:`compact`
folds the sidecars back into the base file, drops duplicate keys (keeping the
best record per key), and evicts the least-recently-written records beyond a
size cap so multi-shard sweeps don't grow the store unboundedly.

Each sharded writer claims its sidecar with a ``<sidecar>.owner`` marker
(pid + host).  Compaction — explicit or automatic — uses the markers to
tell *live* writers from the stale leftovers of crashed ones: sidecars with
a live foreign owner are never folded or deleted, while orphaned sidecars
(dead pid, or marker removed by :meth:`release`) are folded in rather than
blocking compaction forever.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.problem import SearchProblem
from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.runtime.faults import get_fault_plan
from repro.reporting.serialization import (
    params_to_jsonable,
    simulation_options_to_dict,
    trial_metrics_from_dict,
    trial_metrics_to_dict,
)

__all__ = [
    "problem_fingerprint",
    "CacheStats",
    "CompactionStats",
    "TrialCache",
    "compact_cache",
]


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


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance.

    ``corrupt_records`` counts torn/undecodable JSONL lines quarantined
    (skipped, then dropped by the next compaction) while loading the store —
    the tail a crash mid-append leaves behind.  ``stale_tmp_swept`` counts
    leftover ``.tmp`` files from crashed compactions removed on load.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    disk_entries_loaded: int = 0
    auto_compactions: int = 0
    corrupt_records: int = 0
    stale_tmp_swept: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CompactionStats:
    """Outcome of one :meth:`TrialCache.compact` pass."""

    kept: int = 0
    duplicates_dropped: int = 0
    evicted: int = 0
    files_merged: int = 0
    live_writers_skipped: int = 0


def _pid_alive(pid: object) -> bool:
    """Whether a pid names a live process on this host."""
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError, OverflowError):
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def _record_rank(metrics: dict) -> tuple:
    """Orderable quality of a disk record (feasible beats infeasible, then score)."""
    try:
        score = float(metrics.get("aggregate_score", 0.0))
    except (TypeError, ValueError):
        score = 0.0
    if score != score:  # NaN
        score = float("-inf")
    return (1 if metrics.get("feasible") else 0, score)


class TrialCache:
    """Two-level (memory LRU + JSONL store) cache of trial metrics.

    Args:
        path: Optional JSON-lines store for persistence; created on first put.
        max_memory_entries: LRU capacity of the in-memory front.
        writer_id: Concurrent-writer tag.  When set, appends go to the
            sidecar file ``<path>.shard-<writer_id>`` instead of ``path``
            while reads cover the base file plus every sidecar.  Each
            concurrent writer (shard, host) must use a distinct id.
        max_disk_entries: Default size cap applied by :meth:`compact`.  When
            set, the cache also *auto-compacts*: once the store grows a
            slack margin (a quarter of the cap, at least 16 records) past
            the cap, :meth:`put` triggers a compaction down to the cap.
            Auto-compaction only fires for exclusive writers — it is skipped
            when ``writer_id`` is set or shard sidecar files exist, because
            compaction deletes sidecars that live shards may still append to.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 4096,
        writer_id: Optional[Union[int, str]] = None,
        max_disk_entries: Optional[int] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_memory_entries = max(1, int(max_memory_entries))
        self.writer_id = writer_id
        self.max_disk_entries = max_disk_entries
        self.stats = CacheStats()
        self._owner_claimed = False
        self._memory: "OrderedDict[str, TrialMetrics]" = OrderedDict()
        self._disk_index: Dict[str, dict] = {}
        # Approximate on-disk record count (deduplicated at load, then +1 per
        # append) driving the auto-compaction trigger.
        self._approx_disk_records = 0
        if self.path is not None:
            self._load_disk_index()
            self._approx_disk_records = len(self._disk_index)

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
            self._owner_path(sidecar).write_text(
                json.dumps({"pid": os.getpid(), "host": socket.gethostname()})
            )
        except OSError:
            pass  # ownership is advisory; appends stay safe either way
        self._owner_claimed = True

    def release(self) -> None:
        """Drop this writer's sidecar ownership marker (call when done).

        A released sidecar is treated as orphaned: the next compaction —
        automatic or explicit, from any process — may fold it into the base
        file.  Only meaningful for caches opened with ``writer_id``.
        """
        write_path = self.write_path
        if self.writer_id is not None and write_path is not None:
            self._owner_path(write_path).unlink(missing_ok=True)
        self._owner_claimed = False

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

    def _sweep_stale_tmp(self) -> None:
        """Remove a leftover compaction temp file from a crashed writer.

        The ``<name>.tmp`` file only exists inside :meth:`compact`'s
        write-then-rename window; finding one at load time means a previous
        compaction died mid-write and its content is garbage (the base file
        it was about to replace is intact).
        """
        if self.path is None:
            return
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        try:
            if tmp_path.exists():
                tmp_path.unlink()
                self.stats.stale_tmp_swept += 1
        except OSError:
            pass  # sweeping is best effort; a stale tmp is inert

    def _load_disk_index(self) -> None:
        self._sweep_stale_tmp()
        for file in self.disk_files():
            for line in file.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self._disk_index[record["key"]] = record["metrics"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # Quarantine the torn line a killed run left behind:
                    # count it, keep loading, let compaction drop it.
                    self.stats.corrupt_records += 1
                    continue
        self.stats.disk_entries_loaded = len(self._disk_index)

    # ------------------------------------------------------------------
    def key_for(self, params: ParameterValues, fingerprint: str) -> str:
        """Cache key for a parameter assignment under an evaluation context."""
        canonical = json.dumps(params_to_jsonable(params), sort_keys=True)
        return hashlib.sha256(f"{fingerprint}|{canonical}".encode()).hexdigest()

    def get(self, key: str) -> Optional[TrialMetrics]:
        """Look up cached metrics; returns None on a miss."""
        metrics = self._memory.get(key)
        if metrics is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return metrics
        raw = self._disk_index.get(key)
        if raw is not None:
            metrics = trial_metrics_from_dict(raw)
            self._remember(key, metrics)
            self.stats.hits += 1
            return metrics
        self.stats.misses += 1
        return None

    def put(self, key: str, metrics: TrialMetrics) -> None:
        """Store metrics in memory and (when configured) append to disk."""
        self._remember(key, metrics)
        self.stats.puts += 1
        write_path = self.write_path
        if write_path is not None:
            record = {
                "key": key,
                "ts": time.time(),
                "metrics": trial_metrics_to_dict(metrics),
            }
            write_path.parent.mkdir(parents=True, exist_ok=True)
            if self.writer_id is not None:
                self._claim_sidecar(write_path)
            line = json.dumps(record) + "\n"
            plan = get_fault_plan()
            if plan is not None and plan.fire("torn-write") is not None:
                # Injected crash mid-append: persist only a prefix of the
                # record.  The in-memory entry above is intact, so the run
                # is unaffected; the next load must quarantine this line.
                line = line[: max(1, len(line) // 2)].rstrip("\n") + "\n"
            # One write call per record: a line can never be split across
            # appends, so a reader (or a later compaction) sees whole lines.
            with write_path.open("a") as handle:
                handle.write(line)
            self._approx_disk_records += 1
            self._maybe_auto_compact()

    def _maybe_auto_compact(self) -> None:
        """Compact once the store overshoots ``max_disk_entries`` by a slack.

        The slack (a quarter of the cap, at least 16 records) keeps the
        amortized cost low: each O(store) compaction pays for many O(1)
        appends.  Skipped for sharded writers and whenever a sidecar with a
        live (or same-process) writer exists; sidecars orphaned by crashed
        or released writers do *not* block compaction — they are folded in
        along with the base file (see the class docstring).
        """
        if self.max_disk_entries is None or self.writer_id is not None:
            return
        slack = max(16, int(self.max_disk_entries) // 4)
        if self._approx_disk_records <= int(self.max_disk_entries) + slack:
            return
        for file in self.disk_files():
            if file != self.path and self._sidecar_writer_state(file) != "orphaned":
                return  # a live writer (any process, incl. ours) may append
        self.compact(self.max_disk_entries)
        self.stats.auto_compactions += 1

    def _remember(self, key: str, metrics: TrialMetrics) -> None:
        self._memory[key] = metrics
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def compact(self, max_entries: Optional[int] = None) -> CompactionStats:
        """Merge the store into one deduplicated, optionally size-capped file.

        All shard sidecars are folded into the base file and removed.  For
        each key the *best* record survives (feasible beats infeasible, then
        higher aggregate score, then the later write).  When the survivor
        count exceeds ``max_entries`` (default: ``max_disk_entries``), the
        least-recently-written records are evicted first — recency comes
        from each record's ``ts`` stamp, falling back to the mtime of the
        file it was read from.  The rewrite is atomic (temp file + rename).

        Sidecars owned by a *live writer in another process* are left
        untouched (not merged, not deleted) and counted in
        ``live_writers_skipped``, so compacting while a sweep is appending
        can no longer lose that sweep's records.  Sidecars whose owner
        marker is missing or names a dead pid — the leftovers of a crashed
        writer — are folded in like the base file, as are this process's own
        sidecars (the caller owns them).
        """
        if self.path is None:
            raise ValueError("compaction requires a cache path")
        if max_entries is None:
            max_entries = self.max_disk_entries

        files = []
        live_skipped = 0
        for file in self.disk_files():
            if file != self.path and self._sidecar_writer_state(file) == "live":
                live_skipped += 1
                continue
            files.append(file)
        stats = CompactionStats(files_merged=len(files), live_writers_skipped=live_skipped)
        survivors: Dict[str, list] = {}  # key -> [record, ts, order]
        order = 0
        for file in files:
            try:
                file_mtime = file.stat().st_mtime
            except OSError:
                file_mtime = 0.0
            for line in file.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    metrics = record["metrics"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    self.stats.corrupt_records += 1
                    continue  # torn record: quarantined out of the rewrite
                ts = float(record.get("ts", file_mtime) or file_mtime)
                incumbent = survivors.get(key)
                if incumbent is None:
                    survivors[key] = [record, ts, order]
                else:
                    stats.duplicates_dropped += 1
                    if _record_rank(metrics) >= _record_rank(incumbent[0]["metrics"]):
                        incumbent[0] = record
                    # A duplicate write is a *use* of the key: bump recency
                    # so hot entries survive eviction (LRU semantics).
                    incumbent[1] = max(incumbent[1], ts)
                    incumbent[2] = order
                order += 1

        kept = list(survivors.values())
        if max_entries is not None and len(kept) > max_entries:
            kept.sort(key=lambda item: (item[1], item[2]))  # oldest first
            stats.evicted = len(kept) - int(max_entries)
            kept = kept[stats.evicted :]
        else:
            kept.sort(key=lambda item: item[2])

        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        with tmp_path.open("w") as handle:
            for record, ts, _ in kept:
                record.setdefault("ts", ts)
                handle.write(json.dumps(record) + "\n")
            # Durable before the rename: the replace must never promote a
            # temp file whose data could still be lost to power failure.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        for file in files:
            if file != self.path:
                file.unlink(missing_ok=True)
                self._owner_path(file).unlink(missing_ok=True)
        # If this instance's own sidecar (and owner marker) was just folded,
        # the next append must re-claim ownership — otherwise the recreated
        # sidecar would look orphaned to other processes' compactions.
        self._owner_claimed = False

        self._disk_index = {}
        self._load_disk_index()
        self._approx_disk_records = len(self._disk_index)
        stats.kept = len(kept)
        return stats

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory.keys() | self._disk_index.keys())

    def __contains__(self, key: str) -> bool:
        return key in self._memory or key in self._disk_index


def compact_cache(
    path: Union[str, Path], max_entries: Optional[int] = None
) -> CompactionStats:
    """Compact a cache store on disk (see :meth:`TrialCache.compact`)."""
    return TrialCache(path).compact(max_entries)
