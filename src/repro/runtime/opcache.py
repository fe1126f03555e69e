"""Cross-trial memoization of mapping costs, and the store every cache shares.

The mapping engine's one memo of mapped costs: an :class:`OpCostCache` is
shared by every :class:`~repro.mapping.mapper.Mapper` (one per trial) in a
process, across trials (and, when persistent, across processes and
restarts), and keyed by the pair

``(mapping-relevant datapath sub-config, op shape fingerprint)``

so neighboring design points that agree on the mapping-relevant slice of the
configuration — no matter how their fusion, memory, or batch parameters
differ — reuse each other's mapped op costs instead of re-running the
candidate sweep.  Vector-op costs are cached the same way under a
``(graph fingerprint, op, VPU lanes, softmax factors)`` key built by
:func:`repro.simulator.vector_ops.vector_cost_cache_key`.  One level up,
:class:`RegionCostCache` memoizes whole fusion-region evaluations.

:class:`CostCacheBase` is the one store behind the op store
(``--op-cache``), the region store (``--engine region_store=PATH``) and the
trial cache (:class:`~repro.runtime.cache.TrialCache`): an in-process memory
LRU in front of an optional append-only JSONL store, indexed by key digest.
Records are appended through one method, each as a single ``os.write`` on
a descriptor the store holds open (:class:`AppendFile`), so concurrent
appends from multiple processes sharing a path never interleave partial
lines on POSIX filesystems, and torn tails left by crashes are quarantined
(``corrupt_records``) rather than trusted.  Hosts share regions by sharing a
store, or by evaluating on one ``repro serve`` that keeps it.

Op and region stores write format 2: each line is ``{"key": <digest>,
"cost"|"entry": <row>}``, the row a positional JSON array.  An op row is an
:class:`OpCost`'s 13 fields in order, enums by value and the tiling as
``[m, n, k]``.  A region row is ``[]`` for a schedule failure, else 24
fields: the record's, then the stats' after the ``index`` and ``name`` both
share; ``op_busy_cycles`` is its list of values when its keys are
``op_names`` in order, as every simulated region's are.  The payload's JSON
type names its format, so format-1 lines (an object payload) are still read
and served, and never rewritten; programs from before format 2 cannot read
its rows.  The store's index holds only what a load or a compaction read
from disk; a put remembers the digest of each line it appends, not the row.
So a cache whose store started empty never probes its index, a miss never
hashes its key, and each new entry's one digest is the one its line needs.

A store entry decodes bit-identical to the value that was put (JSON float
encoding round-trips exactly), so whether an entry came from memory or disk
can never change a search history — only how fast it arrives.  Cost caches
are process-local singletons: :func:`caches_for` picks the ones an
evaluator's simulation options name, through :func:`get_op_cache` /
:func:`get_region_cache`; the evaluator ships only the cache *settings*,
never the cache.  Worker processes of a
:class:`~repro.runtime.executor.ParallelExecutor` inherit the parent's warm
instances through fork (the registries below keep their entries across a
PID change), exactly like the per-process workload-graph cache.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Type, Union

from repro.fusion.fast_fusion import RegionStats
from repro.mapping.costmodel import OpCost
from repro.mapping.dataflow import Dataflow
from repro.mapping.tiling import Tiling
from repro.simulator.result import RegionPerformance
from repro.workloads.ops import OpType

__all__ = [
    "AppendFile",
    "CompactionStats",
    "CostCacheBase",
    "CostCacheStats",
    "OpCostCache",
    "RegionCostCache",
    "caches_for",
    "get_op_cache",
    "get_region_cache",
    "reset_op_caches",
    "reset_region_caches",
    "opcost_to_row",
    "opcost_from_row",
    "opcost_from_dict",
    "region_entry_to_row",
    "region_entry_from_row",
    "region_entry_from_dict",
]


@dataclass
class CostCacheStats:
    """Hit/miss counters for one cache (op, region or trial).

    ``hits`` counts every lookup served from memory or the store;
    ``disk_hits`` breaks out the subset served from the store's index (a
    pure memory-LRU hit is ``hits`` minus ``disk_hits``).
    ``corrupt_records`` counts JSONL lines quarantined each time the store
    is read (on load and by compaction): the torn tail a crash mid-append
    leaves, or a record of another store kind; and index entries that fail
    to decode when first looked up;
    ``stale_tmp_swept`` counts leftover compaction temp files removed.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    disk_hits: int = 0
    disk_entries_loaded: int = 0
    corrupt_records: int = 0
    stale_tmp_swept: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class CompactionStats:
    """Outcome of one compaction pass (:meth:`CostCacheBase.compact`)."""

    kept: int = 0
    duplicates_dropped: int = 0
    evicted: int = 0
    files_merged: int = 0
    live_writers_skipped: int = 0


# ---------------------------------------------------------------------------
# Payload codecs.  JSON floats round-trip exactly (repr-based shortest float
# encoding), which is what keeps the persistent stores bit-for-bit neutral
# to search histories.  Format-2 rows decode positionally with JSON's own
# types, so a decoded row equals what was put, field types included.
# ---------------------------------------------------------------------------
#: What the codecs raise on a payload they cannot decode.
_CODEC_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)

#: ``json.dumps(value, sort_keys=True, default=str)``, the canonical JSON a
#: key digest hashes, without building an encoder per call.
_canonical_json = json.JSONEncoder(sort_keys=True, default=str).encode

#: ``json.dumps(row)`` for the payload of a store line, without the wrapper
#: that checks ``json.dumps``'s keyword arguments on every call.
_encode_row = json.JSONEncoder().encode

#: Op types by wire value: a dict lookup instead of an Enum call, on the
#: decode path of every first-touch cache hit.
_OP_TYPES = {op_type.value: op_type for op_type in OpType}


def opcost_to_row(cost: OpCost) -> tuple:
    """Format-2 row of an :class:`OpCost`: its 13 fields in order, enums by value."""
    tiling = cost.tiling
    return (
        cost.op_name, cost.op_type.value, cost.flops, cost.padded_flops,
        cost.compute_cycles, cost.vector_cycles, cost.dram_input_bytes,
        cost.dram_weight_bytes, cost.dram_output_bytes, cost.utilization,
        cost.dataflow.value if cost.dataflow is not None else None,
        (tiling.m_tile, tiling.n_tile, tiling.k_tile) if tiling is not None else None,
        cost.schedule_failed,
    )


def opcost_from_row(row) -> OpCost:
    """Inverse of :func:`opcost_to_row`, for a row as put or as loaded."""
    (name, op_type, flops, padded_flops, compute, vector, dram_in, dram_weight, dram_out,
     utilization, dataflow, tiling, failed) = row
    return OpCost(
        name, _OP_TYPES[op_type], flops, padded_flops, compute, vector, dram_in,
        dram_weight, dram_out, utilization,
        Dataflow(dataflow) if dataflow is not None else None,
        Tiling(*tiling) if tiling is not None else None, failed,
    )


def opcost_from_dict(data: Dict[str, object]) -> OpCost:
    """Decode a format-1 op payload: a dict of :class:`OpCost` fields."""
    tiling = data.get("tiling")
    dataflow = data.get("dataflow")
    return OpCost(
        op_name=str(data["op_name"]),
        op_type=OpType(data["op_type"]),
        flops=int(data["flops"]),
        padded_flops=int(data["padded_flops"]),
        compute_cycles=float(data["compute_cycles"]),
        vector_cycles=float(data["vector_cycles"]),
        dram_input_bytes=float(data["dram_input_bytes"]),
        dram_weight_bytes=float(data["dram_weight_bytes"]),
        dram_output_bytes=float(data["dram_output_bytes"]),
        utilization=float(data["utilization"]),
        dataflow=Dataflow(dataflow) if dataflow is not None else None,
        tiling=Tiling(*tiling) if tiling is not None else None,
        schedule_failed=bool(data["schedule_failed"]),
    )


def region_entry_to_row(entry: tuple) -> tuple:
    """Format-2 row of a cached region entry: ``()`` for the ``(None,)`` sentinel.

    Otherwise the record's fields, ``op_busy_cycles`` as its values when its
    keys are ``op_names`` in order (else as the dict), then the stats' fields
    after the ``index`` and ``name`` it shares with the record (``ValueError``
    if they differ).
    """
    if entry[0] is None:
        return ()
    record, stats = entry
    if stats.index != record.index or stats.name != record.name:
        raise ValueError(f"region stats {stats.name!r} do not match record {record.name!r}")
    op_names = tuple(record.op_names)
    busy = record.op_busy_cycles
    return (
        record.index, record.name, op_names, record.primary_op_type.value,
        record.flops, record.compute_cycles, record.vector_cycles,
        record.dram_input_bytes, record.dram_weight_bytes, record.dram_output_bytes,
        record.pre_fusion_cycles, record.matrix_utilization,
        tuple(busy.values()) if tuple(busy) == op_names else dict(busy),
        stats.busy_cycles, stats.t_max_cycles, stats.input_dram_cycles,
        stats.weight_dram_cycles, stats.output_dram_cycles, stats.input_bytes,
        stats.weight_bytes, stats.output_bytes, stats.blocking_gm_bytes,
        stats.predecessor, stats.is_graph_output,
    )


def region_entry_from_row(row) -> tuple:
    """Inverse of :func:`region_entry_to_row`, for a row as put or as loaded."""
    if row in ((), []):
        return (None,)
    (index, name, op_names, op_type, flops, compute, vector, dram_in, dram_weight,
     dram_out, pre_fusion, utilization, busy, busy_cycles, t_max, in_cycles,
     weight_cycles, out_cycles, in_bytes, weight_bytes, out_bytes, blocking_gm,
     predecessor, is_graph_output) = row
    op_names = list(op_names)
    busy = dict(busy) if isinstance(busy, dict) else dict(zip(op_names, busy, strict=True))
    return (
        RegionPerformance(index, name, op_names, _OP_TYPES[op_type], flops, compute,
                          vector, dram_in, dram_weight, dram_out, pre_fusion,
                          utilization, busy),
        RegionStats(index, name, busy_cycles, t_max, in_cycles, weight_cycles,
                    out_cycles, in_bytes, weight_bytes, out_bytes, blocking_gm,
                    predecessor, is_graph_output),
    )


def region_entry_from_dict(data: Dict[str, object]) -> tuple:
    """Decode a format-1 region payload: ``{"failed": true}`` or a record and stats dict.

    Raises ``KeyError``, ``TypeError``, ``ValueError``, ``AttributeError`` or
    ``OverflowError`` on a payload that is not a region entry.
    """
    if data.get("failed"):
        return (None,)
    record = data["record"]
    stats = data["stats"]
    predecessor = stats.get("predecessor")
    float(record["post_fusion_cycles"])  # readers of the older format require it
    return (
        RegionPerformance(
            index=int(record["index"]),
            name=str(record["name"]),
            op_names=[str(name) for name in record["op_names"]],
            primary_op_type=_OP_TYPES[record["primary_op_type"]],
            flops=int(record["flops"]),
            compute_cycles=float(record["compute_cycles"]),
            vector_cycles=float(record["vector_cycles"]),
            dram_input_bytes=float(record["dram_input_bytes"]),
            dram_weight_bytes=float(record["dram_weight_bytes"]),
            dram_output_bytes=float(record["dram_output_bytes"]),
            pre_fusion_cycles=float(record["pre_fusion_cycles"]),
            matrix_utilization=float(record["matrix_utilization"]),
            op_busy_cycles={
                str(name): float(value)
                for name, value in record["op_busy_cycles"].items()
            },
        ),
        RegionStats(
            index=int(stats["index"]),
            name=str(stats["name"]),
            busy_cycles=float(stats["busy_cycles"]),
            t_max_cycles=float(stats["t_max_cycles"]),
            input_dram_cycles=float(stats["input_dram_cycles"]),
            weight_dram_cycles=float(stats["weight_dram_cycles"]),
            output_dram_cycles=float(stats["output_dram_cycles"]),
            input_bytes=int(stats["input_bytes"]),
            weight_bytes=int(stats["weight_bytes"]),
            output_bytes=int(stats["output_bytes"]),
            blocking_gm_bytes=int(stats["blocking_gm_bytes"]),
            predecessor=int(predecessor) if predecessor is not None else None,
            is_graph_output=bool(stats["is_graph_output"]),
        ),
    )


class AppendFile:
    """One process's held-open append descriptor on a file.

    The descriptor (``O_WRONLY | O_APPEND | O_CREAT``) is opened on the first
    write and reopened after a PID change: a forked child opens its own and
    never writes through, or closes, the one it inherited.  Each record goes
    out as one ``os.write``, looping only on a short write, so appends from
    processes sharing the file never interleave partial lines and no bytes
    sit in a user-space buffer for a fork to duplicate.  Whoever replaces or
    deletes the file must :meth:`close` the descriptor, or later records
    land in the unlinked file.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fd: Optional[int] = None
        self._pid: Optional[int] = None  # the process that opened _fd

    def write(self, data: bytes) -> None:
        """Append ``data`` to the file."""
        if self._pid != os.getpid():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            self._pid = os.getpid()
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view) :]

    def fsync(self) -> None:
        """Make what was written durable (call after :meth:`write`)."""
        os.fsync(self._fd)

    def close(self) -> None:
        """Close this process's descriptor, if open; the next write reopens."""
        fd, pid = self._fd, self._pid
        self._fd = self._pid = None
        if pid == os.getpid():
            os.close(fd)

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # best effort, e.g. at interpreter shutdown


# ---------------------------------------------------------------------------
# The shared store base.  Everything path-related — digest index, streamed
# load, torn-tail quarantine, stale-tmp sweep, single-write appends, atomic
# compaction — lives here once; OpCostCache, RegionCostCache and TrialCache
# differ in their payload codec, and the trial cache adds writer sidecars.
# ---------------------------------------------------------------------------
class CostCacheBase:
    """Cache: memory LRU + an optional JSONL store and its digest index.

    Keys are hashable tuples built by the mapper / simulator; the store
    (and the raw index loaded from it) keys them by a SHA-256 digest of
    their canonical JSON form, so any process that derives the same key
    reads the same record.  Subclasses set :attr:`_PAYLOAD_FIELD` and the
    ``_encode``/``_decode`` codec; ``_decode`` takes a payload as a load
    parsed it, of any store format still read.  An index entry that fails
    to decode is quarantined when first touched.

    The raw index holds what a store load or a compaction read from disk,
    never this process's own puts: a put records the digest it appended in
    a set of written digests instead.  So an own entry that the memory LRU
    evicted is recomputed on its next lookup, not decoded from the store.

    Appends go through a descriptor the store holds open from its first put
    (:class:`AppendFile`) until :meth:`close`, which compaction calls after
    its rename.  So while this process appends, another process compacting
    the same file (whose rename replaces it) loses every later append of
    this one, not only those racing the rename.  Sharded sweeps are safe:
    each writer appends to its own sidecar, and compaction skips a sidecar
    whose writer is live.

    Args:
        path: Optional JSON-lines store; loaded on construction when it
            exists, created on first put.
        max_memory_entries: LRU capacity of the in-memory front.
    """

    _PAYLOAD_FIELD = "cost"

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 65536,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_memory_entries = max(1, int(max_memory_entries))
        self.stats = CostCacheStats()
        self._memory: "OrderedDict[Tuple, object]" = OrderedDict()
        # digest -> payload as a load or a compaction parsed it (frozen by
        # the load).  Empty until something is read from disk, so a cache
        # whose store started empty is bounded by its LRU, and its lookups
        # never hash a key.
        self._disk_index: Dict[str, object] = {}
        # Digests of the lines this process appended since the store was
        # last read, so a put never appends a key twice.
        self._written: Set[str] = set()
        self._appender = AppendFile(self.write_path) if self.path is not None else None
        if self.path is not None:
            self._load_disk_index()

    # -- codec hooks ---------------------------------------------------
    def _encode(self, value):
        raise NotImplementedError

    def _decode(self, raw):
        raise NotImplementedError

    # -- persistence ---------------------------------------------------
    @property
    def write_path(self) -> Optional[Path]:
        """File this cache appends to."""
        return self.path

    def disk_files(self) -> List[Path]:
        """The store's files, in load order: its path, once it exists."""
        if self.path is None or not self.path.exists():
            return []
        return [self.path]

    def _sweep_stale_tmp(self) -> None:
        """Remove a leftover ``.tmp`` from a compaction that crashed mid-write."""
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        try:
            if tmp_path.exists():
                tmp_path.unlink()
                self.stats.stale_tmp_swept += 1
        except OSError:
            pass  # best effort; a stale tmp is inert

    def _read(self, files: Iterable[Path]) -> Tuple[Dict[str, dict], int, int]:
        """Stream store files line by line into a ``{digest: payload}`` index.

        The last record read for a key wins, at the key's first position.
        Returns the index, the records read, and how many lines were whole
        records of another store kind (a ``"key"`` but no
        :attr:`_PAYLOAD_FIELD`).  Those and torn lines are quarantined:
        counted in ``stats.corrupt_records`` and skipped.
        """
        index: Dict[str, dict] = {}
        records = foreign = 0
        payload = self._PAYLOAD_FIELD
        for file in files:
            with file.open("r") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    record = None
                    try:
                        record = json.loads(line)
                        index[record["key"]] = record[payload]
                        records += 1
                    except (json.JSONDecodeError, KeyError, TypeError):
                        self.stats.corrupt_records += 1
                        if isinstance(record, dict) and "key" in record:
                            foreign += 1
        return index, records, foreign

    def _load_disk_index(self) -> None:
        """Read the store into the index with the cyclic collector paused.

        A read builds several tracked objects per record, all of which live
        as long as the cache, so collector passes during it are wasted.
        Afterwards the heap is frozen (``gc.freeze``): later passes skip it,
        and pool workers forked from this process inherit it frozen.  The
        collector's state is left as the caller had it.
        """
        self._sweep_stale_tmp()
        files = self.disk_files()
        pause = bool(files) and gc.isenabled()
        if pause:
            gc.collect()  # so nothing unreachable is frozen
            gc.disable()
        try:
            self._disk_index = self._read(files)[0]
        finally:
            if pause:
                gc.freeze()
                gc.enable()
        self.stats.disk_entries_loaded = len(self._disk_index)

    def _append(self, line: str) -> None:
        """Append one record line: the one place a store is written.  One
        ``os.write`` per record, so concurrent appends never split a line."""
        self._appender.write(line.encode())

    def close(self) -> None:
        """Close the held append descriptor; the next put reopens the file."""
        if self._appender is not None:
            self._appender.close()

    def _rewrite(
        self, files: List[Path], max_entries: Optional[int] = None
    ) -> CompactionStats:
        """Fold ``files`` into the store's path: one streamed, atomic rewrite.

        Keeps :meth:`_read`'s index, minus the earliest-written records past
        ``max_entries``, and drops torn lines.  Records of another store
        kind raise ``ValueError`` before anything is written, so a mistyped
        path is refused, not emptied.  The kept records become the index and
        the written digests are forgotten, so a put appends an evicted key
        again.
        """
        index, records, foreign = self._read(files)
        if foreign:
            raise ValueError(
                f"{self.path} holds {foreign} records without a "
                f"{self._PAYLOAD_FIELD!r} field: it is another kind of store; "
                "refusing to compact it"
            )
        stats = CompactionStats(
            files_merged=len(files), duplicates_dropped=records - len(index)
        )
        if max_entries is not None and len(index) > max_entries:
            stats.evicted = len(index) - max(0, int(max_entries))
            index = dict(list(index.items())[stats.evicted :])
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        payload = self._PAYLOAD_FIELD
        with tmp_path.open("w") as handle:
            for digest, raw in index.items():
                handle.write(json.dumps({"key": digest, payload: raw}) + "\n")
            # Durable before the rename, so the promoted file can never
            # lose its data to a power failure after the replace.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self.close()  # the held descriptor points at the replaced file
        self._disk_index = index
        self._written.clear()
        stats.kept = len(index)
        return stats

    @staticmethod
    def digest(key: Tuple, prefix: Optional[str] = None) -> str:
        """Stable string form of a cache key (for the persistent store).

        The definition is the SHA-256 of the key's canonical JSON.  Keys
        that extend a common base by one element (``key_base + (last,)``,
        as the simulator builds region keys and the mapper op keys) may
        pass ``prefix`` = :meth:`key_prefix` of that base: their canonical
        JSON is the prefix's array with one more element, so only that
        element is encoded and the digest is byte-for-byte the same.
        """
        if prefix is None:
            canonical = _canonical_json(key)
        else:
            last = key[-1]
            last = str(last) if type(last) is int else _canonical_json(last)
            canonical = prefix[:-1] + ", " + last + "]"
        return hashlib.sha256(canonical.encode()).hexdigest()

    @staticmethod
    def key_prefix(key_base: Tuple) -> str:
        """Canonical JSON of a non-empty key base (the ``prefix`` of :meth:`digest`)."""
        return _canonical_json(key_base)

    # -- lookup / store ------------------------------------------------
    def get(self, key: Tuple, prefix: Optional[str] = None):
        """Look up a cached value; returns None on a miss.

        A memory miss consults the store's index only when a load or a
        compaction filled it, so a cache whose store started empty never
        hashes a key here.  ``prefix`` (see :meth:`digest`) makes the key's
        digest cheap when the index is consulted.  Values are returned as
        stored, not copied.
        """
        value = self._memory.get(key)
        if value is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return value
        if self._disk_index:
            value = self._from_disk(key, prefix)
            if value is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return None

    def _from_disk(self, key: Tuple, prefix: Optional[str]):
        """Decode the index entry of ``key`` into memory; None when it has none.

        The index holds entries read from disk only.  An entry that fails to
        decode is quarantined: dropped from the index and counted in
        ``stats.corrupt_records``, so the lookup is a miss and the put that
        follows appends a good record.
        """
        digest = self.digest(key, prefix)
        raw = self._disk_index.get(digest)
        if raw is None:
            return None
        try:
            value = self._decode(raw)
        except _CODEC_ERRORS:
            del self._disk_index[digest]
            self.stats.corrupt_records += 1
            return None
        self._remember(key, value)
        return value

    def put(self, key: Tuple, value, prefix: Optional[str] = None) -> None:
        """Store a value in memory and (when configured) append to disk.

        Cached values are a deterministic function of their key, so a key
        this process read from the store or already appended is never
        re-appended — the store only grows by records this process has not
        seen, keeping it duplicate-free for a single writer (concurrent
        processes can still race the same key; :meth:`compact` folds such
        duplicates away).  The key is hashed once, for its line, which is
        ``json.dumps({"key": digest, field: row}) + "\\n"`` byte for byte (a
        digest and a payload field need no escaping); the cache remembers
        the digest, not the row.  The value is kept in memory as is, not
        copied; ``prefix`` is as for :meth:`get`.
        """
        self._remember(key, value)
        self.stats.puts += 1
        if self.path is None:
            return
        digest = self.digest(key, prefix)
        if digest in self._written or digest in self._disk_index:
            return
        row = _encode_row(self._encode(value))
        self._append(f'{{"key": "{digest}", "{self._PAYLOAD_FIELD}": {row}}}\n')
        self._written.add(digest)

    def compact(self) -> CompactionStats:
        """Rewrite the store with one record per key (see :meth:`_rewrite`).

        Run it only while no other process is appending to the store: the
        rename replaces the file that process holds open, so every append
        it makes afterwards is lost, not only those racing the rename.
        This cache's own descriptor is closed and reopened on the next put.
        """
        if self.path is None:
            raise ValueError("compaction requires a cache path")
        return self._rewrite(self.disk_files())

    def _remember(self, key: Tuple, value) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory) if not self._disk_index else len(
            {self.digest(k) for k in self._memory} | set(self._disk_index)
        )

    def __contains__(self, key) -> bool:
        return key in self._memory or self.digest(key) in self._disk_index

    def snapshot_counters(self) -> Tuple[int, int]:
        """(hits, misses) counters, for delta accounting across a run."""
        return self.stats.hits, self.stats.misses


class OpCostCache(CostCacheBase):
    """Cache of per-op mapping / vector costs (see module docstring)."""

    _PAYLOAD_FIELD = "cost"

    def _encode(self, value: OpCost) -> tuple:
        return opcost_to_row(value)

    def _decode(self, raw) -> OpCost:
        return opcost_from_dict(raw) if isinstance(raw, dict) else opcost_from_row(raw)


# ---------------------------------------------------------------------------
# Region-level result cache.  One level above the op cache: the simulator
# memoizes whole fusion-region evaluations — (RegionPerformance, RegionStats)
# pairs — keyed by (graph fingerprint, region index, mapping-relevant
# datapath sub-config).  A warm trial whose region key matches skips even the
# gather step of the graph-batched mapper: no problem extraction, no op-cache
# lookups, no traffic sweep.  The cache stores opaque entries; the simulator
# owns the key construction.  Entries are shared, never copied: a hit hands
# the cached record and stats to the live simulation result itself, for the
# region and for each of its twins, which is exact because neither is
# modified after it is built (fusion outcomes live on the SimulationResult,
# and a twin's identity on its region plan, not on the records).
# ---------------------------------------------------------------------------
class RegionCostCache(CostCacheBase):
    """Cache of fully evaluated fusion regions.

    Persists to the region store (``--engine region_store=PATH``) with the
    same JSONL machinery as the op store.  The simulator looks up and puts
    first-of-shape regions only, so a store holds no twin entries; a store
    that does, written before twins, still loads and serves the rest.

    Args:
        path: Optional JSON-lines region store; created on first put.
        max_entries: Memory-LRU capacity; least-recently-used regions are
            evicted once the cache grows past it (entries read from the
            store remain reachable through the raw index; an evicted entry
            this process put is recomputed).
    """

    _PAYLOAD_FIELD = "entry"

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_entries: int = 16384,
    ) -> None:
        super().__init__(path=path, max_memory_entries=max_entries)

    def _encode(self, value: tuple) -> tuple:
        return region_entry_to_row(value)

    def _decode(self, raw) -> tuple:
        return region_entry_from_dict(raw) if isinstance(raw, dict) else region_entry_from_row(raw)

    # ------------------------------------------------------------------
    def peek(self, key: Tuple, prefix: Optional[str] = None):
        """Probe for an entry without touching hit counters or LRU order.

        A store entry found here is promoted into memory (still
        unaccounted), so an accounted :meth:`get` that follows sees it; one
        that fails to decode is quarantined as :meth:`get` does.
        ``prefix`` is as for :meth:`get`.
        """
        entry = self._memory.get(key)
        if entry is not None:
            return entry
        return self._from_disk(key, prefix) if self._disk_index else None


# ---------------------------------------------------------------------------
# Process-local registries, one per cache class, keyed by store path (None =
# anonymous in-memory cache).  A PID change means this process was forked
# from a warm parent (or the registry is simply stale in tests): the
# *entries* are deterministic results and stay perfectly valid, so they are
# retained — this is what lets fork-started executor workers begin life with
# the parent's warm op and region caches — while the *statistics* are zeroed
# so workers never double-count lookups the parent already reported.
# ---------------------------------------------------------------------------
class _Registry:
    """The process-local caches of one class, by store path."""

    def __init__(self, cache_class: Type[CostCacheBase]) -> None:
        self.cache_class = cache_class
        self.caches: Dict[Optional[str], CostCacheBase] = {}
        self.pid: Optional[int] = None

    def get(self, path: Optional[Union[str, Path]]):
        pid = os.getpid()
        if self.pid != pid:
            for cache in self.caches.values():
                cache.stats = CostCacheStats()
            self.pid = pid
        key = str(Path(path)) if path is not None else None
        cache = self.caches.get(key)
        if cache is None:
            cache = self.caches[key] = self.cache_class(path=path)
        return cache

    def clear(self) -> None:
        for cache in self.caches.values():
            cache.close()
        self.caches.clear()
        self.pid = None


_OP_CACHES = _Registry(OpCostCache)
_REGION_CACHES = _Registry(RegionCostCache)


def get_op_cache(path: Optional[Union[str, Path]] = None) -> OpCostCache:
    """The process-local shared op-cost cache for a store path.

    Every caller passing the same ``path`` (or ``None``) within one process
    receives the same instance, which is what makes op costs flow between
    trials, shards, and sequential searches.  After a fork the inherited
    entries are kept (warm workers) but the counters restart at zero.
    """
    return _OP_CACHES.get(path)


def get_region_cache(path: Optional[Union[str, Path]] = None) -> RegionCostCache:
    """The process-local shared region-cost cache for a store path.

    Shared by every simulator in the process that names the same region
    store (or none — the key carries the full mapping-relevant context, so
    unrelated graphs or configs never collide).  Forks behave as for
    :func:`get_op_cache`.
    """
    return _REGION_CACHES.get(path)


def caches_for(options) -> Tuple[Optional[OpCostCache], Optional[RegionCostCache]]:
    """The (op cache, region cache) that simulation options evaluate with.

    The one place the four cache settings of
    :class:`~repro.simulator.engine.SimulationOptions` — ``op_cache_enabled``,
    ``op_cache_path``, ``region_cache_enabled`` and ``region_store_path`` —
    pick caches.  A disabled cache is None, and so are both for
    ``options=None`` (an evaluator without simulation options).  The first
    call that names a store path loads the store.
    """
    if options is None:
        return None, None
    op_cache = get_op_cache(options.op_cache_path) if options.op_cache_enabled else None
    region_cache = (
        get_region_cache(options.region_store_path)
        if options.region_cache_enabled
        else None
    )
    return op_cache, region_cache


def reset_region_caches() -> None:
    """Drop every process-local region cache (for tests and benchmarks)."""
    _REGION_CACHES.clear()


def reset_op_caches() -> None:
    """Drop every process-local op *and* region cache (tests, benchmarks)."""
    _OP_CACHES.clear()
    reset_region_caches()
