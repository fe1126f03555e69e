"""Cross-trial memoization of mapping costs: the shared cost-cache tier.

The second-level cache of the mapping engine: while each
:class:`~repro.mapping.mapper.Mapper` memoizes problems *within* one trial,
an :class:`OpCostCache` is shared across trials (and, when persistent, across
processes and restarts) and keyed by the pair

``(mapping-relevant datapath sub-config, op shape fingerprint)``

so neighboring design points that agree on the mapping-relevant slice of the
configuration — no matter how their fusion, memory, or batch parameters
differ — reuse each other's mapped op costs instead of re-running the
candidate sweep.  Vector-op costs are cached the same way under a
``(graph fingerprint, op, VPU lanes, softmax factors)`` key built by
:func:`repro.simulator.vector_ops.vector_cost_cache_key`.  One level up,
:class:`RegionCostCache` memoizes whole fusion-region evaluations.

Both caches are **tiered**.  A lookup falls through, in order:

1. the in-process memory LRU (private, per process);
2. the digest-keyed raw index, backed by an append-only JSONL store when a
   path is configured (``--op-cache`` / ``--engine region_store=PATH``) —
   records are written with a single ``write`` call each, so concurrent
   appends from multiple processes sharing a path never interleave partial
   lines on POSIX filesystems, and torn tails left by crashes are
   quarantined (``corrupt_records``) rather than trusted;
3. an attached read-only shared-memory segment published by a parent process
   (:mod:`repro.runtime.shmcache`) — the zero-copy tier that lets freshly
   spawned or respawned executor workers start hot without re-warm compute
   or duplicated RSS;
4. for region results only, an attached :class:`~repro.runtime.remote.RemoteCostCache`
   cluster client (batched ``prefetch``), the fleet-wide tier served by
   ``repro serve``'s ``/cache/region`` routes.

Every tier returns bit-identical payloads (JSON float encoding round-trips
exactly), so the tier an entry came from can never change a search history —
only how fast it arrives.  Caches are process-local singletons obtained
through :func:`get_op_cache` / :func:`get_region_cache`; worker processes of
a :class:`~repro.runtime.executor.ParallelExecutor` each build their own
lazily (the evaluator ships only the cache *settings*, never the cache),
exactly like the per-process workload-graph cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.fusion.fast_fusion import RegionStats
from repro.mapping.costmodel import OpCost
from repro.mapping.dataflow import Dataflow
from repro.mapping.tiling import Tiling
from repro.simulator.result import RegionPerformance
from repro.workloads.ops import OpType

__all__ = [
    "CostCacheBase",
    "OpCacheStats",
    "OpCostCache",
    "RegionCacheStats",
    "RegionCostCache",
    "get_op_cache",
    "get_region_cache",
    "reset_op_caches",
    "reset_region_caches",
    "opcost_to_dict",
    "opcost_from_dict",
    "region_entry_to_dict",
    "region_entry_from_dict",
]


@dataclass
class OpCacheStats:
    """Hit/miss counters for one op-cost cache.

    ``hits`` counts every lookup served from *any* tier; ``disk_hits`` and
    ``shared_hits`` break out the subset served from the persistent raw
    index and the attached shared-memory segment respectively (a pure
    memory-LRU hit is ``hits`` minus both).  ``corrupt_records`` counts
    torn/undecodable JSONL lines quarantined while loading the store (the
    tail a crash mid-append leaves); ``stale_tmp_swept`` counts leftover
    compaction temp files removed.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    disk_hits: int = 0
    shared_hits: int = 0
    disk_entries_loaded: int = 0
    corrupt_records: int = 0
    stale_tmp_swept: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class RegionCacheStats:
    """Hit/miss counters for one region-cost cache.

    Shares the tier breakdown of :class:`OpCacheStats` and adds the cluster
    tier: ``remote_hits``/``remote_misses`` count batched ``prefetch``
    lookups against an attached cache service, ``remote_puts`` the entries
    pushed back, ``remote_requests``/``remote_failures`` the HTTP round
    trips behind them.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    disk_hits: int = 0
    shared_hits: int = 0
    disk_entries_loaded: int = 0
    corrupt_records: int = 0
    stale_tmp_swept: int = 0
    remote_hits: int = 0
    remote_misses: int = 0
    remote_puts: int = 0
    remote_requests: int = 0
    remote_failures: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of region lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Payload codecs.  JSON floats round-trip exactly (repr-based shortest float
# encoding), which is what keeps every persistent / shared / remote tier
# bit-for-bit neutral to search histories.
# ---------------------------------------------------------------------------
def opcost_to_dict(cost: OpCost) -> Dict[str, object]:
    """JSON-compatible encoding of an :class:`OpCost` (exact float round-trip)."""
    return {
        "op_name": cost.op_name,
        "op_type": cost.op_type.value,
        "flops": cost.flops,
        "padded_flops": cost.padded_flops,
        "compute_cycles": cost.compute_cycles,
        "vector_cycles": cost.vector_cycles,
        "dram_input_bytes": cost.dram_input_bytes,
        "dram_weight_bytes": cost.dram_weight_bytes,
        "dram_output_bytes": cost.dram_output_bytes,
        "utilization": cost.utilization,
        "dataflow": cost.dataflow.value if cost.dataflow is not None else None,
        "tiling": (
            [cost.tiling.m_tile, cost.tiling.n_tile, cost.tiling.k_tile]
            if cost.tiling is not None
            else None
        ),
        "schedule_failed": cost.schedule_failed,
    }


def opcost_from_dict(data: Dict[str, object]) -> OpCost:
    """Inverse of :func:`opcost_to_dict`."""
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


def region_entry_to_dict(entry: tuple) -> Dict[str, object]:
    """JSON-compatible encoding of a cached region entry.

    Entries are either the ``(None,)`` schedule-failure sentinel or a
    ``(RegionPerformance, RegionStats)`` pair; floats round-trip exactly.
    Records carry no fusion outcome, but the encoding still writes
    ``"post_fusion_cycles"`` (equal to ``"pre_fusion_cycles"``, the value
    every cached record held when records carried one), so region stores
    and cache services of either format read each other's entries.
    """
    if entry[0] is None:
        return {"failed": True}
    record, stats = entry
    return {
        "record": {
            "index": record.index,
            "name": record.name,
            "op_names": list(record.op_names),
            "primary_op_type": record.primary_op_type.value,
            "flops": record.flops,
            "compute_cycles": record.compute_cycles,
            "vector_cycles": record.vector_cycles,
            "dram_input_bytes": record.dram_input_bytes,
            "dram_weight_bytes": record.dram_weight_bytes,
            "dram_output_bytes": record.dram_output_bytes,
            "pre_fusion_cycles": record.pre_fusion_cycles,
            "post_fusion_cycles": record.pre_fusion_cycles,
            "matrix_utilization": record.matrix_utilization,
            "op_busy_cycles": dict(record.op_busy_cycles),
        },
        "stats": {
            "index": stats.index,
            "name": stats.name,
            "busy_cycles": stats.busy_cycles,
            "t_max_cycles": stats.t_max_cycles,
            "input_dram_cycles": stats.input_dram_cycles,
            "weight_dram_cycles": stats.weight_dram_cycles,
            "output_dram_cycles": stats.output_dram_cycles,
            "input_bytes": stats.input_bytes,
            "weight_bytes": stats.weight_bytes,
            "output_bytes": stats.output_bytes,
            "blocking_gm_bytes": stats.blocking_gm_bytes,
            "predecessor": stats.predecessor,
            "is_graph_output": stats.is_graph_output,
        },
    }


#: Op types by wire value: a dict lookup instead of an Enum call, on the
#: decode path of every first-touch region-cache hit.
_OP_TYPES = {op_type.value: op_type for op_type in OpType}


def region_entry_from_dict(data: Dict[str, object]) -> tuple:
    """Inverse of :func:`region_entry_to_dict`.

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


# ---------------------------------------------------------------------------
# The shared store base.  Everything path-related — digest index, streamed
# load, torn-tail quarantine, stale-tmp sweep, single-write appends, atomic
# compaction — lives here once; OpCostCache and RegionCostCache differ only
# in their payload codec and extra tiers.
# ---------------------------------------------------------------------------
class CostCacheBase:
    """Tiered cost cache: memory LRU + digest-keyed raw index + JSONL store.

    Keys are hashable tuples built by the mapper / simulator; the raw index
    (and the persistent store behind it) keys them by a SHA-256 digest of
    their canonical JSON form, so any process that derives the same key
    reads the same record.  Subclasses set :attr:`_PAYLOAD_FIELD` and the
    ``_encode``/``_decode`` codec; an optional shared-memory tier is wired
    in with :meth:`attach_shared`.

    Args:
        path: Optional JSON-lines store; created on first put.
        max_memory_entries: LRU capacity of the in-memory front.
        preload: Load an existing store into the raw index on construction.
            Pass False when another tier already carries the store's entries
            (an executor worker attaching a parent-published shared-memory
            segment skips N redundant disk loads this way); puts still
            append to the store.
    """

    _PAYLOAD_FIELD = "cost"
    _STATS_FACTORY = OpCacheStats

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 65536,
        preload: bool = True,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_memory_entries = max(1, int(max_memory_entries))
        self.stats = self._STATS_FACTORY()
        self._memory: "OrderedDict[Tuple, object]" = OrderedDict()
        # digest -> raw payload dict.  Mirrors the JSONL store when a path
        # is configured; also populated without one when raw payloads are
        # needed in RAM (cluster-cache publishing, remote put dedup).
        self._disk_index: Dict[str, dict] = {}
        # Optional zero-copy tier: digest -> raw payload dict (or None),
        # reading from an attached shared-memory segment.
        self._shared: Optional[Callable[[str], Optional[dict]]] = None
        # Keep raw payloads in ``_disk_index`` even without a store path
        # (lets a path-less ``repro serve`` answer /cache/region lookups).
        self.publish_raw = False
        if preload and self.path is not None and self.path.exists():
            self._load_disk_index()

    # -- codec hooks ---------------------------------------------------
    def _encode(self, value) -> dict:
        raise NotImplementedError

    def _decode(self, raw: dict):
        raise NotImplementedError

    # -- persistence ---------------------------------------------------
    def _sweep_stale_tmp(self) -> None:
        """Remove a leftover ``.tmp`` from a compaction that crashed mid-write."""
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        try:
            if tmp_path.exists():
                tmp_path.unlink()
                self.stats.stale_tmp_swept += 1
        except OSError:
            pass  # best effort; a stale tmp is inert

    def _load_disk_index(self) -> None:
        # Streamed line-by-line: a multi-GB store must never be buffered
        # whole (read_text doubles peak RSS) just to build its index.
        self._sweep_stale_tmp()
        payload = self._PAYLOAD_FIELD
        with self.path.open("r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    self._disk_index[record["key"]] = record[payload]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # Quarantine the torn line a killed run left behind:
                    # count it, keep loading, let compaction drop it.
                    self.stats.corrupt_records += 1
                    continue
        self.stats.disk_entries_loaded = len(self._disk_index)

    @staticmethod
    def digest(key: Tuple, prefix: Optional[str] = None) -> str:
        """Stable string form of a cache key (for the persistent store).

        The definition is the SHA-256 of the key's canonical JSON.  Keys
        that extend a common base by one int index (``key_base + (index,)``,
        as the simulator builds region keys) may pass ``prefix`` =
        :meth:`key_prefix` of that base: their canonical JSON is the
        prefix's array with one more element, so only the index is encoded
        and the digest is byte-for-byte the same.
        """
        if prefix is None:
            canonical = json.dumps(key, sort_keys=True, default=str)
        else:
            canonical = prefix[:-1] + ", " + str(key[-1]) + "]"
        return hashlib.sha256(canonical.encode()).hexdigest()

    @staticmethod
    def key_prefix(key_base: Tuple) -> str:
        """Canonical JSON of a non-empty key base (the ``prefix`` of :meth:`digest`)."""
        return json.dumps(key_base, sort_keys=True, default=str)

    # -- shared-memory tier --------------------------------------------
    def attach_shared(self, lookup: Optional[Callable[[str], Optional[dict]]]) -> None:
        """Attach (or detach, with None) a digest -> raw payload tier.

        The lookup is expected to read a parent-published shared-memory
        segment (:mod:`repro.runtime.shmcache`); entries it serves decode to
        bit-identical values, so attaching is invisible to search results.
        """
        self._shared = lookup

    # -- lookup / store ------------------------------------------------
    def get(self, key: Tuple, prefix: Optional[str] = None):
        """Look up a cached value; returns None on a miss.

        ``prefix`` (see :meth:`digest`) makes the key's digest cheap when a
        tier beyond memory must be consulted.  Values are returned as
        stored, not copied.
        """
        value = self._memory.get(key)
        if value is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return value
        digest: Optional[str] = None
        if self._disk_index:
            digest = self.digest(key, prefix)
            raw = self._disk_index.get(digest)
            if raw is not None:
                value = self._decode(raw)
                self._remember(key, value)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return value
        if self._shared is not None:
            if digest is None:
                digest = self.digest(key, prefix)
            raw = self._shared(digest)
            if raw is not None:
                value = self._decode(raw)
                self._remember(key, value)
                self.stats.hits += 1
                self.stats.shared_hits += 1
                return value
        self.stats.misses += 1
        return None

    def put(self, key: Tuple, value, prefix: Optional[str] = None) -> None:
        """Store a value in memory and (when configured) append to disk.

        Cached values are a deterministic function of their key, so a key
        already present in the raw index is never re-appended — the store
        only grows by records this process has not seen, keeping it
        duplicate-free for a single writer (concurrent processes can still
        race the same key; :meth:`compact` folds such duplicates away).
        The value is kept as is, not copied; ``prefix`` is as for :meth:`get`.
        """
        self._remember(key, value)
        self.stats.puts += 1
        if self.path is None and not self.publish_raw:
            return
        digest = self.digest(key, prefix)
        if digest in self._disk_index:
            return
        self._store_raw(digest, self._encode(value))

    def _store_raw(self, digest: str, raw: dict) -> None:
        """Record a raw payload in the index, appending to the store if any."""
        if self.path is not None:
            record = {"key": digest, self._PAYLOAD_FIELD: raw}
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # One write call per record: appends from concurrent processes
            # can never split a line.
            with self.path.open("a") as handle:
                handle.write(json.dumps(record) + "\n")
        self._disk_index[digest] = raw

    def raw_lookup(self, digest: str) -> Optional[dict]:
        """Raw payload for a digest, if the index holds one (cluster serving)."""
        return self._disk_index.get(digest)

    def compact(self) -> int:
        """Rewrite the store with one record per key; returns records kept.

        Records are deterministic per key, so compaction simply keeps the
        first occurrence of each key.  The rewrite is atomic (temp file +
        fsync + rename).  Run it only while no other process is appending to
        the store — appends racing the rename window would be lost.
        """
        if self.path is None:
            raise ValueError("compaction requires a cache path")
        self._disk_index = {}
        if self.path.exists():
            self._load_disk_index()
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        payload = self._PAYLOAD_FIELD
        with tmp_path.open("w") as handle:
            for digest, raw in self._disk_index.items():
                handle.write(json.dumps({"key": digest, payload: raw}) + "\n")
            # Durable before the rename, so the promoted file can never
            # lose its data to a power failure after the replace.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        return len(self._disk_index)

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

    def snapshot_counters(self) -> Tuple[int, int]:
        """(hits, misses) counters, for delta accounting across a run."""
        return self.stats.hits, self.stats.misses


class OpCostCache(CostCacheBase):
    """Tiered cache of per-op mapping / vector costs (see module docstring)."""

    _PAYLOAD_FIELD = "cost"
    _STATS_FACTORY = OpCacheStats

    def _encode(self, value: OpCost) -> dict:
        return opcost_to_dict(value)

    def _decode(self, raw: dict) -> OpCost:
        return opcost_from_dict(raw)


# ---------------------------------------------------------------------------
# Region-level result cache.  One level above the op cache: the simulator
# memoizes whole fusion-region evaluations — (RegionPerformance, RegionStats)
# pairs — keyed by (graph fingerprint, region index, mapping-relevant
# datapath sub-config).  A warm trial whose region key matches skips even the
# gather step of the graph-batched mapper: no problem extraction, no op-cache
# lookups, no traffic sweep.  The cache stores opaque entries; the simulator
# owns the key construction.  Entries are shared, never copied: a hit hands
# the cached record and stats to the live simulation result itself, which is
# exact because neither is modified after it is built (fusion outcomes live
# on the SimulationResult, not on the records).
# ---------------------------------------------------------------------------
class RegionCostCache(CostCacheBase):
    """Tiered cache of fully evaluated fusion regions.

    Adds two tiers on top of :class:`CostCacheBase`: persistence (the region
    store, ``--engine region_store=PATH``, same JSONL machinery as the op
    store) and an optional cluster tier — a
    :class:`~repro.runtime.remote.RemoteCostCache` attached with
    :meth:`attach_remote` and consulted in digest batches by
    :meth:`prefetch` before the simulator walks a graph's regions.

    Args:
        path: Optional JSON-lines region store; created on first put.
        max_entries: Memory-LRU capacity; least-recently-used regions are
            evicted once the cache grows past it (store entries remain
            reachable through the raw index).
    """

    _PAYLOAD_FIELD = "entry"
    _STATS_FACTORY = RegionCacheStats
    #: Buffered remote puts are flushed at this many pending entries (and on
    #: every prefetch, so a steady search drains the buffer continuously).
    REMOTE_PUT_FLUSH = 32

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_entries: int = 16384,
        preload: bool = True,
    ) -> None:
        super().__init__(path=path, max_memory_entries=max_entries, preload=preload)
        self.max_entries = self.max_memory_entries
        self._remote = None
        self._remote_puts: Dict[str, dict] = {}

    def _encode(self, value: tuple) -> dict:
        return region_entry_to_dict(value)

    def _decode(self, raw: dict) -> tuple:
        return region_entry_from_dict(raw)

    # ------------------------------------------------------------------
    def peek(self, key: Tuple, prefix: Optional[str] = None):
        """Probe for an entry without touching stats or LRU order.

        A store or shared-segment entry found here is promoted into memory
        (still unaccounted), so an accounted :meth:`get` that follows sees
        it.  ``prefix`` is as for :meth:`get`.
        """
        entry = self._memory.get(key)
        if entry is not None:
            return entry
        if not self._disk_index and self._shared is None:
            return None
        digest = self.digest(key, prefix)
        raw = self._disk_index.get(digest) if self._disk_index else None
        if raw is None and self._shared is not None:
            raw = self._shared(digest)
        if raw is None:
            return None
        entry = self._decode(raw)
        self._remember(key, entry)
        return entry

    def put(self, key: Tuple, entry: tuple, prefix: Optional[str] = None) -> None:
        """Store one evaluated region as is, evicting the LRU tail past capacity."""
        self._remember(key, entry)
        self.stats.puts += 1
        if self.path is None and not self.publish_raw and self._remote is None:
            return
        digest = self.digest(key, prefix)
        if digest in self._disk_index:
            return
        raw = self._encode(entry)
        self._store_raw(digest, raw)
        if self._remote is not None:
            self._remote_puts[digest] = raw
            if len(self._remote_puts) >= self.REMOTE_PUT_FLUSH:
                self.flush_remote()

    # -- cluster tier --------------------------------------------------
    def attach_remote(self, client) -> None:
        """Attach (or detach, with None) a cluster cache client.

        ``client`` is duck-typed: ``get_many(digests) -> {digest: raw}`` and
        ``put_many({digest: raw}) -> int`` (see
        :class:`~repro.runtime.remote.RemoteCostCache`).  Batched lookups
        happen only through :meth:`prefetch`; the per-key :meth:`get` path
        never blocks on the network.
        """
        if client is not self._remote:
            self.flush_remote()
        self._remote = client

    @property
    def remote(self):
        """The attached cluster cache client, or None."""
        return self._remote

    def prefetch(self, keys: Iterable[Tuple], prefix: Optional[str] = None) -> int:
        """Batch-resolve keys against the cluster tier; returns new entries.

        Looks up every key that no local tier can serve in one batched
        remote round trip and promotes the results into memory (and the
        local store, so a fetched region survives restarts).  Counted in
        ``stats.remote_hits``/``remote_misses``; the promoted entries then
        surface as ordinary hits in the accounted lookups that follow, so
        histories stay bit-for-bit identical with or without the tier.
        ``prefix``, as for :meth:`get`, must fit every key.
        """
        if self._remote is None:
            return 0
        self.flush_remote()  # piggyback pending puts on the round trip
        need: List[Tuple[Tuple, str]] = []
        seen: set = set()
        for key in keys:
            if self._memory.get(key) is not None:
                continue
            digest = self.digest(key, prefix)
            if digest in seen or digest in self._disk_index:
                continue
            if self._shared is not None and self._shared(digest) is not None:
                continue
            seen.add(digest)
            need.append((key, digest))
        if not need:
            return 0
        self.stats.remote_requests += 1
        try:
            found = self._remote.get_many([digest for _, digest in need])
        except Exception:
            self.stats.remote_failures += 1
            return 0
        fetched = 0
        for key, digest in need:
            raw = found.get(digest)
            if raw is None:
                self.stats.remote_misses += 1
                continue
            try:
                entry = self._decode(raw)
            except Exception:
                self.stats.remote_misses += 1
                continue
            self._remember(key, entry)
            self._store_raw(digest, raw)
            self.stats.remote_hits += 1
            fetched += 1
        return fetched

    def flush_remote(self) -> int:
        """Push buffered local results to the cluster tier; returns count."""
        if self._remote is None or not self._remote_puts:
            return 0
        pending, self._remote_puts = self._remote_puts, {}
        self.stats.remote_requests += 1
        try:
            stored = self._remote.put_many(pending)
        except Exception:
            self.stats.remote_failures += 1
            return 0
        self.stats.remote_puts += len(pending)
        return stored if isinstance(stored, int) else len(pending)


# ---------------------------------------------------------------------------
# Process-local registries.  Keyed by store path (None = anonymous in-memory
# cache).  A PID change means this process was forked from a warm parent (or
# the registry is simply stale in tests): the *entries* are deterministic
# results and stay perfectly valid, so they are retained — this is what lets
# fork-started executor workers begin life with the parent's warm op and
# region caches — while the *statistics* are zeroed so workers never
# double-count lookups the parent already reported.  A forked region cache
# also drops its buffered remote puts (the parent owns those) and its remote
# client, which the child's own initialization re-attaches if configured.
# ---------------------------------------------------------------------------
_CACHES: Dict[Optional[str], OpCostCache] = {}
_CACHES_PID: Optional[int] = None
_REGION_CACHES: Dict[Optional[str], RegionCostCache] = {}
_REGION_CACHES_PID: Optional[int] = None


def get_op_cache(
    path: Optional[Union[str, Path]] = None, preload: bool = True
) -> OpCostCache:
    """The process-local shared op-cost cache for a store path.

    Every caller passing the same ``path`` (or ``None``) within one process
    receives the same instance, which is what makes op costs flow between
    trials, shards, and sequential searches.  After a fork the inherited
    entries are kept (warm workers) but the counters restart at zero.
    ``preload`` applies only when this call constructs the instance (see
    :class:`CostCacheBase`).
    """
    global _CACHES_PID
    pid = os.getpid()
    if _CACHES_PID != pid:
        for cache in _CACHES.values():
            cache.stats = OpCacheStats()
        _CACHES_PID = pid
    key = str(Path(path)) if path is not None else None
    cache = _CACHES.get(key)
    if cache is None:
        cache = OpCostCache(path=path, preload=preload)
        _CACHES[key] = cache
    return cache


def get_region_cache(
    path: Optional[Union[str, Path]] = None, preload: bool = True
) -> RegionCostCache:
    """The process-local shared region-cost cache for a store path.

    Shared by every simulator in the process that names the same region
    store (or none — the key carries the full mapping-relevant context, so
    unrelated graphs or configs never collide).  After a fork the inherited
    entries are kept but the counters restart at zero, mirroring
    :func:`get_op_cache`.
    """
    global _REGION_CACHES_PID
    pid = os.getpid()
    if _REGION_CACHES_PID != pid:
        for cache in _REGION_CACHES.values():
            cache.stats = RegionCacheStats()
            cache._remote = None
            cache._remote_puts = {}
        _REGION_CACHES_PID = pid
    key = str(Path(path)) if path is not None else None
    cache = _REGION_CACHES.get(key)
    if cache is None:
        cache = RegionCostCache(path=path, preload=preload)
        _REGION_CACHES[key] = cache
    return cache


def reset_region_caches() -> None:
    """Drop every process-local region cache (for tests and benchmarks)."""
    global _REGION_CACHES_PID
    _REGION_CACHES.clear()
    _REGION_CACHES_PID = None


def reset_op_caches() -> None:
    """Drop every process-local op *and* region cache (tests, benchmarks)."""
    global _CACHES_PID
    _CACHES.clear()
    _CACHES_PID = None
    reset_region_caches()
