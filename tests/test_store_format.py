"""Store format 2: positional op and region rows, read beside format-1 lines.

A format-2 payload is a JSON array whose fields sit in a fixed order; a
format-1 payload is an object of named fields, and stores holding either
(or both) keep serving.  What is pinned here: a row decodes to exactly what
was put, field types included (a fresh evaluation's int ``0`` stays an int);
the last line for a key wins whatever its format; a cold search writes the
same bytes, line order and key digests as ever, hashing each key once and
keeping digests, not rows; and a row that does not decode is quarantined at
first touch, never raised into a search.  Trial-cache records (JSON
objects) and the checkpoints that hold them decode as strictly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from repro.core.designs import FAST_LARGE
from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.datapath import DatapathConfig
from repro.hardware.search_space import DatapathSearchSpace
from repro.mapping.costmodel import OpCost
from repro.mapping.dataflow import Dataflow
from repro.mapping.tiling import Tiling
from repro.reporting.serialization import trial_metrics_from_dict, trial_metrics_to_dict
from repro.runtime.cache import TrialCache
from repro.runtime.checkpoint import SearchCheckpoint
from repro.runtime.opcache import (
    CostCacheBase,
    OpCostCache,
    RegionCostCache,
    opcost_from_row,
    opcost_to_row,
    region_entry_from_row,
    region_entry_to_row,
    reset_op_caches,
)
from repro.simulator.engine import SimulationOptions, Simulator, clear_compiled_cache
from repro.workloads.ops import OpType
from store_format1 import opcost_to_dict, region_entry_to_dict
from test_cache_tier import _region_entry

#: What a codec may raise on a payload it cannot decode.
NAMED_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_op_caches()
    clear_compiled_cache()
    yield
    reset_op_caches()
    clear_compiled_cache()


def _stored_simulator(tmp_path, *workloads):
    """A FAST-Large simulator with an op and a region store, after ``workloads``."""
    options = SimulationOptions(
        fusion_solver="greedy",
        op_cache_path=str(tmp_path / "ops.jsonl"),
        region_store_path=str(tmp_path / "regions.jsonl"),
    )
    simulator = Simulator(FAST_LARGE, options)
    for workload in workloads:
        simulator.simulate_workload(workload)
    return simulator


def _line(key, field, payload) -> str:
    return json.dumps({"key": key, field: payload}) + "\n"


def _assert_same_typed(fresh, served):
    """``served == fresh`` field by field, each with the same type."""
    assert type(served) is type(fresh)
    if is_dataclass(fresh):
        for field in fields(fresh):
            _assert_same_typed(getattr(fresh, field.name), getattr(served, field.name))
    elif isinstance(fresh, (list, tuple)):
        assert len(served) == len(fresh)
        for fresh_item, served_item in zip(fresh, served):
            _assert_same_typed(fresh_item, served_item)
    elif isinstance(fresh, dict):
        assert list(served) == list(fresh)
        for name in fresh:
            _assert_same_typed(fresh[name], served[name])
    else:
        assert served == fresh


# ---------------------------------------------------------------------------
class TestRowCodecs:
    def test_region_rows_round_trip_exactly_through_json(self):
        for entry in (_region_entry(index=3, scale=1.7), _region_entry(), (None,)):
            row = region_entry_to_row(entry)
            _assert_same_typed(entry, region_entry_from_row(row))
            _assert_same_typed(entry, region_entry_from_row(json.loads(json.dumps(row))))

    def test_the_failure_sentinel_is_an_empty_row(self):
        assert json.dumps(region_entry_to_row((None,))) == "[]"
        assert region_entry_from_row([]) == (None,)

    def test_busy_cycles_are_a_list_when_keyed_by_the_op_names_in_order(self):
        record, stats = _region_entry()
        in_order = {name: float(i) for i, name in enumerate(record.op_names)}
        reordered = dict(reversed(list(in_order.items())))
        for busy, written in ((in_order, [0.0, 1.0]), (reordered, reordered)):
            entry = (replace(record, op_busy_cycles=busy), stats)
            row = json.loads(json.dumps(region_entry_to_row(entry)))
            assert row[12] == written
            _assert_same_typed(entry, region_entry_from_row(row))

    def test_a_record_and_stats_of_different_regions_are_refused(self):
        record, _ = _region_entry(index=1)
        _, stats = _region_entry(index=2)
        with pytest.raises(ValueError):
            region_entry_to_row((record, stats))

    def test_op_rows_round_trip_exactly_through_json(self):
        costs = [
            OpCost("conv", OpType.CONV2D, 10, 12, 0.1 + 0.2, 0, 1e6 / 3, 2.0, 3.0, 2 / 3,
                   Dataflow.WEIGHT_STATIONARY, Tiling(128, 64, 32), False),
            OpCost("softmax", OpType.SOFTMAX, vector_cycles=7.25),
            OpCost("fc", OpType.MATMUL, flops=5, padded_flops=5, schedule_failed=True),
        ]
        for cost in costs:
            row = opcost_to_row(cost)
            assert len(row) == len(fields(OpCost))
            _assert_same_typed(cost, opcost_from_row(row))
            _assert_same_typed(cost, opcost_from_row(json.loads(json.dumps(row))))


# ---------------------------------------------------------------------------
class TestMixedFormatStores:
    def test_region_store_serves_both_formats_and_the_last_line_wins(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        first, second = _region_entry(index=1), _region_entry(index=1, scale=2.0)
        written = [  # (key, format-1 dict or format-2 row, entry)
            ("f1", region_entry_to_dict, _region_entry(index=0)),
            ("f2", region_entry_to_row, _region_entry(index=2)),
            ("f1-fail", region_entry_to_dict, (None,)),
            ("f2-fail", region_entry_to_row, (None,)),
            ("f1-then-f2", region_entry_to_dict, first),
            ("f1-then-f2", region_entry_to_row, second),
            ("f2-then-f1", region_entry_to_row, first),
            ("f2-then-f1", region_entry_to_dict, second),
        ]
        store.write_text("".join(
            _line(RegionCostCache.digest((key,)), "entry", encode(entry))
            for key, encode, entry in written
        ))
        cache = RegionCostCache(path=store)
        served = {key: entry for key, _, entry in written}  # the last line wins
        for key, entry in served.items():
            assert cache.get((key,)) == entry
        assert cache.stats.disk_hits == len(served)
        assert cache.stats.corrupt_records == 0

    def test_compaction_keeps_each_records_format(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        old, new = _region_entry(index=0), _region_entry(index=1)
        store.write_text(
            _line(RegionCostCache.digest(("old",)), "entry", region_entry_to_dict(old))
            + _line(RegionCostCache.digest(("old",)), "entry", region_entry_to_dict(old))
        )
        cache = RegionCostCache(path=store)
        cache.put(("new",), new)
        assert cache.compact().kept == 2
        payloads = [json.loads(line)["entry"] for line in store.read_text().splitlines()]
        assert payloads == [region_entry_to_dict(old), json.loads(json.dumps(
            region_entry_to_row(new)))]
        reloaded = RegionCostCache(path=store)
        assert (reloaded.get(("old",)), reloaded.get(("new",))) == (old, new)

    def test_op_store_serves_both_formats_and_the_last_line_wins(self, tmp_path):
        store = tmp_path / "ops.jsonl"
        old = OpCost("a", OpType.MATMUL, 4, 4, 1.0, 0.0, 2.0, 3.0, 4.0, 0.5,
                     Dataflow.OUTPUT_STATIONARY, Tiling(8, 8, 8), False)
        new = OpCost("b", OpType.CONV2D, 6, 8, 2, 0, 1.0, 1.0, 1.0, 0.25, None, None, False)
        digest = OpCostCache.digest
        lines = [
            _line(digest(("f1",)), "cost", opcost_to_dict(old)),
            _line(digest(("f2",)), "cost", opcost_to_row(new)),
            _line(digest(("both",)), "cost", opcost_to_dict(old)),
            _line(digest(("both",)), "cost", opcost_to_row(new)),
        ]
        store.write_text("".join(lines))
        cache = OpCostCache(path=store)
        assert cache.get(("f1",)) == old
        _assert_same_typed(new, cache.get(("f2",)))
        _assert_same_typed(new, cache.get(("both",)))
        assert cache.stats.disk_hits == 3


# ---------------------------------------------------------------------------
class TestDiskHitsMatchFreshEvaluation:
    def test_served_entries_keep_every_field_and_type(self, tmp_path):
        fresh = _stored_simulator(tmp_path, "efficientnet-b0", "bert-seq128")
        records = [entry[0] for entry in fresh.region_cache._memory.values() if entry[0]]
        # A sum over no ops is the int 0, which the store must not turn into 0.0.
        assert any(type(r.vector_cycles) is int or type(r.compute_cycles) is int for r in records)
        for cache, fresh_cache in (
            (RegionCostCache(path=fresh.region_cache.path), fresh.region_cache),
            (OpCostCache(path=fresh.op_cache.path), fresh.op_cache),
        ):
            assert cache.stats.disk_entries_loaded == len(fresh_cache._memory)
            for key, entry in fresh_cache._memory.items():
                _assert_same_typed(entry, cache.get(key))
            assert cache.stats.disk_hits == len(fresh_cache._memory)

    def test_every_line_written_is_a_format_2_row(self, tmp_path):
        simulator = _stored_simulator(tmp_path, "efficientnet-b0")
        for path, field in ((simulator.region_cache.path, "entry"),
                            (simulator.op_cache.path, "cost")):
            for line in path.read_text().splitlines():
                assert isinstance(json.loads(line)[field], list)


class TestColdStoresKeepDigestsNotRows:
    def test_a_cold_simulate_keeps_one_digest_per_store_line(self, tmp_path):
        simulator = _stored_simulator(tmp_path, "efficientnet-b0")
        for cache in (simulator.op_cache, simulator.region_cache):
            keys = [json.loads(line)["key"] for line in cache.path.read_text().splitlines()]
            assert cache._disk_index == {}  # the index holds what was read from disk
            assert len(cache._written) == len(keys)
            assert cache._written == set(keys)


#: sha256 of each store the cold search of :func:`cold_search` writes.  They
#: pin what a round trip cannot show: every line's bytes, the line order and
#: each key's digest.
COLD_STORE_SHA256 = {
    "ops.jsonl": "c70e56a5eba2e02134d0c29cdde30aea64b06fcaca30c544b75d848e2671d95d",
    "regions.jsonl": "51bc1e2e19d98d5ed5fbd6c29614fe539e951225737f78296ac03c8e7d2b4bb2",
    "trials.jsonl": "520bbe5fc68dacd8d831f74aabc21fb1fbafea702cdb9bdc380f7520189ea035",
}


@pytest.fixture(scope="module")
def cold_search(tmp_path_factory):
    """A 16-trial cold search's store directory and its ``CostCacheBase.digest`` calls.

    efficientnet-b0 + bert-seq128, annealing, seed 0, batch 4, from empty
    op and region stores and an empty trial cache.
    """
    directory = tmp_path_factory.mktemp("cold-stores")
    digest = CostCacheBase.digest
    calls = 0

    def counted(key, prefix=None):
        nonlocal calls
        calls += 1
        return digest(key, prefix)

    problem = SearchProblem(["efficientnet-b0", "bert-seq128"], ObjectiveKind.PERF_PER_TDP)
    options = SimulationOptions(
        fusion_solver="greedy",
        op_cache_path=str(directory / "ops.jsonl"),
        region_store_path=str(directory / "regions.jsonl"),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CostCacheBase, "digest", staticmethod(counted))
        FASTSearch(
            problem, optimizer="annealing", seed=0,
            evaluator=TrialEvaluator(problem, simulation_options=options),
            cache=TrialCache(directory / "trials.jsonl"),
        ).run(num_trials=16, batch_size=4)
    return directory, calls


class TestColdSearchStores:
    def test_a_cold_search_writes_the_pinned_bytes(self, cold_search):
        directory, _ = cold_search
        assert {
            name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in COLD_STORE_SHA256
        } == COLD_STORE_SHA256

    def test_a_cold_search_hashes_each_key_once(self, cold_search):
        directory, digest_calls = cold_search
        lines = [
            line for name in ("ops.jsonl", "regions.jsonl")
            for line in (directory / name).read_text().splitlines()
        ]
        assert len({json.loads(line)["key"] for line in lines}) == len(lines)
        # One digest per line written, none for the lookups that missed first.
        assert digest_calls == len(lines)


# ---------------------------------------------------------------------------
_RETYPES = (None, True, 0, 1.5, "x", [], [1, "a"], {"a": 1})


def _mutants(rng, row, count):
    """``count`` mutants of ``row``: a field dropped, duplicated or retyped, or a cut."""
    for _ in range(count):
        mutant = list(row)
        position = int(rng.integers(len(mutant)))
        target = mutant
        if isinstance(mutant[position], list) and mutant[position] and rng.random() < 0.3:
            target = mutant[position] = list(mutant[position])  # mutate inside it
            position = int(rng.integers(len(target)))
        kind = int(rng.integers(4))
        if kind == 0:
            del target[position]
        elif kind == 1:
            target.insert(position, target[position])
        elif kind == 2:
            target[position] = _RETYPES[int(rng.integers(len(_RETYPES)))]
        else:
            del target[position:]
        yield json.loads(json.dumps(mutant))


def _real_rows(tmp_path, *workloads):
    simulator = _stored_simulator(tmp_path, *workloads)
    return {
        kind: [json.loads(line)[field] for line in path.read_text().splitlines()]
        for kind, path, field in (
            ("op", simulator.op_cache.path, "cost"),
            ("region", simulator.region_cache.path, "entry"),
        )
    }


class TestUntrustedRows:
    @pytest.mark.parametrize("kind, cache_class", [("op", OpCostCache), ("region", RegionCostCache)])
    def test_mutated_rows_decode_or_raise_a_named_error(self, tmp_path, kind, cache_class):
        rng = np.random.default_rng(23)
        decode = cache_class()._decode
        rows = [row for row in _real_rows(tmp_path, "efficientnet-b0", "bert-seq128")[kind] if row]
        raised = 0
        for row in rows:
            for mutant in _mutants(rng, row, 8):
                try:
                    decode(mutant)
                except NAMED_ERRORS:
                    raised += 1
        assert raised  # the mutants reach the error paths

    @pytest.mark.parametrize("kind, cache_class", [("op", OpCostCache), ("region", RegionCostCache)])
    def test_an_undecodable_row_is_quarantined_at_first_touch(self, tmp_path, kind, cache_class):
        rng = np.random.default_rng(29)
        field = cache_class._PAYLOAD_FIELD
        row = next(row for row in _real_rows(tmp_path / "real", "efficientnet-b0")[kind] if row)
        good = cache_class()._decode(row)
        bad = next(
            mutant for mutant in _mutants(rng, row, 200)
            if not _decodes(cache_class()._decode, mutant)
        )
        store = tmp_path / "store.jsonl"
        store.write_text(_line(cache_class.digest(("k",)), field, bad))

        cache = cache_class(path=store)
        assert cache.stats.disk_entries_loaded == 1
        assert cache.get(("k",)) is None
        assert (cache.stats.misses, cache.stats.corrupt_records) == (1, 1)
        assert cache.get(("k",)) is None  # dropped from the index: a plain miss now
        assert (cache.stats.misses, cache.stats.corrupt_records) == (2, 1)
        cache.put(("k",), good)

        reloaded = cache_class(path=store)
        assert reloaded.get(("k",)) == good
        assert reloaded.stats.disk_hits == 1
        assert reloaded.stats.corrupt_records == 0

    def test_peek_quarantines_too(self, tmp_path):
        store = tmp_path / "regions.jsonl"
        store.write_text(_line(RegionCostCache.digest(("k",)), "entry", [1, "truncated"]))
        cache = RegionCostCache(path=store)
        assert cache.peek(("k",)) is None
        assert cache.stats.corrupt_records == 1
        assert cache.get(("k",)) is None
        assert (cache.stats.misses, cache.stats.corrupt_records) == (1, 1)

    def test_real_records_decode_as_before(self, trial_records):
        for record in trial_records:
            metrics = trial_metrics_from_dict(record)
            _assert_declared_types(metrics)
            assert trial_metrics_to_dict(metrics) == record

    def test_mutated_records_decode_typed_or_raise_a_named_error(self, trial_records):
        rng = np.random.default_rng(31)
        raised = decoded = 0
        for record in trial_records:
            for mutant in _record_mutants(rng, record, 24):
                try:
                    metrics = trial_metrics_from_dict(mutant)
                except NAMED_ERRORS:
                    raised += 1
                    continue
                _assert_declared_types(metrics)
                decoded += 1
        assert raised and decoded  # both outcomes are reached

    def test_a_crafted_record_is_quarantined_and_the_search_completes(self, tmp_path):
        clean_store = tmp_path / "clean.jsonl"
        clean = _search(clean_store)
        line = next(
            json.loads(line) for line in clean_store.read_text().splitlines()
            if json.loads(line)["metrics"]["feasible"]
        )
        store = tmp_path / "crafted.jsonl"
        store.write_text(_line(line["key"], "metrics", _crafted(line["metrics"])))

        result = _search(store)
        assert [trial_metrics_to_dict(m) for m in result.history] == [
            trial_metrics_to_dict(m) for m in clean.history
        ]
        assert result.runtime.cache_hits == 0
        assert result.runtime.corrupt_records == 1

    def test_a_checkpoint_holding_a_crafted_record_fails_to_load(self, tmp_path):
        path = tmp_path / "search.ckpt"
        _search(tmp_path / "trials.jsonl", checkpoint_path=path)
        snapshot = json.loads(path.read_text().splitlines()[0])
        position = next(i for i, m in enumerate(snapshot["history"]) if m["feasible"])
        snapshot["history"][position] = _crafted(snapshot["history"][position])
        path.write_text(json.dumps(snapshot) + "\n")
        with pytest.raises(ValueError, match="cannot read checkpoint"):
            SearchCheckpoint(path).load(DatapathSearchSpace())


def _decodes(decode, payload) -> bool:
    try:
        decode(payload)
    except NAMED_ERRORS:
        return False
    return True


# ---------------------------------------------------------------------------
_PER_WORKLOAD = ("per_workload_qps", "per_workload_latency_ms", "per_workload_utilization")


def _search(cache_path, checkpoint_path=None):
    """The 8-trial efficientnet-b0 search these tests replay."""
    problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)
    checkpoint = SearchCheckpoint(checkpoint_path) if checkpoint_path else None
    search = FASTSearch(
        problem, optimizer="lcs", seed=0, cache=TrialCache(cache_path), checkpoint=checkpoint
    )
    return search.run(num_trials=8, batch_size=4)


def _record_mutants(rng, record, count):
    """``count`` mutants of a trial record: a field dropped or retyped, a
    per-workload value retyped, or a field of its config retyped."""
    for _ in range(count):
        mutant = json.loads(json.dumps(record))
        kind = int(rng.integers(4))
        retype = _RETYPES[int(rng.integers(len(_RETYPES)))]
        names = sorted(mutant)
        name = names[int(rng.integers(len(names)))]
        if kind == 0:
            del mutant[name]
        elif kind == 1:
            mutant[name] = retype
        elif kind == 2:
            values = mutant[_PER_WORKLOAD[int(rng.integers(len(_PER_WORKLOAD)))]]
            if not values:
                continue
            values[sorted(values)[0]] = retype
        else:
            config = mutant["config"]
            config[sorted(config)[int(rng.integers(len(config)))]] = retype
        yield mutant


def _assert_declared_types(metrics: TrialMetrics) -> None:
    assert metrics.config is None or isinstance(metrics.config, DatapathConfig)
    if metrics.config is not None:
        for field in fields(DatapathConfig):  # each default has its field's declared type
            assert type(getattr(metrics.config, field.name)) is type(field.default), field.name
    for name in ("area_mm2", "tdp_w", "aggregate_score", "objective_value"):
        assert type(getattr(metrics, name)) is float, name
    assert type(metrics.feasible) is bool
    assert metrics.failure_reason is None or type(metrics.failure_reason) is str
    for name in _PER_WORKLOAD:
        values = getattr(metrics, name)
        assert type(values) is dict, name
        assert all(type(key) is str and type(value) is float for key, value in values.items())


@pytest.fixture(scope="module")
def trial_records(tmp_path_factory):
    """The records a real search writes to its trial cache, feasible and not."""
    store = tmp_path_factory.mktemp("trials") / "trials.jsonl"
    _search(store)
    records = [json.loads(line)["metrics"] for line in store.read_text().splitlines()]
    assert {record["feasible"] for record in records} == {True, False}
    return records


def _crafted(record):
    """A feasible record whose efficientnet-b0 latency is not a number."""
    assert record["feasible"]
    return dict(record, per_workload_latency_ms={"efficientnet-b0": "fast"})
