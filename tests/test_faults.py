"""Deterministic fault injection and the runtime's crash/churn tolerance.

The invariant under test everywhere: injected faults (worker crashes, remote
drops, torn writes, kills between batches) may cost retries, pool restarts,
or quarantined records — but the trial history a search produces is
bit-for-bit identical to a fault-free run, and the survival is visible in
``RuntimeStats``.
"""

from __future__ import annotations

import json
import os
import signal

import numpy as np
import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import trial_metrics_to_dict
from repro.runtime.cache import TrialCache, problem_fingerprint
from repro.runtime.checkpoint import SearchCheckpoint
from repro.runtime.exchange import FileScoreboard, ScoreRecord
from repro.runtime.executor import ParallelExecutor, WorkerCrashError, make_executor
from repro.runtime.faults import (
    KNOWN_FAULT_POINTS,
    FaultPlan,
    clear_faults,
    configure_faults,
    get_fault_plan,
    parse_fault_spec,
    set_fault_plan,
)
from repro.runtime.opcache import OpCostCache, reset_op_caches
from repro.runtime.remote import AsyncRemoteExecutor
from repro.runtime.service import EvaluationService
from repro.simulator.engine import SimulationOptions


def _problem():
    return SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)


def _history_dicts(result):
    return [trial_metrics_to_dict(m) for m in result.history]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection off."""
    clear_faults()
    yield
    clear_faults()


@pytest.fixture(scope="module")
def reference():
    """The fault-free 12-trial history every chaos run must reproduce."""
    return FASTSearch(_problem(), optimizer="lcs", seed=0).run(num_trials=12, batch_size=4)


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------
class TestSpecParsing:
    def test_empty_spec_is_no_points(self):
        assert parse_fault_spec("") == {}
        assert parse_fault_spec("  ,  ") == {}

    def test_bare_point_defaults(self):
        points = parse_fault_spec("worker-crash")
        point = points["worker-crash"]
        assert point.probability == 1.0
        assert point.budget is None
        assert point.at is None

    def test_full_grammar(self):
        points = parse_fault_spec(
            "worker-crash:n=1,remote-drop:p=0.25:n=4,torn-write:at=0|3,"
            "service-delay:delay=0.2"
        )
        assert set(points) == {"worker-crash", "remote-drop", "torn-write", "service-delay"}
        assert points["worker-crash"].budget == 1
        assert points["remote-drop"].probability == 0.25
        assert points["remote-drop"].budget == 4
        assert points["torn-write"].at == frozenset({0, 3})
        assert points["service-delay"].delay == 0.2

    def test_at_accepts_plus_separator(self):
        # '+' survives shell quoting more easily than '|'.
        assert parse_fault_spec("torn-write:at=1+4")["torn-write"].at == frozenset({1, 4})

    def test_unknown_point_raises(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            parse_fault_spec("worker-crush")

    def test_unknown_param_raises(self):
        with pytest.raises(ValueError, match="unknown fault param"):
            parse_fault_spec("worker-crash:q=1")

    def test_bad_value_raises(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_fault_spec("remote-drop:p=often")

    def test_non_keyvalue_param_raises(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_fault_spec("worker-crash:1")

    def test_spec_roundtrip(self):
        for fragment in ("worker-crash:n=1", "remote-drop:p=0.25:n=4", "torn-write:at=0|3"):
            point = next(iter(parse_fault_spec(fragment).values()))
            assert parse_fault_spec(point.spec())[point.name] == point

    def test_known_points_cover_the_runtime(self):
        assert "worker-crash" in KNOWN_FAULT_POINTS
        assert "torn-write" in KNOWN_FAULT_POINTS


# ---------------------------------------------------------------------------
# Plan decision semantics
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_unconfigured_point_never_fires(self):
        plan = FaultPlan("worker-crash:n=1", seed=0)
        assert plan.fire("remote-drop") is None
        assert plan.total_fired == 0

    def test_budget_is_honored(self):
        plan = FaultPlan("worker-crash:n=2", seed=0)
        fired = [plan.fire("worker-crash") is not None for _ in range(10)]
        assert sum(fired) == 2
        assert fired[:2] == [True, True]  # p defaults to 1.0

    def test_pinned_indices_override_probability(self):
        plan = FaultPlan("torn-write:at=1|3", seed=0)
        fired = [plan.fire("torn-write") is not None for _ in range(5)]
        assert fired == [False, True, False, True, False]

    def test_same_seed_same_pattern(self):
        draws = []
        for _ in range(2):
            plan = FaultPlan("remote-drop:p=0.5", seed=42)
            draws.append([plan.fire("remote-drop") is not None for _ in range(50)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])  # p=0.5 actually mixes

    def test_different_seeds_differ(self):
        patterns = {
            tuple(
                FaultPlan("remote-drop:p=0.5", seed=seed).fire("remote-drop") is not None
                for _ in range(40)
            )
            for seed in range(4)
        }
        assert len(patterns) > 1

    def test_per_point_streams_are_independent(self):
        """Consuming one point's opportunities never shifts another point's."""
        solo = FaultPlan("remote-drop:p=0.5", seed=7)
        solo_pattern = [solo.fire("remote-drop") is not None for _ in range(20)]
        mixed = FaultPlan("remote-drop:p=0.5,service-error:p=0.5", seed=7)
        mixed_pattern = []
        for _ in range(20):
            mixed.fire("service-error")
            mixed_pattern.append(mixed.fire("remote-drop") is not None)
        assert mixed_pattern == solo_pattern

    def test_counters_report_per_point_and_total(self):
        plan = FaultPlan("worker-crash:n=1,torn-write:at=0", seed=0)
        plan.fire("worker-crash")
        plan.fire("torn-write")
        counters = plan.counters()
        assert counters["fault[worker-crash]"] == 1
        assert counters["fault[torn-write]"] == 1
        assert counters["faults_injected"] == 2

    def test_service_injector_protocol(self):
        plan = FaultPlan("service-error:at=1", seed=0)
        plan.at(0, ("delay", 0.5))
        assert plan(0, "/evaluate") == ("delay", 0.5)  # pinned action wins
        # Unpinned requests consume seeded opportunities: at=1 fires on the
        # point's *second* opportunity.
        assert plan(1, "/evaluate") is None
        assert plan(2, "/evaluate") == ("error",)
        assert len(plan.log) == 3

    def test_global_plan_install_and_clear(self):
        assert get_fault_plan() is None
        plan = configure_faults("worker-crash:n=1", seed=3)
        assert get_fault_plan() is plan
        assert plan.seed == 3
        configure_faults(None)
        assert get_fault_plan() is None
        set_fault_plan(plan)
        assert get_fault_plan() is plan
        clear_faults()
        assert get_fault_plan() is None

    def test_configure_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            configure_faults("nonsense-point")
        assert get_fault_plan() is None


# ---------------------------------------------------------------------------
# Worker crashes: supervised pool restart (the ISSUE's satellite #4)
# ---------------------------------------------------------------------------
class TestWorkerCrash:
    def test_sigkilled_worker_batch_matches_fault_free_history(self, reference):
        set_fault_plan(FaultPlan("worker-crash:n=1", seed=0))
        executor = ParallelExecutor(num_workers=2)
        try:
            result = FASTSearch(_problem(), optimizer="lcs", seed=0, executor=executor).run(
                num_trials=12, batch_size=4
            )
        finally:
            executor.close()
        assert result.proposals == reference.proposals
        assert _history_dicts(result) == _history_dicts(reference)
        assert result.best_score_curve == reference.best_score_curve
        assert executor.worker_restarts >= 1
        assert result.runtime.worker_restarts >= 1
        assert result.runtime.faults_injected >= 1

    def test_unbounded_crashes_exhaust_restart_budget(self):
        set_fault_plan(FaultPlan("worker-crash", seed=0))  # p=1, no budget
        executor = ParallelExecutor(num_workers=2, max_worker_restarts=1)
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        batch = [space.sample(np.random.default_rng(0))]
        try:
            with pytest.raises(WorkerCrashError):
                executor.evaluate_batch(evaluator, space, batch)
        finally:
            executor.close()
        assert executor.worker_restarts == 2  # initial + one allowed restart

    def test_no_plan_means_no_overhead_tuples_still_work(self):
        executor = ParallelExecutor(num_workers=2)
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        batch = [space.sample(np.random.default_rng(1)) for _ in range(3)]
        try:
            got = executor.evaluate_batch(evaluator, space, batch)
        finally:
            executor.close()
        assert len(got) == 3
        assert executor.worker_restarts == 0


# ---------------------------------------------------------------------------
# Torn writes: cache / op store / checkpoint quarantine
# ---------------------------------------------------------------------------
class TestTornWrites:
    def _cache_key(self, cache, space, fingerprint, seed):
        return cache.key_for(space.sample(np.random.default_rng(seed)), fingerprint)

    def test_injected_torn_append_is_quarantined_on_reload(self, tmp_path, reference):
        path = tmp_path / "trials.jsonl"
        space = DatapathSearchSpace()
        fingerprint = problem_fingerprint(_problem())
        cache = TrialCache(path)
        set_fault_plan(FaultPlan("torn-write:at=1", seed=0))
        for seed, metrics in enumerate(reference.history[:3]):
            cache.put(self._cache_key(cache, space, fingerprint, seed), metrics)
        clear_faults()
        reopened = TrialCache(path)
        assert reopened.stats.corrupt_records == 1
        assert reopened.stats.disk_entries_loaded == 2  # torn record skipped

    def test_manually_truncated_tail_is_quarantined(self, tmp_path, reference):
        path = tmp_path / "trials.jsonl"
        space = DatapathSearchSpace()
        fingerprint = problem_fingerprint(_problem())
        cache = TrialCache(path)
        keys = []
        for seed, metrics in enumerate(reference.history[:3]):
            key = self._cache_key(cache, space, fingerprint, seed)
            keys.append(key)
            cache.put(key, metrics)
        # Tear the final line mid-record, as a kill mid-append would.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        reopened = TrialCache(path)
        assert reopened.stats.corrupt_records == 1
        assert reopened.get(keys[0]) is not None
        assert reopened.get(keys[-1]) is None  # the torn record is gone, not wrong

    def test_compaction_drops_quarantined_lines(self, tmp_path, reference):
        path = tmp_path / "trials.jsonl"
        space = DatapathSearchSpace()
        fingerprint = problem_fingerprint(_problem())
        cache = TrialCache(path)
        for seed, metrics in enumerate(reference.history[:2]):
            cache.put(self._cache_key(cache, space, fingerprint, seed), metrics)
        with path.open("a") as handle:
            handle.write('{"key": "torn-')  # no newline, no closing quote
        compacted = TrialCache(path)
        assert compacted.stats.corrupt_records == 1
        compacted.compact()
        assert all(json.loads(line) for line in path.read_text().splitlines())
        assert TrialCache(path).stats.corrupt_records == 0

    def test_stale_cache_tmp_is_swept_on_load(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_text("")
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("half a compaction")
        cache = TrialCache(path)
        assert not tmp.exists()
        assert cache.stats.stale_tmp_swept == 1

    def test_op_store_truncated_tail_is_quarantined(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        path.write_text('{"not": "an op record"\n')  # undecodable line
        store = OpCostCache(path=path)
        assert store.stats.corrupt_records == 1

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_search_counts_torn_lines_of_the_op_and_region_stores(self, tmp_path, workers):
        ops, regions = tmp_path / "ops.jsonl", tmp_path / "regions.jsonl"
        for store in (ops, regions):
            store.write_text('{"key": "torn-\n')  # one killed append each
        options = SimulationOptions(
            fusion_solver="greedy", op_cache_path=str(ops), region_store_path=str(regions)
        )
        reset_op_caches()  # the stores load on first use in this process
        try:
            # A pool's parent loads the stores before its workers fork.
            with make_executor(workers) as executor:
                result = FASTSearch(
                    _problem(), optimizer="lcs", seed=0,
                    evaluator=TrialEvaluator(_problem(), simulation_options=options),
                    executor=executor,
                ).run(num_trials=4, batch_size=2)
        finally:
            reset_op_caches()
        assert result.runtime.corrupt_records == 2

    def test_op_store_stale_tmp_is_swept(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        path.write_text("")
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("garbage")
        store = OpCostCache(path=path)
        assert not tmp.exists()
        assert store.stats.stale_tmp_swept == 1


# ---------------------------------------------------------------------------
# Checkpoint: torn saves, stale temp sweep, resume round-trips
# ---------------------------------------------------------------------------
class TestCheckpointRecovery:
    def test_torn_save_keeps_previous_checkpoint_intact(self, tmp_path, reference):
        from repro.runtime.checkpoint import CheckpointState

        path = tmp_path / "ckpt.json"
        manager = SearchCheckpoint(path, interval=1)
        state = CheckpointState(
            fingerprint="fp",
            proposals=reference.proposals[:2],
            history=reference.history[:2],
        )
        manager.save(state)
        before = path.read_text()
        set_fault_plan(FaultPlan("torn-write:at=0", seed=0))
        bigger = CheckpointState(
            fingerprint="fp",
            proposals=reference.proposals[:4],
            history=reference.history[:4],
        )
        manager.save(bigger)  # injected crash: partial tmp, no rename
        clear_faults()
        assert path.read_text() == before
        tmp = path.with_suffix(path.suffix + ".tmp")
        assert tmp.exists()  # the debris a real crash leaves
        loaded = SearchCheckpoint(path).load(DatapathSearchSpace())
        assert loaded.num_completed == 2
        assert not tmp.exists()  # swept on load

        # A save that continues the last one (same history list) appends a
        # delta instead; torn, it leaves half a line at the journal's end.
        proposals, history = list(reference.proposals[:2]), list(reference.history[:2])
        growing = CheckpointState(fingerprint="fp", proposals=proposals, history=history)
        manager = SearchCheckpoint(path, interval=1)
        manager.save(growing)  # a snapshot: the first save of this manager
        proposals.extend(reference.proposals[2:4])
        history.extend(reference.history[2:4])
        set_fault_plan(FaultPlan("torn-write:at=0", seed=0))
        manager.save(growing)  # injected crash: half a delta appended
        clear_faults()
        assert not path.read_text().endswith("\n")
        reader = SearchCheckpoint(path)
        assert reader.load(DatapathSearchSpace()).num_completed == 2
        assert reader.corrupt_records == 1
        # The next save rewrites the journal as one snapshot, without the debris.
        manager.save(growing)
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["num_completed"] == 4
        assert SearchCheckpoint(path).load(DatapathSearchSpace()).num_completed == 4

    def test_torn_save_is_retried_at_next_interval(self, tmp_path, reference):
        from repro.runtime.checkpoint import CheckpointState

        manager = SearchCheckpoint(tmp_path / "ckpt.json", interval=2)
        state = CheckpointState(
            fingerprint="fp",
            proposals=reference.proposals[:2],
            history=reference.history[:2],
        )
        set_fault_plan(FaultPlan("torn-write:at=0", seed=0))
        assert manager.maybe_save(state) is not None  # fired, but torn
        # _last_saved was not advanced, so the same state still wants saving.
        assert manager.maybe_save(state) is not None
        clear_faults()
        assert SearchCheckpoint(manager.path).load(DatapathSearchSpace()).num_completed == 2

    def test_corrupt_checkpoint_names_the_remedy(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 1, "fingerpr')
        with pytest.raises(ValueError, match="delete it to restart"):
            SearchCheckpoint(path).load(DatapathSearchSpace())

    def test_resume_after_interruption_reproduces_history(self, tmp_path, reference):
        """Kill-and-resume: a run stopped at a batch boundary and resumed
        reproduces the uninterrupted trajectory bit-for-bit."""
        path = tmp_path / "ckpt.json"
        FASTSearch(
            _problem(), optimizer="lcs", seed=0, checkpoint=SearchCheckpoint(path, interval=4)
        ).run(num_trials=8, batch_size=4)
        resumed = FASTSearch(
            _problem(), optimizer="lcs", seed=0, checkpoint=SearchCheckpoint(path, interval=4)
        ).run(num_trials=12, batch_size=4, resume=True)
        assert resumed.proposals == reference.proposals
        assert _history_dicts(resumed) == _history_dicts(reference)


# ---------------------------------------------------------------------------
# Exchange scoreboard: crashed-publisher debris
# ---------------------------------------------------------------------------
class TestExchangeSweep:
    def test_dead_writer_tmp_is_swept_on_poll(self, tmp_path):
        board = FileScoreboard(tmp_path / "scores.json")
        board.publish(ScoreRecord(shard_id=0, objective=-1.0, score=1.0))
        # Debris from a crashed publisher: pid 2**22+5 cannot be alive
        # (beyond the default pid_max), parse failure counts as dead too.
        dead = tmp_path / ".scores.json.shard-1.tmp-4194309"
        dead.write_text("partial")
        weird = tmp_path / ".scores.json.shard-2.tmp-notapid"
        weird.write_text("partial")
        scores = board.poll()
        assert set(scores) == {0}
        assert not dead.exists() and not weird.exists()
        assert board.stale_tmp_swept == 2

    def test_live_writer_tmp_is_left_alone(self, tmp_path):
        board = FileScoreboard(tmp_path / "scores.json")
        live = tmp_path / f".scores.json.shard-1.tmp-{os.getpid()}"
        live.write_text("in flight")
        board.poll()
        assert live.exists()
        assert board.stale_tmp_swept == 0


# ---------------------------------------------------------------------------
# Remote faults: injected drops/timeouts ride the retry machinery
# ---------------------------------------------------------------------------
class TestRemoteInjection:
    def test_injected_drops_are_retried_history_identical(self, reference):
        set_fault_plan(FaultPlan("remote-drop:n=2", seed=0))
        with EvaluationService() as service:
            executor = AsyncRemoteExecutor(
                [service.url], timeout=30.0, max_retries=3, backoff=0.01
            )
            try:
                result = FASTSearch(
                    _problem(), optimizer="lcs", seed=0, executor=executor
                ).run(num_trials=12, batch_size=4)
            finally:
                executor.close()
        assert _history_dicts(result) == _history_dicts(reference)
        assert result.runtime.remote_retries >= 2
        assert result.runtime.remote_fallbacks == 0
        assert result.runtime.faults_injected == 2

    def test_injected_timeouts_count_as_timeouts(self):
        set_fault_plan(FaultPlan("remote-timeout:at=0", seed=0))
        with EvaluationService() as service:
            executor = AsyncRemoteExecutor(
                [service.url], timeout=30.0, max_retries=3, backoff=0.01
            )
            evaluator = TrialEvaluator(_problem())
            space = DatapathSearchSpace()
            batch = [space.sample(np.random.default_rng(0))]
            try:
                executor.evaluate_batch(evaluator, space, batch)
                counters = executor.runtime_counters()
            finally:
                executor.close()
        assert counters["remote_retries"] >= 1
        assert counters["endpoint_stats"][service.url]["timeouts"] >= 1


# ---------------------------------------------------------------------------
# End to end: one run surviving several fault classes at once
# ---------------------------------------------------------------------------
class TestChaosEndToEnd:
    def test_mixed_faults_history_bit_for_bit(self, tmp_path, reference):
        configure_faults("worker-crash:n=1,torn-write:n=1", seed=7)
        cache = TrialCache(tmp_path / "trials.jsonl")
        executor = ParallelExecutor(num_workers=2)
        try:
            result = FASTSearch(
                _problem(), optimizer="lcs", seed=0, executor=executor, cache=cache
            ).run(num_trials=12, batch_size=4)
        finally:
            executor.close()
            clear_faults()
        assert result.proposals == reference.proposals
        assert _history_dicts(result) == _history_dicts(reference)
        assert result.runtime.worker_restarts >= 1
        assert result.runtime.faults_injected >= 2
        # The torn record is invisible now but quarantined on the next open.
        assert TrialCache(tmp_path / "trials.jsonl").stats.corrupt_records == 1
