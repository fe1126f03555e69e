"""Tests for the parallel search runtime: executors, batching, cache, checkpoint."""

import json
import math

import pytest

import repro.core.trial as trial_module
from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator, clear_graph_cache
from repro.hardware.search_space import DatapathSearchSpace
from repro.hardware.tpu import EvaluationConstraints
from repro.reporting.serialization import (
    params_from_jsonable,
    params_to_jsonable,
    trial_metrics_from_dict,
    trial_metrics_to_dict,
)
from repro.runtime import (
    BatchedOptimizer,
    ParallelExecutor,
    ProgressBus,
    SearchCheckpoint,
    SerialExecutor,
    TrialCache,
    make_executor,
    problem_fingerprint,
    proposal_key,
)
from repro.runtime.progress import (
    CACHE_HIT,
    SEARCH_FINISHED,
    SEARCH_STARTED,
    TRIAL_FINISHED,
    ProgressPrinter,
)
from repro.search import RandomSearchOptimizer


def _problem():
    return SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)


def _history_dicts(result):
    return [trial_metrics_to_dict(m) for m in result.history]


class CountingEvaluator(TrialEvaluator):
    """Evaluator that counts evaluate_params calls (serial executor only)."""

    def __init__(self, problem):
        super().__init__(problem)
        self.calls = 0

    def evaluate_params(self, params, space):
        self.calls += 1
        return super().evaluate_params(params, space)


# ---------------------------------------------------------------------------
class TestExecutors:
    def test_parallel_reproduces_serial_history_bitwise(self):
        serial = FASTSearch(_problem(), optimizer="lcs", seed=7).run(16, batch_size=4)
        with ParallelExecutor(num_workers=2) as executor:
            parallel = FASTSearch(
                _problem(), optimizer="lcs", seed=7, executor=executor
            ).run(16, batch_size=4)
        assert _history_dicts(serial) == _history_dicts(parallel)
        assert serial.best_params == parallel.best_params
        assert serial.best_score_curve == parallel.best_score_curve

    def test_batch_size_one_matches_legacy_loop(self):
        a = FASTSearch(_problem(), optimizer="random", seed=2).run(8)
        b = FASTSearch(_problem(), optimizer="random", seed=2).run(8, batch_size=1)
        assert _history_dicts(a) == _history_dicts(b)

    def test_serial_executor_preserves_order(self):
        space = DatapathSearchSpace()
        evaluator = TrialEvaluator(_problem())
        optimizer = RandomSearchOptimizer(space, seed=0)
        batch = [optimizer.ask() for _ in range(4)]
        results = SerialExecutor().evaluate_batch(evaluator, space, batch)
        expected = [evaluator.evaluate_params(p, space) for p in batch]
        assert [trial_metrics_to_dict(m) for m in results] == [
            trial_metrics_to_dict(m) for m in expected
        ]

    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        parallel = make_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.num_workers == 3
        parallel.close()

    def test_parallel_executor_empty_batch(self):
        with ParallelExecutor(num_workers=2) as executor:
            assert executor.evaluate_batch(TrialEvaluator(_problem()), DatapathSearchSpace(), []) == []

    def test_reused_executor_tracks_evaluator_changes(self):
        """One executor across searches with different problems must not
        keep evaluating with the first search's (stale) evaluator."""
        other_problem = SearchProblem(["efficientnet-b0"], ObjectiveKind.THROUGHPUT)
        with ParallelExecutor(num_workers=2) as executor:
            FASTSearch(_problem(), optimizer="random", seed=6, executor=executor).run(
                4, batch_size=2
            )
            reused = FASTSearch(
                other_problem, optimizer="random", seed=6, executor=executor
            ).run(4, batch_size=2)
        fresh = FASTSearch(other_problem, optimizer="random", seed=6).run(4, batch_size=2)
        assert _history_dicts(reused) == _history_dicts(fresh)


# ---------------------------------------------------------------------------
class TestBatchedOptimizer:
    def test_ask_batch_deduplicates_proposals(self):
        space = DatapathSearchSpace()

        class StuckOptimizer(RandomSearchOptimizer):
            """Always proposes the same configuration."""

            def ask(self):
                return dict(self.fixed)

        optimizer = StuckOptimizer(space, seed=0)
        optimizer.fixed = space.sample(optimizer.rng)
        batched = BatchedOptimizer(optimizer, space)
        proposals = batched.ask_batch(4)
        keys = {proposal_key(p) for p in proposals}
        assert len(keys) == 4
        assert batched.num_duplicates_avoided > 0

    def test_ask_batch_avoids_previous_batches(self):
        space = DatapathSearchSpace()
        optimizer = RandomSearchOptimizer(space, seed=0)
        batched = BatchedOptimizer(optimizer, space)
        first = batched.ask_batch(6)
        second = batched.ask_batch(6)
        keys = [proposal_key(p) for p in first + second]
        assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
class TestTrialCache:
    def test_warm_cache_short_circuits_simulation(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cold = FASTSearch(
            _problem(), optimizer="random", seed=3, cache=TrialCache(path)
        ).run(10, batch_size=2)

        evaluator = CountingEvaluator(_problem())
        warm_cache = TrialCache(path)
        warm = FASTSearch(
            _problem(),
            optimizer="random",
            seed=3,
            evaluator=evaluator,
            cache=warm_cache,
        ).run(10, batch_size=2)

        assert evaluator.calls == 0  # every trial served from the cache
        assert warm.runtime.cache_hits == 10
        assert warm.runtime.trials_evaluated == 0
        assert _history_dicts(cold) == _history_dicts(warm)

    def test_in_memory_hits_within_one_run(self):
        cache = TrialCache()
        space = DatapathSearchSpace()
        evaluator = TrialEvaluator(_problem())
        fingerprint = problem_fingerprint(_problem(), evaluator, space)
        params = space.from_config(
            __import__("repro.core.designs", fromlist=["FAST_SMALL"]).FAST_SMALL
        )
        key = cache.key_for(params, fingerprint)
        assert cache.get(key) is None
        cache.put(key, evaluator.evaluate_params(params, space))
        assert cache.get(key) is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_fingerprint_isolates_different_problems(self):
        space = DatapathSearchSpace()
        evaluator = TrialEvaluator(_problem())
        other = SearchProblem(["efficientnet-b0"], ObjectiveKind.THROUGHPUT)
        fp_a = problem_fingerprint(_problem(), evaluator, space)
        fp_b = problem_fingerprint(other, TrialEvaluator(other), space)
        assert fp_a != fp_b
        cache = TrialCache()
        params = space.sample(RandomSearchOptimizer(space, seed=0).rng)
        assert cache.key_for(params, fp_a) != cache.key_for(params, fp_b)

    def test_fingerprint_encodes_mapper_options_by_value(self):
        from repro.mapping.mapper import MapperOptions
        from repro.simulator.engine import SimulationOptions

        def evaluator(**knobs):
            options = SimulationOptions(
                fusion_solver="greedy", mapper_options=MapperOptions(**knobs)
            )
            return TrialEvaluator(_problem(), simulation_options=options)

        # All three stay alive, so no two options objects share an address.
        first, second, fewer = evaluator(), evaluator(), evaluator(max_tiling_candidates=24)
        fingerprint = lambda e: problem_fingerprint(_problem(), e)  # noqa: E731
        assert fingerprint(first) == fingerprint(second)
        assert fingerprint(fewer) != fingerprint(first)

    def test_lru_eviction_bounds_memory(self):
        cache = TrialCache(max_memory_entries=2)
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        metrics = evaluator.evaluate_params(
            space.from_config(
                __import__("repro.core.designs", fromlist=["FAST_SMALL"]).FAST_SMALL
            ),
            space,
        )
        for key in ("a", "b", "c"):
            cache.put(key, metrics)
        assert len(cache._memory) == 2
        assert "a" not in cache and "c" in cache

    def test_corrupt_disk_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('not json\n{"key": "x"}\n')
        cache = TrialCache(path)
        assert cache.stats.disk_entries_loaded == 0


def _single_document_checkpoint(path, version):
    """The state a checkpoint journal loads to, as a version-1/2 document."""
    state = SearchCheckpoint(path).load(DatapathSearchSpace())
    return {
        "version": version,
        "fingerprint": state.fingerprint,
        "num_completed": state.num_completed,
        "proposals": [params_to_jsonable(params) for params in state.proposals],
        "history": [trial_metrics_to_dict(metrics) for metrics in state.history],
        "optimizer": state.optimizer_state,
    }


# ---------------------------------------------------------------------------
class TestCheckpoint:
    @pytest.mark.parametrize(
        "optimizer", ["random", "lcs", "bayesian", "annealing", "coordinate", "safe:annealing"]
    )
    def test_resume_matches_uninterrupted_run(self, tmp_path, optimizer):
        full = FASTSearch(_problem(), optimizer=optimizer, seed=5).run(20, batch_size=4)

        path = tmp_path / "search.ckpt"
        FASTSearch(
            _problem(),
            optimizer=optimizer,
            seed=5,
            checkpoint=SearchCheckpoint(path, interval=4),
        ).run(12, batch_size=4)
        resumed = FASTSearch(
            _problem(),
            optimizer=optimizer,
            seed=5,
            checkpoint=SearchCheckpoint(path, interval=4),
        ).run(20, batch_size=4, resume=True)

        assert resumed.runtime.resumed_trials == 12
        assert _history_dicts(full) == _history_dicts(resumed)
        assert full.best_params == resumed.best_params
        assert full.best_score_curve == resumed.best_score_curve

    def test_resume_requires_checkpoint_manager(self):
        with pytest.raises(ValueError):
            FASTSearch(_problem(), optimizer="random", seed=0).run(4, resume=True)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "search.ckpt"
        FASTSearch(
            _problem(), optimizer="random", seed=0, checkpoint=SearchCheckpoint(path)
        ).run(4)
        other = SearchProblem(["efficientnet-b0"], ObjectiveKind.THROUGHPUT)
        with pytest.raises(ValueError):
            FASTSearch(
                other, optimizer="random", seed=0, checkpoint=SearchCheckpoint(path)
            ).run(8, resume=True)

    def test_checkpoint_file_is_valid_json(self, tmp_path):
        path = tmp_path / "search.ckpt"
        FASTSearch(
            _problem(), optimizer="random", seed=1, checkpoint=SearchCheckpoint(path, interval=2)
        ).run(6, batch_size=2)
        snapshot, *deltas = [json.loads(line) for line in path.read_text().splitlines()]
        assert snapshot["version"] == 3
        assert snapshot["num_completed"] == 2
        assert len(snapshot["proposals"]) == len(snapshot["history"]) == 2
        # Each later save appends the trials since the one before; the
        # end-of-run save, at the same count as the last, appends none.
        assert [delta["start"] for delta in deltas] == [2, 4, 6]
        completed = 2
        for delta in deltas:
            assert delta["start"] == completed
            assert len(delta["proposals"]) == len(delta["history"])
            completed += len(delta["history"])
        assert completed == 6
        # Each trial is stored once: the history replaces the observation log.
        for record in (snapshot, *deltas):
            assert set(record["optimizer"]) == {"rng_states", "extra"}

    @pytest.mark.parametrize("optimizer", ["lcs", "annealing"])
    def test_resume_from_a_version_1_checkpoint(self, tmp_path, optimizer):
        full = FASTSearch(_problem(), optimizer=optimizer, seed=5).run(20, batch_size=4)
        path = tmp_path / "search.ckpt"
        FASTSearch(
            _problem(),
            optimizer=optimizer,
            seed=5,
            checkpoint=SearchCheckpoint(path, interval=4),
        ).run(12, batch_size=4)
        # Rewrite the checkpoint as version 1 wrote it: one document, plus
        # the optimizer's observation log, one entry per tell.
        payload = _single_document_checkpoint(path, version=1)
        payload["optimizer"]["observations"] = [
            {
                "params": params,
                "objective": metrics["objective_value"],
                "feasible": metrics["feasible"]
                and math.isfinite(metrics["objective_value"]),
            }
            for params, metrics in zip(payload["proposals"], payload["history"])
        ]
        path.write_text(json.dumps(payload))

        resumed = FASTSearch(
            _problem(),
            optimizer=optimizer,
            seed=5,
            checkpoint=SearchCheckpoint(path, interval=4),
        ).run(20, batch_size=4, resume=True)
        assert resumed.runtime.resumed_trials == 12
        assert _history_dicts(full) == _history_dicts(resumed)
        assert full.proposals == resumed.proposals
        # Re-saved as a version-3 journal: a snapshot, then deltas.
        snapshot, *deltas = [json.loads(line) for line in path.read_text().splitlines()]
        assert snapshot["version"] == 3
        assert deltas and all("start" in delta for delta in deltas)

    def test_resume_from_a_version_2_checkpoint(self, tmp_path):
        full = FASTSearch(_problem(), optimizer="lcs", seed=5).run(20, batch_size=4)
        path = tmp_path / "search.ckpt"
        FASTSearch(
            _problem(), optimizer="lcs", seed=5, checkpoint=SearchCheckpoint(path, interval=4)
        ).run(12, batch_size=4)
        path.write_text(json.dumps(_single_document_checkpoint(path, version=2)))

        resumed = FASTSearch(
            _problem(), optimizer="lcs", seed=5, checkpoint=SearchCheckpoint(path, interval=4)
        ).run(20, batch_size=4, resume=True)
        assert resumed.runtime.resumed_trials == 12
        assert _history_dicts(full) == _history_dicts(resumed)
        assert full.proposals == resumed.proposals

    def test_a_manager_reused_across_runs_never_mixes_their_trials(self, tmp_path):
        path = tmp_path / "search.ckpt"
        manager = SearchCheckpoint(path, interval=4)
        saves = []
        save = manager.save

        def counting_save(state):
            saves.append(state.num_completed)
            return save(state)

        manager.save = counting_save
        FASTSearch(_problem(), optimizer="random", seed=1, checkpoint=manager).run(
            4, batch_size=4
        )
        assert saves == [4, 4]  # the interval save, then the end-of-run save
        second = FASTSearch(_problem(), optimizer="random", seed=2, checkpoint=manager).run(
            12, batch_size=4
        )
        # The second run counts its interval from its own start, so the file
        # holds the first run's journal for no trial of it.
        assert saves[2:] == [4, 8, 12, 12]
        # The second run's first save is a snapshot: appending its trials
        # to the first run's journal would resume a mix of both runs.
        resumed = FASTSearch(
            _problem(), optimizer="random", seed=2, checkpoint=SearchCheckpoint(path)
        ).run(12, batch_size=4, resume=True)
        assert resumed.runtime.resumed_trials == 12
        assert _history_dicts(resumed) == _history_dicts(second)
        assert resumed.proposals == second.proposals

    def test_unknown_checkpoint_version_is_rejected(self, tmp_path):
        path = tmp_path / "search.ckpt"
        FASTSearch(
            _problem(), optimizer="random", seed=1, checkpoint=SearchCheckpoint(path)
        ).run(2)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            SearchCheckpoint(path).load(DatapathSearchSpace())

    def test_resume_counts_a_torn_journal_tail(self, tmp_path):
        full = FASTSearch(_problem(), optimizer="lcs", seed=5).run(20, batch_size=4)
        path = tmp_path / "search.ckpt"
        FASTSearch(
            _problem(), optimizer="lcs", seed=5, checkpoint=SearchCheckpoint(path, interval=8)
        ).run(12, batch_size=4)
        # A snapshot at 8 trials, then the end-of-run delta of trials 8..12.
        # A crash mid-append leaves half of that delta.
        snapshot, delta = path.read_bytes().splitlines(keepends=True)
        assert json.loads(delta)["start"] == 8
        path.write_bytes(snapshot + delta[: len(delta) // 2])

        resumed = FASTSearch(
            _problem(), optimizer="lcs", seed=5, checkpoint=SearchCheckpoint(path, interval=4)
        ).run(20, batch_size=4, resume=True)
        assert resumed.runtime.corrupt_records == 1
        assert resumed.runtime.resumed_trials == 8
        assert _history_dicts(full) == _history_dicts(resumed)
        assert full.proposals == resumed.proposals


# ---------------------------------------------------------------------------
class TestProgress:
    def test_events_emitted_during_search(self):
        bus = ProgressBus()
        events = []
        bus.subscribe(lambda event: events.append(event))
        FASTSearch(_problem(), optimizer="random", seed=0, progress=bus).run(
            4, batch_size=2
        )
        kinds = [event.kind for event in events]
        assert kinds[0] == SEARCH_STARTED
        assert kinds[-1] == SEARCH_FINISHED
        assert kinds.count(TRIAL_FINISHED) == 4

    def test_cache_hit_events(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        FASTSearch(
            _problem(), optimizer="random", seed=4, cache=TrialCache(path)
        ).run(6, batch_size=3)
        bus = ProgressBus()
        events = []
        bus.subscribe(lambda event: events.append(event))
        FASTSearch(
            _problem(), optimizer="random", seed=4, cache=TrialCache(path), progress=bus
        ).run(6, batch_size=3)
        assert sum(1 for event in events if event.kind == CACHE_HIT) == 6

    def test_subscriber_errors_do_not_abort_search(self):
        bus = ProgressBus()

        def broken(_event):
            raise RuntimeError("boom")

        bus.subscribe(broken)
        result = FASTSearch(_problem(), optimizer="random", seed=0, progress=bus).run(3)
        assert result.num_trials == 3
        assert bus.errors

    def test_progress_printer_formats_lines(self, capsys):
        bus = ProgressBus()
        bus.subscribe(ProgressPrinter())
        FASTSearch(_problem(), optimizer="random", seed=0, progress=bus).run(3)
        out = capsys.readouterr().out
        assert "search:" in out and "done:" in out


# ---------------------------------------------------------------------------
class TestGraphCache:
    def test_clear_graph_cache(self):
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        evaluator.evaluate_params(
            space.from_config(
                __import__("repro.core.designs", fromlist=["FAST_SMALL"]).FAST_SMALL
            ),
            space,
        )
        assert trial_module._GRAPH_CACHE
        clear_graph_cache()
        assert not trial_module._GRAPH_CACHE

    def test_cached_graphs_are_reused_by_identity(self):
        # Graphs are immutable data: workers inherit warm entries through
        # fork and every same-process caller gets the identical object.
        first = trial_module._cached_graph("efficientnet-b0", 1)
        again = trial_module._cached_graph("efficientnet-b0", 1)
        assert first is again
        clear_graph_cache()


# ---------------------------------------------------------------------------
class TestBestScoreAndSerialization:
    def test_best_score_nan_when_nothing_feasible(self):
        problem = SearchProblem(
            ["efficientnet-b0"],
            constraints=EvaluationConstraints(max_area_mm2=1.0, max_tdp_w=1.0),
        )
        result = FASTSearch(problem, optimizer="random", seed=0).run(3)
        assert result.best_metrics is None
        assert math.isnan(result.best_score)

    def test_search_result_serializes_nan_best_as_null(self):
        from repro.reporting.serialization import search_result_to_dict

        problem = SearchProblem(
            ["efficientnet-b0"],
            constraints=EvaluationConstraints(max_area_mm2=1.0, max_tdp_w=1.0),
        )
        result = FASTSearch(problem, optimizer="random", seed=0).run(3)
        payload = search_result_to_dict(result)
        assert payload["best_score"] is None
        json.dumps(payload)  # strictly JSON-compatible

    def test_runtime_stats_serialized(self):
        from repro.reporting.serialization import search_result_to_dict

        result = FASTSearch(_problem(), optimizer="random", seed=0).run(4, batch_size=2)
        payload = search_result_to_dict(result)
        assert payload["runtime"]["batches"] == 2
        assert payload["runtime"]["trials_evaluated"] == 4

    def test_params_jsonable_round_trip(self):
        space = DatapathSearchSpace()
        params = space.sample(RandomSearchOptimizer(space, seed=9).rng)
        encoded = params_to_jsonable(params)
        json.dumps(encoded)
        assert params_from_jsonable(encoded, space) == params

    def test_trial_metrics_round_trip(self):
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        metrics = evaluator.evaluate_params(
            space.from_config(
                __import__("repro.core.designs", fromlist=["FAST_SMALL"]).FAST_SMALL
            ),
            space,
        )
        data = trial_metrics_to_dict(metrics)
        restored = trial_metrics_from_dict(data)
        assert trial_metrics_to_dict(restored) == data
