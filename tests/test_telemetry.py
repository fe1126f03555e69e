"""End-to-end tracing + metrics telemetry layer.

Covers the span tracer (nesting, timing monotonicity, sampling determinism,
ring-buffer bounds, ingest dedup, per-name totals), the trace file formats
(Chrome trace_event schema, JSONL round trip), the profile stage columns built
from span totals, the Prometheus text exposition (golden output,
label escaping), and the cross-process plumbing: worker spans merged into the
parent trace exactly once, trace context propagated from a remote search into
the evaluation service, and the hard invariant that tracing never changes a
search's trial history.
"""

from __future__ import annotations

import io
import json
import time
import urllib.request

import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.reporting.serialization import trial_metrics_to_dict
from repro.runtime import telemetry
from repro.runtime.executor import ParallelExecutor
from repro.runtime.profiling import (
    PROFILE_MODES,
    _stage_seconds,
    profile_search,
    summarize_trace,
)
from repro.runtime.progress import TRIAL_FINISHED, ProgressBus, ProgressPrinter
from repro.runtime.remote import AsyncRemoteExecutor
from repro.runtime.service import EvaluationService
from repro.runtime.telemetry import (
    NULL_SPAN,
    MetricsRegistry,
    SpanRecord,
    Tracer,
    apply_telemetry_config,
    configure_tracer,
    get_tracer,
    load_trace,
    set_tracer,
    telemetry_config,
    write_chrome_trace,
    write_jsonl_trace,
)


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Restore the global tracer after every test."""
    saved = telemetry.get_tracer()
    yield
    telemetry.set_tracer(saved)


def _problem():
    return SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)


def _run_search(executor=None, trials=8, batch_size=4):
    search = FASTSearch(_problem(), optimizer="lcs", seed=0, executor=executor)
    return search.run(num_trials=trials, batch_size=batch_size)


def _history(result):
    return [trial_metrics_to_dict(m) for m in result.history]


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_timing_monotonicity(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent", category="t") as parent:
            time.sleep(0.002)
            with tracer.span("child") as child:
                time.sleep(0.002)
            assert tracer.current_span() is parent
        assert tracer.current_span() is None
        records = {r.name: r for r in tracer.snapshot()}
        p, c = records["parent"], records["child"]
        assert c.parent_id == p.span_id
        assert c.trace_id == p.trace_id
        assert p.parent_id is None
        assert 0 < c.duration < p.duration
        # Child starts after the parent and ends before the parent's end
        # (wall starts + perf-counter durations: allow clock-mixing slop).
        assert c.start_unix >= p.start_unix - 5e-3
        assert c.start_unix + c.duration <= p.start_unix + p.duration + 5e-3

    def test_span_ids_unique_and_attrs(self):
        tracer = Tracer(enabled=True)
        for i in range(50):
            with tracer.span("s", index=i) as span:
                span.set_attr("extra", i * 2)
        records = tracer.snapshot()
        assert len({r.span_id for r in records}) == 50
        assert records[7].attrs == {"index": 7, "extra": 14}

    def test_sampling_deterministic_and_children_inherit(self):
        def run(seed):
            tracer = Tracer(enabled=True, sample_rate=0.5, seed=seed)
            for i in range(20):
                with tracer.span(f"root{i}"):
                    with tracer.span("inner"):
                        pass
            return [r.name for r in tracer.snapshot()]

        names = run(7)
        assert names == run(7)  # same seed -> identical sampling decisions
        assert any(run(seed) != names for seed in (1, 2, 3))
        roots = [n for n in names if n.startswith("root")]
        assert 0 < len(roots) < 20  # rate 0.5 keeps a strict subset
        # A sampled root records its whole subtree; a dropped root drops it.
        assert names.count("inner") == len(roots)

    def test_ring_buffer_bounds_and_drop_counter(self):
        tracer = Tracer(enabled=True, capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        kept = tracer.snapshot()
        assert len(kept) == 4
        assert [r.name for r in kept] == ["s6", "s7", "s8", "s9"]
        assert tracer.dropped == 6
        assert tracer.total_recorded == 10
        # The totals keep counting the six spans the buffer evicted.
        assert {name: count for name, (count, _) in tracer.totals.items()} == {
            f"s{i}": 1 for i in range(10)
        }

    def test_ingest_dedup_is_exactly_once(self):
        source = Tracer(enabled=True)
        with source.span("a"):
            pass
        payload = [r.to_dict() for r in source.drain()]
        sink = Tracer(enabled=True)
        assert sink.ingest(payload) == 1
        totals = {"a": [1, payload[0]["duration"]]}
        assert sink.totals == totals
        assert sink.ingest(payload) == 0  # hedged/retried redelivery
        assert len(sink.snapshot()) == 1
        assert sink.totals == totals

    def test_totals_count_and_time_every_span_name(self):
        tracer = Tracer(enabled=True)
        for _ in range(2):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    time.sleep(0.001)
        tracer.record_span("search", start_unix=0.0, duration=0.5)
        records = tracer.snapshot()
        for name in ("outer", "inner"):
            count, seconds = tracer.totals[name]
            assert count == 2
            assert seconds == pytest.approx(sum(r.duration for r in records if r.name == name))
            assert seconds > 0
        assert tracer.totals["search"] == [1, 0.5]

    def test_unsampled_and_disabled_spans_stay_out_of_totals(self):
        tracer = Tracer(enabled=True, sample_rate=0.5, seed=7)
        for i in range(20):
            with tracer.span(f"root{i}"):
                with tracer.span("inner"):
                    pass
        kept = [r.name for r in tracer.snapshot()]
        assert 0 < kept.count("inner") < 20
        assert {name: count for name, (count, _) in tracer.totals.items()} == {
            name: kept.count(name) for name in kept
        }
        disabled = Tracer(enabled=False)
        with disabled.span("x"):
            pass
        assert disabled.record_span("search", start_unix=0.0, duration=1.0) is None
        assert disabled.totals == {}

    def test_clear_resets_totals(self):
        tracer = Tracer(enabled=True)
        with tracer.span("cold"):
            pass
        tracer.clear()
        assert tracer.totals == {}
        with tracer.span("timed"):
            pass
        assert list(tracer.totals) == ["timed"]
        assert tracer.totals["timed"][0] == 1

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        handle = tracer.span("x", foo=1)
        assert handle is NULL_SPAN
        with handle as span:
            span.set_attr("y", 2)  # chainable no-op
        assert tracer.snapshot() == []
        assert tracer.context_header() is None

    def test_worker_config_roundtrip(self):
        configure_tracer(enabled=True, sample_rate=0.5, seed=3, capacity=128)
        config = telemetry_config()
        assert config is not None and config["sample_rate"] == 0.5
        fresh = apply_telemetry_config(config)
        assert fresh is get_tracer()
        assert fresh.enabled
        # Same trace id (worker spans join the parent trace), fresh buffer.
        assert fresh.config()["trace_id"] == config["trace_id"]
        assert fresh.snapshot() == []
        assert not apply_telemetry_config(None).enabled
        assert telemetry_config() is None

    def test_record_span_for_synthesized_roots(self):
        tracer = Tracer(enabled=True)
        record = tracer.record_span(
            "search", start_unix=100.0, duration=2.5, category="search", n=4
        )
        assert record is not None and record.attrs == {"n": 4}
        assert tracer.snapshot()[-1].name == "search"
        assert Tracer(enabled=False).record_span("x", 0.0, 1.0) is None


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------
class TestTraceFiles:
    def _traced(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", category="x", foo="bar"):
            with tracer.span("inner"):
                pass
        return tracer.snapshot()

    def test_chrome_trace_schema(self, tmp_path):
        records = self._traced()
        path = tmp_path / "trace.json"
        assert write_chrome_trace(records, str(path)) == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(spans) == 2
        assert metas and all(m["name"] == "process_name" for m in metas)
        for event in spans:
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert event["dur"] >= 0
            assert {"pid", "tid", "name", "cat", "args"} <= set(event)
        args_by_name = {e["name"]: e["args"] for e in spans}
        assert args_by_name["outer"]["foo"] == "bar"
        assert (
            args_by_name["inner"]["parent_id"]
            == args_by_name["outer"]["span_id"]
        )

    def test_chrome_trace_load_roundtrip(self, tmp_path):
        records = self._traced()
        path = tmp_path / "trace.json"
        write_chrome_trace(records, str(path))
        loaded = load_trace(str(path))
        assert [r.name for r in loaded] == [r.name for r in records]
        assert [r.span_id for r in loaded] == [r.span_id for r in records]
        assert [r.parent_id for r in loaded] == [r.parent_id for r in records]
        for got, want in zip(loaded, records):
            assert got.duration == pytest.approx(want.duration, abs=1e-6)

    def test_jsonl_roundtrip_exact(self, tmp_path):
        records = self._traced()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl_trace(records, str(path)) == 2
        loaded = load_trace(str(path))
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_single_line_jsonl_is_not_mistaken_for_chrome(self, tmp_path):
        records = self._traced()[:1]
        path = tmp_path / "one.jsonl"
        write_jsonl_trace(records, str(path))
        loaded = load_trace(str(path))
        assert len(loaded) == 1 and loaded[0].name == records[0].name

    def test_empty_file_loads_empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_trace(str(path)) == []


# ---------------------------------------------------------------------------
# Trace summary (repro trace)
# ---------------------------------------------------------------------------
class TestSummarizeTrace:
    def _span(self, name, span_id, parent_id=None, duration=1.0, category="app"):
        return SpanRecord(
            name=name,
            trace_id="t",
            span_id=span_id,
            parent_id=parent_id,
            start_unix=0.0,
            duration=duration,
            category=category,
        )

    def test_stage_aggregation_coverage_and_topk(self):
        records = [
            self._span("trial", "t1", duration=1.0, category="search"),
            self._span("simulate", "s1", parent_id="t1", duration=0.6),
            self._span("area_power", "a1", parent_id="t1", duration=0.35),
            self._span("trial", "t2", duration=1.0, category="search"),
            self._span("simulate", "s2", parent_id="t2", duration=0.9),
            self._span("ask_batch", "b1", duration=0.2),  # not a trial child
        ]
        summary = summarize_trace(records, top_k=2)
        assert summary.num_spans == 6
        assert summary.num_trials == 2
        assert summary.trial_seconds == pytest.approx(2.0)
        assert summary.coverage == pytest.approx((0.6 + 0.35 + 0.9) / 2.0)
        by_name = {s.name: s for s in summary.stages}
        assert by_name["simulate"].count == 2
        assert by_name["simulate"].total_seconds == pytest.approx(1.5)
        assert by_name["simulate"].mean_seconds == pytest.approx(0.75)
        assert summary.stages[0].name == "trial"  # sorted by total time
        assert [s.name for s in summary.slowest] == ["trial", "trial"]
        assert summary.to_dict()["num_trials"] == 2

    def test_no_trials_means_zero_coverage(self):
        summary = summarize_trace([self._span("x", "1")])
        assert summary.num_trials == 0 and summary.coverage == 0.0


# ---------------------------------------------------------------------------
# Profile stage columns (repro profile)
# ---------------------------------------------------------------------------
class TestProfileStages:
    def test_stage_columns_come_from_span_totals(self):
        stages = _stage_seconds({
            "batch_map": [2, 0.5],
            "map_ops_batch": [2, 0.375],  # nested inside batch_map: not added
            "map_op": [3, 0.25],
            "vector_op": [5, 0.125],
            "fusion": [1, 0.0625],
            "trial": [2, 1.5],
            "area_power": [2, 0.03125],
        })
        assert stages == {
            "mapper": 0.75,
            "vector": 0.125,
            "fusion": 0.0625,
            "evaluate": 1.5,
            "other": 0.5625,
        }
        assert _stage_seconds({}) == dict.fromkeys(stages, 0)

    def test_warm_profile_times_only_the_steady_state_run(self):
        caches = next(mode for mode in PROFILE_MODES if mode.name == "graph-batched+caches")

        def stages(warm_op_cache):
            report = profile_search(
                ["mobilenet-v2"], trials=4, batch_size=2,
                modes=[caches], warm_op_cache=warm_op_cache,
            )
            return report.records[0].stage_seconds

        cold = stages(warm_op_cache=False)
        assert cold["mapper"] > 0 and cold["vector"] > 0
        # The timed rerun is all region-cache hits: the totals were cleared
        # after the cold run, so its mapping and VPU time is not counted.
        warm = stages(warm_op_cache=True)
        assert warm["evaluate"] > 0
        assert warm["mapper"] == warm["vector"] == 0

    def test_profile_restores_the_callers_tracer_when_a_mode_fails(self, monkeypatch):
        real_run = FASTSearch.run
        runs = []

        def run(search, *args, **kwargs):
            runs.append(search)
            if len(runs) > 1:  # the warm-up pass succeeds, the profiled mode fails
                raise RuntimeError("mode failed")
            return real_run(search, *args, **kwargs)

        monkeypatch.setattr(FASTSearch, "run", run)
        caller = set_tracer(Tracer(enabled=True))
        with pytest.raises(RuntimeError, match="mode failed"):
            profile_search(["mobilenet-v2"], trials=2, batch_size=2, modes=PROFILE_MODES[:1])
        assert len(runs) == 2
        assert get_tracer() is caller


# ---------------------------------------------------------------------------
# Prometheus metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_exposition_golden(self):
        registry = MetricsRegistry()
        requests = registry.counter(
            "repro_requests_total", "Total requests.", labelnames=("route", "status")
        )
        requests.inc(route="/evaluate", status="200")
        requests.inc(2, route="/health", status="200")
        registry.gauge("repro_uptime_seconds", "Uptime.").set(12.5)
        latency = registry.histogram(
            "repro_latency_seconds",
            "Latency.",
            labelnames=("route",),
            buckets=(1.0, 5.0),
        )
        latency.observe(0.5, route="/evaluate")
        latency.observe(2.0, route="/evaluate")
        assert registry.expose() == (
            "# HELP repro_latency_seconds Latency.\n"
            "# TYPE repro_latency_seconds histogram\n"
            'repro_latency_seconds_bucket{route="/evaluate",le="1"} 1\n'
            'repro_latency_seconds_bucket{route="/evaluate",le="5"} 2\n'
            'repro_latency_seconds_bucket{route="/evaluate",le="+Inf"} 2\n'
            'repro_latency_seconds_sum{route="/evaluate"} 2.5\n'
            'repro_latency_seconds_count{route="/evaluate"} 2\n'
            "# HELP repro_requests_total Total requests.\n"
            "# TYPE repro_requests_total counter\n"
            'repro_requests_total{route="/evaluate",status="200"} 1\n'
            'repro_requests_total{route="/health",status="200"} 2\n'
            "# HELP repro_uptime_seconds Uptime.\n"
            "# TYPE repro_uptime_seconds gauge\n"
            "repro_uptime_seconds 12.5\n"
        )

    def test_label_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("v",))
        counter.inc(v='a"b\\c\nd')
        assert 'c_total{v="a\\"b\\\\c\\nd"} 1' in registry.expose()

    def test_counters_are_monotonic_and_labels_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("route",))
        with pytest.raises(ValueError):
            counter.inc(-1, route="/x")
        with pytest.raises(ValueError):
            counter.inc(bogus="label")
        with pytest.raises(ValueError):  # kind mismatch on re-registration
            registry.gauge("c_total", labelnames=("route",))
        assert registry.counter("c_total", labelnames=("route",)) is counter


# ---------------------------------------------------------------------------
# Search integration: determinism, worker merge, remote propagation
# ---------------------------------------------------------------------------
class TestSearchIntegration:
    def test_tracing_never_changes_the_history(self):
        baseline = _history(_run_search())
        configure_tracer(enabled=True, seed=0)
        traced = _run_search()
        assert _history(traced) == baseline
        assert traced.runtime.spans_recorded > 0
        # Sampling must not perturb results either (it uses a private RNG).
        configure_tracer(enabled=True, sample_rate=0.25, seed=9)
        assert _history(_run_search()) == baseline

    def test_trial_spans_cover_the_trial_wall_time(self):
        from repro.runtime.opcache import reset_op_caches, reset_region_caches

        # Cold caches: trials actually run the simulator stages, so the
        # measurement reflects a real (first-run) trial time profile.
        reset_op_caches()
        reset_region_caches()
        configure_tracer(enabled=True)
        _run_search()
        records = get_tracer().snapshot()
        summary = summarize_trace(records)
        assert summary.num_trials == 8
        # Feasible trials are where the time goes; their stage spans must
        # explain nearly all of it.  (Infeasible constraint-check trials are
        # microseconds of mostly constraint logic with no simulator stages,
        # so whole-trace coverage on a warm in-process run sits lower.)
        feasible_ids = {
            r.span_id
            for r in records
            if r.name == "trial" and r.attrs.get("feasible")
        }
        assert feasible_ids
        feasible_seconds = sum(
            r.duration for r in records if r.span_id in feasible_ids
        )
        child_seconds = sum(
            r.duration for r in records if r.parent_id in feasible_ids
        )
        assert child_seconds >= 0.9 * feasible_seconds
        assert summary.coverage > 0.5

    def test_parallel_worker_spans_merge_exactly_once(self):
        configure_tracer(enabled=True)
        executor = ParallelExecutor(num_workers=2)
        try:
            result = _run_search(executor=executor)
        finally:
            executor.close()
        records = get_tracer().snapshot()
        trials = [r for r in records if r.name == "trial"]
        assert len(trials) == 8
        assert len({r.span_id for r in trials}) == 8  # no duplicate delivery
        assert {r.trace_id for r in records} == {get_tracer().config()["trace_id"]}
        import os

        assert any(r.pid != os.getpid() for r in trials)  # really from workers
        assert result.runtime.spans_recorded == len(records)

    def test_worker_spans_count_once_in_totals(self):
        configure_tracer(enabled=True)
        executor = ParallelExecutor(num_workers=2)
        try:
            _run_search(executor=executor, trials=4, batch_size=2)
        finally:
            executor.close()
        tracer = get_tracer()
        trials = [r for r in tracer.snapshot() if r.name == "trial"]
        count, seconds = tracer.totals["trial"]
        assert count == len(trials) == 4
        assert seconds == pytest.approx(sum(r.duration for r in trials))

    def test_remote_trace_propagates_into_the_service(self):
        configure_tracer(enabled=True)
        with EvaluationService() as service:
            executor = AsyncRemoteExecutor(
                [service.url], timeout=30.0, max_retries=2, backoff=0.01,
                hedge_after=None,
            )
            try:
                _run_search(executor=executor)
            finally:
                executor.close()
        records = get_tracer().snapshot()
        by_name = {}
        for record in records:
            by_name.setdefault(record.name, []).append(record)
        requests = by_name.get("remote_request", [])
        served = by_name.get("serve_request", [])
        assert requests and served
        request_ids = {r.span_id for r in requests}
        batch_ids = {r.span_id for r in by_name.get("evaluate_batch", [])}
        # Server-side spans hang off the client's request spans, which hang
        # off the search's evaluate_batch spans: one connected trace.
        assert all(r.parent_id in request_ids for r in served)
        assert all(r.parent_id in batch_ids for r in requests)
        assert all(r.attrs.get("status") == "ok" for r in requests)

    def test_service_health_and_metrics_routes(self):
        with EvaluationService() as service:
            # Request counters are observed before the reply is written, so
            # the second /health response sees the first one counted.
            urllib.request.urlopen(f"{service.url}/health", timeout=10).read()
            with urllib.request.urlopen(f"{service.url}/health", timeout=10) as reply:
                health = json.loads(reply.read())
            with urllib.request.urlopen(f"{service.url}/metrics", timeout=10) as reply:
                assert reply.headers["Content-Type"].startswith("text/plain")
                exposition = reply.read().decode()
        assert health["uptime_seconds"] > 0
        assert health["requests_by_route"].get("/health") == 1
        assert "# TYPE repro_service_requests_total counter" in exposition
        assert "repro_service_uptime_seconds" in exposition
        # Every sample line must parse as `name{labels} value`.
        for line in exposition.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part and float(value) == float(value)


# ---------------------------------------------------------------------------
# Progress lines (cache hit rates) and the CLI surface
# ---------------------------------------------------------------------------
def test_progress_lines_show_cache_hit_rates():
    stream = io.StringIO()
    bus = ProgressBus()
    bus.subscribe(ProgressPrinter(stream=stream))
    bus.emit(
        TRIAL_FINISHED, trial_index=0, score=1.0, best_score=1.0, feasible=True,
        op_cache_hit_rate=0.5, region_cache_hit_rate=0.25,
    )
    bus.emit(TRIAL_FINISHED, trial_index=1, score=1.0, best_score=1.0, feasible=True)
    lines = stream.getvalue().splitlines()
    assert "oc=50%" in lines[0] and "rc=25%" in lines[0]
    assert "oc=" not in lines[1]  # omitted when the rates are unknown


def test_cli_traced_search_and_trace_summary(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "search.json"
    assert main([
        "search", "--workload", "efficientnet-b0", "--trials", "4",
        "--batch-size", "4", "--trace", str(trace_path),
    ]) == 0
    assert trace_path.exists()
    assert main(["trace", str(trace_path), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "trial time covered by stage spans" in out
    assert "Slowest spans" in out
