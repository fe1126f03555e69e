"""Remote evaluation service, async remote executor, and cross-shard exchange.

The fault-injection fixture drives the retry / hedging / blacklist /
straggler paths of :class:`~repro.runtime.remote.AsyncRemoteExecutor`
against a real in-process :class:`~repro.runtime.service.EvaluationService`:
a :class:`~repro.runtime.faults.FaultPlan` (the runtime's real injector,
attached as the service's ``fault_injector``) decides, per incoming
request, whether the service answers normally, delays, returns an error,
or drops the connection.

The invariant under test everywhere: faults may slow a batch down or fail it
loudly, but the merged trial history is either bit-for-bit equal to the
serial executor's or an exception is raised — never reordered, never
partial.
"""

from __future__ import annotations

import contextlib
import http.server
import json
import math
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.core.trial import TrialEvaluator
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import params_from_jsonable, trial_metrics_to_dict
from repro.runtime.exchange import (
    ExchangeClient,
    FileScoreboard,
    ScoreRecord,
    ServiceScoreboard,
    make_scoreboard,
)
from repro.runtime.executor import SerialExecutor, make_executor
from repro.runtime.faults import FaultPlan
from repro.runtime.remote import AsyncRemoteExecutor, RemoteExecutionError
from repro.runtime import remote, service as service_module
from repro.runtime.service import MAX_BODY_BYTES, MAX_PARAMS_PER_REQUEST, EvaluationService
from repro.runtime.sharding import run_sharded_sweep
from repro.runtime.telemetry import Tracer, get_tracer, set_tracer
from repro.search.annealing import SimulatedAnnealingOptimizer
from repro.search.bayesian import BayesianOptimizer


def _problem():
    return SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP)


def _history_dicts(result):
    return [trial_metrics_to_dict(m) for m in result.history]


@pytest.fixture(scope="module")
def serial_reference():
    """The 16-trial serial history every remote run must reproduce."""
    return FASTSearch(_problem(), optimizer="lcs", seed=0).run(num_trials=16, batch_size=4)


@pytest.fixture()
def flaky_service():
    """A running evaluation service with an attached :class:`FaultPlan`."""
    service = EvaluationService()
    plan = FaultPlan()
    service.fault_injector = plan
    service.start()
    yield service, plan
    service.close()


def _remote(urls, **overrides):
    options = dict(timeout=30.0, max_retries=3, backoff=0.01, hedge_after=None)
    options.update(overrides)
    return AsyncRemoteExecutor(urls, **options)


def _evaluated(params):
    """The metrics records a service would return for ``params``."""
    space = DatapathSearchSpace()
    evaluator = TrialEvaluator(_problem())
    return [
        trial_metrics_to_dict(evaluator.evaluate_params(params_from_jsonable(p, space), space))
        for p in params
    ]


@contextlib.contextmanager
def _replying_service(reply):
    """A stand-in service answering each POST with 200 and ``reply(params)``."""

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 - stdlib naming
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            body = reply(payload["params"])
            data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _run_remote(executor, trials=16, batch_size=4, seed=0):
    try:
        return FASTSearch(_problem(), optimizer="lcs", seed=seed, executor=executor).run(
            num_trials=trials, batch_size=batch_size
        )
    finally:
        executor.close()


# ---------------------------------------------------------------------------
# Happy path: equivalence and stats plumbing
# ---------------------------------------------------------------------------
class TestRemoteEquivalence:
    def test_remote_reproduces_serial_history(self, flaky_service, serial_reference):
        service, _ = flaky_service
        result = _run_remote(_remote([service.url]))
        assert result.proposals == serial_reference.proposals
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert result.best_score_curve == serial_reference.best_score_curve

    def test_runtime_stats_carry_endpoint_counters(self, flaky_service):
        service, _ = flaky_service
        result = _run_remote(_remote([service.url]))
        stats = result.runtime
        assert stats.remote_batches == 4
        assert stats.remote_requests >= 4
        assert service.url in stats.endpoint_stats
        per_endpoint = stats.endpoint_stats[service.url]
        assert per_endpoint["successes"] == per_endpoint["requests"] >= 4
        assert per_endpoint["latency_seconds"] > 0

    def test_batches_past_the_request_cap_are_split(
        self, flaky_service, serial_reference, monkeypatch
    ):
        # A cap of 3 under batches of 4: one endpoint takes chunks of 3 and
        # 1, and the service refuses any longer request.
        monkeypatch.setattr(remote, "MAX_PARAMS_PER_REQUEST", 3)
        monkeypatch.setattr(service_module, "MAX_PARAMS_PER_REQUEST", 3)
        service, _ = flaky_service
        result = _run_remote(_remote([service.url], local_fallback=False))
        assert result.proposals == serial_reference.proposals
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert service.stats.batches == 8
        assert service.stats.trials_evaluated == 16

    def test_chunks_split_across_endpoints(self, serial_reference):
        with EvaluationService() as a, EvaluationService() as b:
            executor = _remote([a.url, b.url])
            result = _run_remote(executor)
            assert _history_dicts(result) == _history_dicts(serial_reference)
            requests = {
                url: counters["requests"]
                for url, counters in result.runtime.endpoint_stats.items()
            }
            assert all(count > 0 for count in requests.values())

    def test_restricted_space_shard_evaluates_remotely(self, flaky_service):
        """Space-mode shards ship their restricted space with each request."""
        from repro.runtime.sharding import ShardSpec, run_shard

        service, _ = flaky_service
        spec = ShardSpec(
            shard_id=0, num_shards=2, seed=11, num_trials=6,
            mode="space", partition_axis="l3_global_buffer_mib",
        )
        local = run_shard(_problem(), spec, optimizer="random", batch_size=3)
        executor = _remote([service.url])
        try:
            remote = run_shard(
                _problem(), spec, optimizer="random", batch_size=3, executor=executor
            )
        finally:
            executor.close()
        assert remote.proposals == local.proposals
        assert [trial_metrics_to_dict(m) for m in remote.history] == [
            trial_metrics_to_dict(m) for m in local.history
        ]
        assert service.stats.fingerprint_rejections == 0

    def test_order_preserved_with_single_trial_chunks(self, flaky_service):
        service, plan = flaky_service
        # Delay a middle request: its chunk must still land in its slot.
        plan.at(2, ("delay", 0.4))
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        rng = np.random.default_rng(3)
        batch = [space.sample(rng) for _ in range(5)]
        expected = SerialExecutor().evaluate_batch(evaluator, space, batch)
        executor = _remote([service.url], chunk_size=1)
        try:
            got = executor.evaluate_batch(evaluator, space, batch)
        finally:
            executor.close()
        assert [trial_metrics_to_dict(m) for m in got] == [
            trial_metrics_to_dict(m) for m in expected
        ]


# ---------------------------------------------------------------------------
# Fault injection: retry, timeout, hedging, blacklist
# ---------------------------------------------------------------------------
class TestFaultHandling:
    def test_transient_errors_are_retried(self, flaky_service, serial_reference):
        service, plan = flaky_service
        plan.at(0, ("error",)).at(1, ("error",))
        executor = _remote([service.url])
        result = _run_remote(executor)
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert result.runtime.remote_retries >= 1
        assert result.runtime.remote_failures >= 1

    def test_dropped_connections_are_retried(self, flaky_service, serial_reference):
        service, plan = flaky_service
        plan.at(0, ("drop",))
        result = _run_remote(_remote([service.url]))
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert result.runtime.remote_retries >= 1

    def test_timeouts_are_retried(self, flaky_service, serial_reference):
        service, plan = flaky_service
        plan.at(0, ("delay", 2.0))
        executor = _remote([service.url], timeout=0.5)
        result = _run_remote(executor)
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert result.runtime.remote_retries >= 1
        assert result.runtime.endpoint_stats[service.url]["timeouts"] >= 1

    def test_straggler_is_hedged_first_result_wins(self, serial_reference):
        with EvaluationService() as healthy:
            slow = EvaluationService()
            plan = FaultPlan()
            slow.fault_injector = plan
            plan.default = ("delay", 5.0)  # every request to `slow` straggles
            slow.start()
            try:
                executor = _remote(
                    [slow.url, healthy.url],
                    hedge_after=0.2,
                    timeout=30.0,
                    max_retries=2,
                )
                result = _run_remote(executor)
            finally:
                slow.close()
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert result.runtime.remote_hedges >= 1
        # Hedges were re-dispatched away from the straggler.
        assert result.runtime.endpoint_stats[healthy.url]["successes"] >= 1

    def test_failing_endpoint_is_blacklisted(self, flaky_service, serial_reference):
        bad = EvaluationService()
        bad_plan = FaultPlan()
        bad_plan.default = ("error",)
        bad.fault_injector = bad_plan
        bad.start()
        service, _ = flaky_service
        try:
            executor = _remote([bad.url, service.url], blacklist_after=2)
            result = _run_remote(executor)
        finally:
            bad.close()
        assert _history_dicts(result) == _history_dicts(serial_reference)
        endpoint = result.runtime.endpoint_stats[bad.url]
        assert endpoint["failures"] >= 2
        assert endpoint["blacklisted"] == 1.0
        assert result.runtime.endpoint_stats[service.url]["successes"] > 0

    def test_all_endpoints_failing_raises_without_fallback(self, flaky_service):
        service, plan = flaky_service
        plan.default = ("error",)
        executor = _remote([service.url], max_retries=1, local_fallback=False)
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        batch = [space.sample(np.random.default_rng(0))]
        try:
            with pytest.raises(RemoteExecutionError):
                executor.evaluate_batch(evaluator, space, batch)
        finally:
            executor.close()

    def test_all_endpoints_failing_falls_back_locally(self, flaky_service):
        """Default behavior: an unevaluable batch degrades to in-process
        serial evaluation instead of failing the search."""
        service, plan = flaky_service
        plan.default = ("error",)
        evaluator = TrialEvaluator(_problem())
        space = DatapathSearchSpace()
        batch = [space.sample(np.random.default_rng(0)) for _ in range(3)]
        expected = SerialExecutor().evaluate_batch(evaluator, space, batch)
        executor = _remote([service.url], max_retries=1)
        try:
            got = executor.evaluate_batch(evaluator, space, batch)
            counters = executor.runtime_counters()
        finally:
            executor.close()
        assert [trial_metrics_to_dict(m) for m in got] == [
            trial_metrics_to_dict(m) for m in expected
        ]
        assert counters["remote_fallbacks"] == 1

    def test_fallback_search_reproduces_serial_history(self, flaky_service,
                                                       serial_reference):
        service, plan = flaky_service
        plan.default = ("error",)
        executor = _remote([service.url], max_retries=1)
        result = _run_remote(executor)
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert result.runtime.remote_fallbacks == 4  # every batch degraded

    @pytest.mark.parametrize(
        "reply",
        [
            lambda params: {"results": [{} for _ in params]},
            lambda params: [{} for _ in params],
            lambda params: "not json",
            lambda params: {"results": _evaluated(params), "spans": [1]},
        ],
        ids=["undecodable-results", "non-object", "non-json", "undecodable-spans"],
    )
    def test_a_malformed_reply_is_an_endpoint_failure(self, reply):
        # A 200 whose body is not one metrics record per param, or whose
        # spans do not decode while the client traces, is retried and then
        # evaluated by the local fallback, never raised.
        saved = get_tracer()
        set_tracer(Tracer(enabled=True))
        try:
            with _replying_service(reply) as url:
                result = _run_remote(_remote([url], max_retries=1), trials=4)
        finally:
            set_tracer(saved)
        reference = FASTSearch(_problem(), optimizer="lcs", seed=0).run(
            num_trials=4, batch_size=4
        )
        assert _history_dicts(result) == _history_dicts(reference)
        assert result.runtime.remote_fallbacks == 1
        assert result.runtime.remote_failures == 2

    def test_blacklisting_every_endpoint_forgives_gracefully(self, flaky_service,
                                                             serial_reference):
        service, plan = flaky_service
        plan.at(0, ("error",)).at(1, ("error",))
        # blacklist_after=1: the sole endpoint is blacklisted on the first
        # error, then forgiven because it is all we have.
        executor = _remote([service.url], blacklist_after=1, max_retries=3)
        result = _run_remote(executor)
        assert _history_dicts(result) == _history_dicts(serial_reference)
        assert result.runtime.remote_blacklist_resets >= 1


# ---------------------------------------------------------------------------
# Service protocol
# ---------------------------------------------------------------------------
class TestServiceProtocol:
    def test_health_endpoint(self, flaky_service):
        service, _ = flaky_service
        with urllib.request.urlopen(service.url + "/health", timeout=5) as response:
            body = json.loads(response.read())
        assert body["status"] == "ok"
        assert body["requests"] >= 1

    def test_fingerprint_mismatch_is_rejected(self, flaky_service):
        service, _ = flaky_service
        payload = {
            "fingerprint": "not-the-real-fingerprint",
            "problem": {"workloads": ["efficientnet-b0"], "objective": "perf_per_tdp"},
            "options": {"num_cores": 1, "simulation_options": {"fusion_solver": "greedy"}},
            "params": [],
        }
        request = urllib.request.Request(
            service.url + "/evaluate",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read())
        assert body["client_fingerprint"] == "not-the-real-fingerprint"
        assert service.stats.fingerprint_rejections == 1

    def test_request_store_paths_and_urls_are_ignored(self, tmp_path):
        from repro.core.designs import FAST_SMALL
        from repro.reporting.serialization import (
            params_to_jsonable,
            search_problem_to_dict,
            simulation_options_to_dict,
        )
        from repro.runtime.cache import problem_fingerprint
        from repro.runtime.opcache import reset_op_caches
        from repro.simulator.enginespec import EngineSpec

        problem = _problem()
        space = DatapathSearchSpace()
        rng = np.random.default_rng(5)
        params = [space.from_config(FAST_SMALL)] + [space.sample(rng) for _ in range(3)]
        options = EngineSpec(region_store=str(tmp_path / "regions.jsonl")).to_simulation_options(
            fusion_solver="greedy", op_cache_path=str(tmp_path / "ops.jsonl")
        )
        client = TrialEvaluator(problem, simulation_options=options)
        # Clients built while a cache-service URL was an option still send it.
        sim_payload = dict(
            simulation_options_to_dict(options), region_cache_service="http://127.0.0.1:9"
        )
        payload = {
            "fingerprint": problem_fingerprint(problem, client, space),
            "problem": search_problem_to_dict(problem),
            "options": {"num_cores": 1, "simulation_options": sim_payload},
            "params": [params_to_jsonable(p) for p in params],
        }
        reset_op_caches()
        with EvaluationService() as service:
            status, body = service.evaluate_payload(payload)
        local = TrialEvaluator(problem)
        assert status == 200
        assert body["results"] == [
            trial_metrics_to_dict(local.evaluate_params(p, space)) for p in params
        ]
        assert any(result["feasible"] for result in body["results"])
        assert list(tmp_path.iterdir()) == []
        reset_op_caches()

    @pytest.mark.parametrize(
        "malformed, named",
        [
            (lambda p: {k: v for k, v in p.items() if k != "pes_x_dim"}, "pes_x_dim"),
            (lambda p: dict(p, bogus=5), "bogus"),
            (lambda p: 5, "not a JSON object"),
        ],
        ids=["missing-param", "extra-param", "a-number"],
    )
    def test_malformed_params_are_refused_before_any_is_evaluated(self, malformed, named):
        from repro.core.designs import FAST_SMALL
        from repro.reporting.serialization import params_to_jsonable, search_problem_to_dict

        space = DatapathSearchSpace()
        valid = params_to_jsonable(space.from_config(FAST_SMALL))
        payload = {
            "problem": search_problem_to_dict(_problem()),
            "params": [valid, malformed(valid)],
        }
        with EvaluationService() as service:
            status, body = service.evaluate_payload(payload)
            assert status == 400
            assert named in body["error"]
            assert service.stats.trials_evaluated == 0
            assert service.stats.batches == 0

    def test_malformed_request_is_a_client_error(self, flaky_service):
        service, _ = flaky_service
        request = urllib.request.Request(
            service.url + "/evaluate",
            data=b"{\"problem\": {}}",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_malformed_scoreboard_record_is_a_client_error(self, flaky_service):
        service, _ = flaky_service
        request = urllib.request.Request(
            service.url + "/scoreboard",
            data=json.dumps({"shard_id": 1, "objective": 2.0, "trials": "abc"}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert service.scoreboard_snapshot() == {"scores": {}}

    def test_unknown_path_is_404(self, flaky_service):
        service, _ = flaky_service
        for path in ("/nope", "/cache/region"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(service.url + path, timeout=5)
            assert excinfo.value.code == 404, path

    def test_no_request_can_change_what_the_service_computes(self, tmp_path):
        from repro.core.designs import FAST_LARGE
        from repro.reporting.serialization import (
            params_to_jsonable,
            search_problem_to_dict,
            simulation_options_to_dict,
        )
        from repro.runtime.opcache import reset_op_caches
        from repro.simulator.engine import SimulationOptions

        problem = _problem()
        space = DatapathSearchSpace()
        params = space.from_config(FAST_LARGE)
        options = SimulationOptions(fusion_solver="greedy")
        evaluate = {
            "problem": search_problem_to_dict(problem),
            "options": {
                "num_cores": 1,
                "simulation_options": simulation_options_to_dict(options),
            },
            "params": [params_to_jsonable(params)],
        }
        # The digests of the design's real region keys: an upload that could
        # plant failure entries under them would turn the design infeasible.
        store = tmp_path / "regions.jsonl"
        options.region_store_path = str(store)
        TrialEvaluator(problem, simulation_options=options).evaluate_params(params, space)
        upload = {
            "fingerprint": "0123456789abcdef",
            "entries": {
                json.loads(line)["key"]: {"failed": True}
                for line in store.read_text().splitlines()
            },
        }

        def request(url, payload, method="POST"):
            request = urllib.request.Request(
                url,
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method=method,
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                return json.loads(response.read())

        reset_op_caches()
        with EvaluationService() as fresh:
            expected = request(fresh.url + "/evaluate", evaluate)["results"]
        assert expected[0]["feasible"]
        reset_op_caches()
        with EvaluationService() as service:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                request(service.url + "/cache/region", upload, method="PUT")
            assert excinfo.value.code == 501
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                request(service.url + "/cache/region", upload, method="GET")
            assert excinfo.value.code == 404
            assert request(service.url + "/evaluate", evaluate)["results"] == expected
        reset_op_caches()

    def test_params_past_the_cap_are_refused_before_decoding(self, flaky_service):
        service, _ = flaky_service
        # Entries that would not decode: a 413 shows none was decoded.
        payload = {"problem": {}, "params": [{}] * (MAX_PARAMS_PER_REQUEST + 1)}
        request = urllib.request.Request(
            service.url + "/evaluate",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413
        assert "error" in json.loads(excinfo.value.read())
        assert service.stats.batches == 0
        assert service.stats.trials_evaluated == 0

    @staticmethod
    def _raw_post(service, content_length: str):
        """POST a bare header block over a socket; returns (status, body)."""
        request = (
            "POST /evaluate HTTP/1.1\r\n"
            "Host: localhost\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        )
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.sendall(request.encode())
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        return int(head.split()[1]), json.loads(body)

    @pytest.mark.parametrize(
        "content_length, status",
        [("abc", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length_is_refused(self, flaky_service, content_length, status):
        service, _ = flaky_service
        code, body = self._raw_post(service, content_length)
        assert code == status
        assert "error" in body
        with urllib.request.urlopen(service.url + "/health", timeout=5) as response:
            assert json.loads(response.read())["status"] == "ok"


# ---------------------------------------------------------------------------
# Executor registry
# ---------------------------------------------------------------------------
class TestExecutorRegistry:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            make_executor(kind="quantum")

    def test_remote_kind_requires_endpoints(self):
        with pytest.raises(ValueError, match="endpoint"):
            make_executor(kind="remote")

    def test_default_kinds_unchanged(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert make_executor(2).name == "parallel"


# ---------------------------------------------------------------------------
# Cross-shard exchange
# ---------------------------------------------------------------------------
class TestScoreboards:
    def test_file_scoreboard_roundtrip(self, tmp_path):
        board = FileScoreboard(tmp_path / "scores.json")
        board.publish(ScoreRecord(shard_id=0, objective=-2.0, score=2.0, trials=8))
        board.publish(ScoreRecord(shard_id=1, objective=-3.0, score=3.0, trials=8))
        # A worse later publish must not clobber a shard's best.
        board.publish(ScoreRecord(shard_id=1, objective=-1.0, score=1.0, trials=16))
        scores = board.poll()
        assert set(scores) == {0, 1}
        assert scores[1].objective == -3.0
        best = board.best_external(0)
        assert best is not None and best.shard_id == 1

    def test_file_scoreboard_own_shard_excluded(self, tmp_path):
        board = FileScoreboard(tmp_path / "scores.json")
        board.publish(ScoreRecord(shard_id=0, objective=-2.0, score=2.0))
        assert board.best_external(0) is None

    def test_service_scoreboard_roundtrip(self, flaky_service):
        service, _ = flaky_service
        board = ServiceScoreboard(service.url)
        board.publish(ScoreRecord(shard_id=2, objective=-5.0, score=5.0, trials=4))
        board.publish(ScoreRecord(shard_id=2, objective=-4.0, score=4.0, trials=8))
        scores = board.poll()
        assert scores[2].objective == -5.0
        assert board.best_external(0).shard_id == 2

    def test_make_scoreboard_dispatch(self, tmp_path):
        assert isinstance(make_scoreboard(tmp_path / "s.json"), FileScoreboard)
        assert isinstance(make_scoreboard("http://localhost:1"), ServiceScoreboard)
        board = FileScoreboard(tmp_path / "s.json")
        assert make_scoreboard(board) is board

    def test_exchange_client_feeds_only_improvements(self, tmp_path):
        board = FileScoreboard(tmp_path / "scores.json")
        client = ExchangeClient(board, shard_id=0)
        board.publish(ScoreRecord(shard_id=1, objective=-2.0, score=2.0))
        first = client.poll_external_best()
        assert first is not None and first.objective == -2.0
        assert client.poll_external_best() is None  # no improvement since
        board.publish(ScoreRecord(shard_id=2, objective=-3.0, score=3.0))
        assert client.poll_external_best().objective == -3.0
        assert client.adopted == 2


class TestExchangeHooks:
    def test_annealing_adopts_external_incumbent_without_rng_use(self):
        space = DatapathSearchSpace()
        optimizer = SimulatedAnnealingOptimizer(space, seed=0)
        params = space.sample(np.random.default_rng(0))
        state_before = optimizer.rng.bit_generator.state
        optimizer.observe_external_best(-10.0, params)
        assert optimizer.rng.bit_generator.state == state_before
        assert optimizer.incumbent == params
        # A worse external best never displaces the incumbent.
        other = space.sample(np.random.default_rng(1))
        optimizer.observe_external_best(-5.0, other)
        assert optimizer.incumbent == params

    def test_annealing_ignores_scores_without_params(self):
        optimizer = SimulatedAnnealingOptimizer(DatapathSearchSpace(), seed=0)
        optimizer.observe_external_best(-10.0, None)
        assert optimizer.incumbent is None

    def test_bayesian_tightens_incumbent_best_y(self):
        space = DatapathSearchSpace()
        optimizer = BayesianOptimizer(space, seed=0, num_initial_random=2)
        rng = np.random.default_rng(0)
        for objective in (-1.0, -2.0, -1.5):
            optimizer.tell(space.sample(rng), objective)
        usable = [obs for obs in optimizer.observations if math.isfinite(obs.objective)]
        _, _, best_plain = optimizer._training_data(usable)
        optimizer.observe_external_best(-50.0)
        _, _, best_external = optimizer._training_data(usable)
        assert best_external < best_plain

    def test_sweep_with_exchange_is_deterministic(self, tmp_path):
        kwargs = dict(
            total_trials=12,
            num_shards=2,
            optimizer="annealing",
            seed=7,
            batch_size=4,
        )
        first = run_sharded_sweep(
            _problem(), exchange=tmp_path / "a" / "scores.json", **kwargs
        )
        second = run_sharded_sweep(
            _problem(), exchange=tmp_path / "b" / "scores.json", **kwargs
        )
        assert [t.params for t in first.trials] == [t.params for t in second.trials]
        assert first.runtime.exchange_published == second.runtime.exchange_published
        assert first.runtime.exchange_published >= 1

    def test_one_shard_sweep_with_exchange_matches_plain_search(self, tmp_path):
        plain = FASTSearch(_problem(), optimizer="annealing", seed=3).run(
            num_trials=12, batch_size=4
        )
        sweep = run_sharded_sweep(
            _problem(),
            total_trials=12,
            num_shards=1,
            optimizer="annealing",
            seed=3,
            batch_size=4,
            exchange=tmp_path / "scores.json",
        )
        assert [t.params for t in sweep.trials] == plain.proposals
        assert [trial_metrics_to_dict(t.metrics) for t in sweep.trials] == _history_dicts(
            plain
        )

    def test_exchange_off_is_the_default(self, tmp_path):
        sweep = run_sharded_sweep(
            _problem(), total_trials=8, num_shards=2, optimizer="annealing", seed=1
        )
        assert sweep.runtime.exchange_published == 0
        assert list(tmp_path.iterdir()) == []
