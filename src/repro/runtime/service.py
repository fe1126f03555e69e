"""Stdlib-only HTTP simulator evaluation service (``repro serve``).

The service turns one host into a remote trial evaluator: it accepts batches
of search-space parameter assignments plus a *problem fingerprint* over HTTP
and returns the evaluated :class:`~repro.core.trial.TrialMetrics`, letting
:class:`~repro.runtime.remote.AsyncRemoteExecutor` fan a search's batches out
to a fleet of such services instead of local worker processes.

Wire protocol (all bodies are JSON):

* ``POST /evaluate`` — request ``{"fingerprint", "problem", "options",
  "params": [...]}`` where ``problem`` / ``options`` are the
  :func:`~repro.reporting.serialization.search_problem_to_dict` /
  :func:`~repro.reporting.serialization.simulation_options_to_dict` forms and
  ``params`` is a list of jsonable parameter assignments.  The service
  rebuilds the evaluator, recomputes the fingerprint from what it rebuilt,
  and refuses (HTTP 409) on a mismatch — so a client can never silently mix
  histories from services running a different problem, space, or simulator
  configuration.  The request's performance-only simulation options
  (engine, caches, store paths, cache-service URL) are ignored: the service
  evaluates with its own.  Response: ``{"fingerprint", "results":
  [metrics...]}`` in request order.
* ``GET /cache/region`` / ``PUT /cache/region`` — the cluster tier of the
  shared cost-cache (see :mod:`repro.runtime.opcache`): GET takes
  ``{"fingerprint", "digests": [...]}`` and returns the known subset as
  ``{"entries": {digest: raw, ...}}``; PUT takes ``{"fingerprint",
  "entries": {...}}`` and answers ``{"stored": n}``.  A PUT is all or
  nothing: unless every digest is 64 lowercase hex digits and every entry
  decodes as a region entry, it answers HTTP 400 and stores nothing, so no
  client can plant an entry that would later fail the service's own
  evaluations.  Region digests are
  self-authenticating (each hashes the graph fingerprint plus the full
  mapping-relevant configuration), so the declared fingerprint is checked
  for form (16 lowercase hex digits, HTTP 400 otherwise) rather than
  recomputed; entries are served from — and persisted to, when
  ``--engine region_store=`` is set — the service's process-local
  :class:`~repro.runtime.opcache.RegionCostCache`.
* ``GET /scoreboard`` / ``POST /scoreboard`` — the service-backed
  cross-shard best-score exchange (see :mod:`repro.runtime.exchange`):
  shards POST ``{"shard_id", "objective", "score", "params", "trials"}``
  records and GET the per-shard best map back.
* ``GET /health`` — liveness plus request/trial counters, uptime, and
  per-route request counts.
* ``GET /metrics`` — Prometheus text exposition of the service's
  request/trial/cache/evaluation metrics (see
  :mod:`repro.runtime.telemetry`), ready for scraping.

Every request is wrapped in a ``serve_request`` telemetry span; when the
client sends an ``X-Repro-Trace-Context`` header (the remote executor does,
whenever its own tracing is on), the span is parented to the client's
request span and returned in the ``/evaluate`` response body, so one trace
shows the request on both sides of the wire.  Access logs are routed
through the ``repro.runtime.service`` logger at DEBUG instead of being
swallowed (``repro serve --verbose`` turns them on).

Evaluation is deterministic, so any mix of services and local executors
produces bit-for-bit identical metrics for the same parameters; ordering is
the *client's* responsibility (the remote executor reassembles responses in
proposal order).

The server is intentionally stdlib-only (:mod:`http.server`): it needs no
dependencies beyond what the library already uses, and a
:class:`ThreadingHTTPServer` is enough because trial evaluation — the actual
work — runs under an internal executor guarded by a lock (``--workers N``
parallelizes *within* a batch via the process-pool executor).
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.core.trial import TrialEvaluator
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import (
    params_from_jsonable,
    search_problem_from_dict,
    simulation_options_from_dict,
    trial_metrics_to_dict,
)
from repro.runtime.cache import _PERF_ONLY_SIMULATION_OPTIONS, problem_fingerprint
from repro.runtime.exchange import ScoreRecord
from repro.runtime.opcache import region_entry_from_dict
from repro.runtime.executor import TrialExecutor, make_executor
from repro.runtime.telemetry import (
    TRACE_CONTEXT_HEADER,
    MetricsRegistry,
    Tracer,
)

__all__ = ["ServiceStats", "EvaluationService", "serve"]

# Access logs and handler diagnostics.  DEBUG by default so tests and smoke
# runs stay quiet; ``repro serve --verbose`` raises the level to show them.
logger = logging.getLogger("repro.runtime.service")

#: Declared problem fingerprints are 16 lowercase hex digits (see
#: :func:`repro.runtime.cache.problem_fingerprint`).  Cache routes check the
#: form only: region digests are self-authenticating, but a malformed
#: fingerprint means a confused client and gets a 400 instead of silence.
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{16}")

#: Region digests are SHA-256 hex digests (see
#: :meth:`repro.runtime.opcache.CostCacheBase.digest`).
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")

#: Largest request body the service reads.  ``Content-Length`` comes from the
#: client, so a longer body is refused (HTTP 413) before any of it is read.
#: The in-repo clients send far less: a 32-entry region-cache PUT or one
#: ``/evaluate`` chunk of parameter assignments.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _BodyError(Exception):
    """A request body the service refuses; carries the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServiceStats:
    """Counters one service accumulates over its lifetime."""

    requests: int = 0
    batches: int = 0
    trials_evaluated: int = 0
    fingerprint_rejections: int = 0
    errors: int = 0
    region_cache_gets: int = 0
    region_cache_puts: int = 0
    region_entries_served: int = 0
    region_entries_stored: int = 0


def space_from_payload(payload: object) -> DatapathSearchSpace:
    """Rebuild a client's search space from its ``space`` wire form.

    The wire form is ``[[name, [value, ...]], ...]`` — the same shape the
    problem fingerprint hashes.  Starting from the default (full Table 3)
    space, each listed axis keeps only the named choices, matched by raw
    value (enums by their ``.value``).  This covers every space a sharded
    sweep produces (restrictions of the default space); a choice or axis the
    default space does not know raises ``ValueError``.
    """
    import copy
    import dataclasses as _dc

    space = DatapathSearchSpace()
    if payload is None:
        return space
    spec_by_name = {spec.name: spec for spec in space.specs}
    restricted = {}
    for name, values in payload:
        spec = spec_by_name.get(name)
        if spec is None:
            raise ValueError(f"unknown search-space axis {name!r}")
        by_raw = {getattr(choice, "value", choice): choice for choice in spec.choices}
        try:
            choices = tuple(by_raw[value] for value in values)
        except KeyError as error:
            raise ValueError(
                f"axis {name!r} has no choice {error.args[0]!r} in the default space"
            ) from None
        restricted[name] = choices
    rebuilt = copy.copy(space)
    rebuilt._specs = [
        _dc.replace(spec, choices=list(restricted[spec.name]))
        if spec.name in restricted
        else spec
        for spec in space.specs
    ]
    return rebuilt


class EvaluationService:
    """In-process evaluation service: HTTP front over the executor layer.

    Args:
        host: Bind address (default loopback).
        port: TCP port; 0 picks a free port (see :attr:`address`).
        workers: Worker processes for each batch (1 = serial, in-server).
        simulation_overrides: Optional dict merged over every request's
            simulation options (e.g. ``{"op_cache_path": ...}`` from
            ``repro serve --op-cache`` so the service keeps a warm persistent
            op-cost cache across requests and clients).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        simulation_overrides: Optional[Dict[str, object]] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.simulation_overrides = dict(simulation_overrides or {})
        if self.simulation_overrides.get("op_cache_path"):
            # Same warm-up the process-pool workers get: load the persistent
            # op store up front so even the first request runs warm.
            from repro.runtime.opcache import get_op_cache

            get_op_cache(self.simulation_overrides["op_cache_path"])
        # Warm-load the region store (if any) and keep raw entries around
        # even without one, so ``/cache/region`` can serve what this
        # service's own evaluations produce (publish_raw keeps the
        # digest-keyed raw memo populated on a path-less cache).
        self._region_cache().publish_raw = True
        self.stats = ServiceStats()
        self.started_at = time.time()
        # Per-service registry/tracer (not the process globals): tests run
        # several services in one process and each should report only its
        # own traffic.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=True, capacity=8192)
        self._evaluators: Dict[str, Tuple[TrialEvaluator, DatapathSearchSpace]] = {}
        self._executor: Optional[TrialExecutor] = None
        self._eval_lock = threading.Lock()
        self._scores: Dict[int, ScoreRecord] = {}
        self._scores_lock = threading.Lock()
        # ``fault_injector(request_index, path) -> action`` hook consulted
        # before any request is processed; tests use it to drop, delay, or
        # fail requests (see tests/test_remote_executor.py).  ``None`` or an
        # ``("ok",)`` action means normal handling.
        self.fault_injector = None
        self._request_counter = 0
        self._request_counter_lock = threading.Lock()
        self._server = ThreadingHTTPServer((host, port), _make_handler(self))
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """Actual (host, port) the server is bound to."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should use as an ``--endpoints`` entry."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "EvaluationService":
        """Serve requests on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        self._server.serve_forever()

    def close(self) -> None:
        """Stop serving and release the executor."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "EvaluationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def next_request_index(self) -> int:
        """Monotonic request counter (drives the fault injector)."""
        with self._request_counter_lock:
            index = self._request_counter
            self._request_counter += 1
            return index

    def _evaluator_for(
        self, payload: dict
    ) -> Tuple[str, TrialEvaluator, DatapathSearchSpace]:
        """(Re)build the evaluator + space a request describes, by fingerprint.

        The request's performance-only simulation options (engine, caches,
        store paths, cache-service URL) are dropped: they never change a
        result or a fingerprint, and the service must not write files or
        call URLs a client names.  The service's own overrides apply instead.
        """
        problem = search_problem_from_dict(payload["problem"])
        options_payload = dict(payload.get("options") or {})
        num_cores = int(options_payload.pop("num_cores", 1))
        sim_payload = {
            key: value
            for key, value in (options_payload.get("simulation_options") or {}).items()
            if key not in _PERF_ONLY_SIMULATION_OPTIONS
        }
        sim_payload.update(self.simulation_overrides)
        space = space_from_payload(payload.get("space"))
        evaluator = TrialEvaluator(
            problem,
            simulation_options=simulation_options_from_dict(sim_payload),
            num_cores=num_cores,
        )
        fingerprint = problem_fingerprint(problem, evaluator, space)
        cached = self._evaluators.get(fingerprint)
        if cached is not None:
            return (fingerprint,) + cached
        # First sighting of this problem: reuse the worker warm-up (graphs,
        # compiled regions, op/region caches) so later batches start warm.
        evaluator.warm_caches()
        self._evaluators[fingerprint] = (evaluator, space)
        return fingerprint, evaluator, space

    def _region_cache(self):
        """The process-local region cache backing ``/cache/region``."""
        from repro.runtime.opcache import get_region_cache

        return get_region_cache(self.simulation_overrides.get("region_store_path"))

    def region_cache_payload(self, method: str, payload: dict) -> Tuple[int, dict]:
        """Handle one ``GET``/``PUT /cache/region`` body; returns (status, body).

        The fingerprint is validated for form only (16 lowercase hex digits):
        region digests hash the graph fingerprint plus the mapping-relevant
        configuration themselves, so a digest can never alias an entry from a
        different problem.  GET serves the known subset of the requested
        digests; PUT stores previously-unknown entries (appending to the
        region store when the service has one), but only once every digest
        has the SHA-256 hex form and every entry decodes with
        :func:`~repro.runtime.opcache.region_entry_from_dict`.
        """
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str) or not _FINGERPRINT_RE.fullmatch(
            fingerprint
        ):
            return 400, {
                "error": "missing or malformed fingerprint "
                "(expected 16 lowercase hex digits)"
            }
        cache = self._region_cache()
        outcomes = self.metrics.counter(
            "repro_service_cache_entries_total",
            "Region-cache entries served/stored by /cache/region, by outcome.",
            ("outcome",),
        )
        if method == "GET":
            digests = payload.get("digests")
            if not isinstance(digests, list) or not all(
                isinstance(digest, str) for digest in digests
            ):
                return 400, {"error": "digests must be a list of strings"}
            entries: Dict[str, dict] = {}
            for digest in digests:
                raw = cache.raw_lookup(digest)
                if raw is not None:
                    entries[digest] = raw
            self.stats.region_cache_gets += 1
            self.stats.region_entries_served += len(entries)
            outcomes.inc(len(entries), outcome="hit")
            outcomes.inc(len(digests) - len(entries), outcome="miss")
            return 200, {"fingerprint": fingerprint, "entries": entries}
        entries_payload = payload.get("entries")
        if not isinstance(entries_payload, dict):
            return 400, {"error": "entries must be a digest-keyed object"}
        for digest, raw in entries_payload.items():
            if not (isinstance(digest, str) and _DIGEST_RE.fullmatch(digest)) or not isinstance(
                raw, dict
            ):
                return 400, {
                    "error": "entries must map digests (64 lowercase hex digits) to objects"
                }
            try:
                region_entry_from_dict(raw)
            except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as error:
                return 400, {"error": f"entry {digest} is not a region entry: {error!r}"}
        stored = 0
        for digest, raw in entries_payload.items():
            if cache.raw_lookup(digest) is None:
                cache._store_raw(digest, raw)
                stored += 1
        self.stats.region_cache_puts += 1
        self.stats.region_entries_stored += stored
        outcomes.inc(stored, outcome="stored")
        return 200, {"fingerprint": fingerprint, "stored": stored}

    def evaluate_payload(self, payload: dict) -> Tuple[int, dict]:
        """Handle one ``/evaluate`` request body; returns (status, response)."""
        try:
            fingerprint, evaluator, space = self._evaluator_for(payload)
        except (KeyError, TypeError, ValueError) as error:
            self.stats.errors += 1
            return 400, {"error": f"malformed evaluate request: {error}"}
        claimed = payload.get("fingerprint")
        if claimed is not None and claimed != fingerprint:
            self.stats.fingerprint_rejections += 1
            return 409, {
                "error": "problem fingerprint mismatch",
                "client_fingerprint": claimed,
                "service_fingerprint": fingerprint,
            }
        try:
            batch = [
                params_from_jsonable(raw, space) for raw in payload.get("params", [])
            ]
        except (KeyError, TypeError, ValueError) as error:
            self.stats.errors += 1
            return 400, {"error": f"malformed params: {error}"}
        with self._eval_lock:
            if self._executor is None:
                self._executor = make_executor(self.workers)
            metrics = self._executor.evaluate_batch(evaluator, space, batch)
        self.stats.batches += 1
        self.stats.trials_evaluated += len(metrics)
        return 200, {
            "fingerprint": fingerprint,
            "results": [trial_metrics_to_dict(m) for m in metrics],
        }

    # ------------------------------------------------------------------
    def publish_score(self, payload: dict) -> Tuple[int, dict]:
        """Handle one ``POST /scoreboard`` body; keeps the best per shard."""
        try:
            record = ScoreRecord.from_dict(payload)
        except (KeyError, TypeError, ValueError) as error:
            return 400, {"error": f"malformed scoreboard record: {error}"}
        with self._scores_lock:
            incumbent = self._scores.get(record.shard_id)
            if incumbent is None or record.objective < incumbent.objective:
                self._scores[record.shard_id] = record
        return 200, {"ok": True}

    def scoreboard_snapshot(self) -> dict:
        """Current per-shard best map (the ``GET /scoreboard`` body)."""
        with self._scores_lock:
            return {
                "scores": {
                    str(shard_id): record.to_dict()
                    for shard_id, record in self._scores.items()
                }
            }

    def observe_request(
        self, route: str, method: str, status: int, elapsed: float
    ) -> None:
        """Fold one handled request into the service metrics."""
        self.metrics.counter(
            "repro_service_requests_total",
            "HTTP requests handled, by route, method, and status.",
            ("route", "method", "status"),
        ).inc(route=route, method=method, status=str(status))
        self.metrics.histogram(
            "repro_service_request_seconds",
            "Request handling latency in seconds.",
            ("route",),
        ).observe(elapsed, route=route)

    def requests_by_route(self) -> Dict[str, int]:
        """Total handled requests per route (for ``/health``)."""
        totals: Dict[str, int] = {}
        counter = self.metrics.get("repro_service_requests_total")
        if counter is not None:
            for key, value in counter.samples().items():
                route = key[0]
                totals[route] = totals.get(route, 0) + int(value)
        return totals

    def metrics_exposition(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition.

        Request counters/latency accumulate as requests are handled; the
        uptime / lifetime / cache gauges are refreshed at scrape time.
        """
        gauge = self.metrics.gauge
        gauge("repro_service_uptime_seconds", "Seconds since service start.").set(
            time.time() - self.started_at
        )
        gauge("repro_service_workers", "Configured evaluation workers.").set(
            self.workers
        )
        gauge(
            "repro_service_trials_evaluated", "Trials evaluated since start."
        ).set(self.stats.trials_evaluated)
        gauge("repro_service_batches", "Evaluate batches since start.").set(
            self.stats.batches
        )
        gauge("repro_service_errors", "Request handling errors since start.").set(
            self.stats.errors
        )
        gauge(
            "repro_service_fingerprint_rejections",
            "Evaluate requests refused on fingerprint mismatch.",
        ).set(self.stats.fingerprint_rejections)
        from repro.runtime.opcache import get_op_cache, get_region_cache

        op_hits, op_misses = get_op_cache(
            self.simulation_overrides.get("op_cache_path")
        ).snapshot_counters()
        cache = self.metrics.gauge(
            "repro_cache_lookups",
            "Cost-cache lookups in this process, by cache and outcome.",
            ("cache", "outcome"),
        )
        cache.set(op_hits, cache="op", outcome="hit")
        cache.set(op_misses, cache="op", outcome="miss")
        region_cache = get_region_cache(
            self.simulation_overrides.get("region_store_path")
        )
        region_hits, region_misses = region_cache.snapshot_counters()
        cache.set(region_hits, cache="region", outcome="hit")
        cache.set(region_misses, cache="region", outcome="miss")
        gauge(
            "repro_service_region_entries",
            "Raw region entries the /cache/region tier can serve.",
        ).set(len(region_cache._disk_index))
        return self.metrics.expose()

    def health_snapshot(self) -> dict:
        """The ``GET /health`` body."""
        return {
            "status": "ok",
            "workers": self.workers,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": self.stats.requests,
            "requests_by_route": self.requests_by_route(),
            "batches": self.stats.batches,
            "trials_evaluated": self.stats.trials_evaluated,
            "fingerprint_rejections": self.stats.fingerprint_rejections,
            "errors": self.stats.errors,
            "region_cache_gets": self.stats.region_cache_gets,
            "region_cache_puts": self.stats.region_cache_puts,
            "region_entries_served": self.stats.region_entries_served,
            "region_entries_stored": self.stats.region_entries_stored,
            "region_entries": len(self._region_cache()._disk_index),
            "known_fingerprints": sorted(self._evaluators),
        }


def _make_handler(service: EvaluationService):
    """Build the request-handler class bound to one service instance."""

    class Handler(BaseHTTPRequestHandler):
        # (route, method, start time) of the request until it is counted.
        _unobserved: Optional[Tuple[str, str, float]] = None

        # Access logs go through the module logger at DEBUG instead of the
        # stdlib's unconditional stderr write: quiet by default (tests, CI
        # smokes), but ``repro serve --verbose`` makes per-request lines —
        # and hence service-side failures — visible again.
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            logger.debug(
                "%s - - %s", self.address_string(), format % args
            )

        # ------------------------------------------------------------------
        def _inject_fault(self) -> bool:
            """Apply any configured fault; True means the request was consumed."""
            injector = service.fault_injector
            if injector is None:
                return False
            action = injector(service.next_request_index(), self.path)
            if not action:
                return False
            kind = action[0]
            if kind == "delay":
                import time

                time.sleep(float(action[1]))
                return False  # delayed, then handled normally
            if kind == "error":
                self._reply(500, {"error": "injected failure"})
                return True
            if kind == "drop":
                # Close the socket without any response: the client sees a
                # connection reset / truncated read.
                self.connection.close()
                return True
            return False

        def _read_json(self) -> dict:
            """The request body as JSON; raises :class:`_BodyError` to refuse it.

            A non-integer or negative ``Content-Length`` is a 400 and one
            above :data:`MAX_BODY_BYTES` a 413, both before the body is read.
            """
            header = self.headers.get("Content-Length", "0")
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                raise _BodyError(400, f"invalid Content-Length {header!r}")
            if length > MAX_BODY_BYTES:
                raise _BodyError(
                    413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
                )
            try:
                return json.loads(self.rfile.read(length) or b"{}")
            except ValueError:
                raise _BodyError(400, "request body is not valid JSON") from None

        def _reply(self, status: int, body: dict) -> int:
            data = json.dumps(body).encode()
            self._send_bytes(status, "application/json", data)
            return status

        def _reply_text(self, status: int, text: str) -> int:
            self._send_bytes(
                status, "text/plain; version=0.0.4; charset=utf-8", text.encode()
            )
            return status

        def _send_bytes(self, status: int, content_type: str, data: bytes) -> None:
            self._observe(status)
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client gave up (timeout / hedge winner already used)

        # ------------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("POST")

        def do_PUT(self) -> None:  # noqa: N802 - stdlib naming
            self._handle("PUT")

        def _handle(self, method: str) -> None:
            service.stats.requests += 1
            route = self.path
            trace_header = self.headers.get(TRACE_CONTEXT_HEADER)
            span = service.tracer.start(
                "serve_request",
                category="service",
                parent_header=trace_header,
                attrs={"route": route, "method": method},
            )
            self._unobserved = (route, method, time.perf_counter())
            status = 500
            try:
                if self._inject_fault():
                    status = 0  # request consumed by the fault injector
                    return
                status = self._dispatch(method, route, trace_header, span)
            finally:
                span.set_attr("status", status)
                service.tracer.finish(span)
                self._observe(status)  # no reply was sent

        def _observe(self, status: int) -> None:
            """Fold this request into the metrics once, before its reply is sent.

            A client that has read a reply may query ``/health`` or
            ``/metrics`` at once; that request must already be counted.
            """
            if self._unobserved is not None:
                route, method, started = self._unobserved
                self._unobserved = None
                service.observe_request(
                    route, method, status, time.perf_counter() - started
                )

        def _dispatch(self, method: str, route: str, trace_header, span) -> int:
            if method == "GET" and route != "/cache/region":
                if route == "/health":
                    return self._reply(200, service.health_snapshot())
                if route == "/scoreboard":
                    return self._reply(200, service.scoreboard_snapshot())
                if route == "/metrics":
                    return self._reply_text(200, service.metrics_exposition())
                return self._reply(404, {"error": f"unknown path {route}"})
            try:
                payload = self._read_json()
            except _BodyError as error:
                return self._reply(error.status, {"error": str(error)})
            if route == "/cache/region":
                if method not in ("GET", "PUT"):
                    return self._reply(
                        405, {"error": "use GET or PUT on /cache/region"}
                    )
                try:
                    status, body = service.region_cache_payload(method, payload)
                except Exception as error:  # defensive: never kill the thread
                    service.stats.errors += 1
                    status, body = 500, {"error": f"cache request failed: {error}"}
                return self._reply(status, body)
            if method == "PUT":
                return self._reply(404, {"error": f"unknown path {route}"})
            if route == "/evaluate":
                try:
                    status, body = service.evaluate_payload(payload)
                except Exception as error:  # defensive: never kill the thread
                    service.stats.errors += 1
                    status, body = 500, {"error": f"evaluation failed: {error}"}
                if trace_header and span.record is not None:
                    # The client is tracing: close the request span now (the
                    # reply write is all that remains) and hand it back so
                    # both sides of the wire land in one trace.
                    span.set_attr("status", status)
                    service.tracer.finish(span)
                    body = dict(body, spans=[span.record.to_dict()])
                return self._reply(status, body)
            if route == "/scoreboard":
                status, body = service.publish_score(payload)
                return self._reply(status, body)
            return self._reply(404, {"error": f"unknown path {route}"})

    return Handler


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    workers: int = 1,
    op_cache_path: Optional[str] = None,
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
    engine: Optional[object] = None,
) -> EvaluationService:
    """Build the service ``repro serve`` runs (caller starts/serves it).

    ``fault_spec``/``fault_seed`` attach a seeded
    :class:`~repro.runtime.faults.FaultPlan` as the service's fault
    injector (``service-error`` / ``service-drop`` / ``service-delay``
    points), so a deliberately flaky endpoint for chaos runs is one flag
    away: ``repro serve --inject-faults "service-error:p=0.2"``.

    ``engine`` (an :class:`~repro.simulator.enginespec.EngineSpec`) sets the
    evaluation engine server-side.  Requests never choose it: the service
    drops their performance-only simulation options and evaluates with its
    own, which is safe because both engines and every cache tier compute
    identical results.
    """
    overrides: Dict[str, object] = {}
    if engine is not None:
        options = engine.to_simulation_options()
        overrides = {key: getattr(options, key) for key in _PERF_ONLY_SIMULATION_OPTIONS}
    if op_cache_path:
        overrides["op_cache_enabled"] = True
        overrides["op_cache_path"] = op_cache_path
    service = EvaluationService(
        host=host, port=port, workers=workers, simulation_overrides=overrides
    )
    if fault_spec:
        from repro.runtime.faults import FaultPlan

        service.fault_injector = FaultPlan(fault_spec, seed=fault_seed)
    return service
