"""Async remote trial execution: fan batches out to evaluation services.

:class:`AsyncRemoteExecutor` implements the :class:`~repro.runtime.executor.
TrialExecutor` interface against a fleet of :mod:`repro.runtime.service`
endpoints instead of local worker processes.  Each batch is split into
chunks, dispatched concurrently over HTTP (asyncio orchestration, blocking
I/O in a small thread pool), and reassembled **in proposal order**, so a
remote run feeds the optimizer the exact same tell sequence — and therefore
reproduces the serial history bit-for-bit — for a fixed seed and batch size.

Failure handling, in increasing order of escalation:

* **Per-request timeout** — a request that exceeds ``timeout`` seconds is
  abandoned (the service may still finish it; the result is discarded).
* **Bounded retry with exponential backoff** — a failed or timed-out chunk
  is retried on the next live endpoint up to ``max_retries`` times, sleeping
  ``backoff * 2^attempt`` (capped at 4 s) between attempts.
* **Hedged re-dispatch of stragglers** — when no chunk has completed for
  ``hedge_after`` seconds, every still-pending chunk (by definition the
  slowest) is duplicated onto a different endpoint, once; the first
  successful result per chunk wins and the loser is discarded, so a
  straggling service delays but never corrupts the batch.
* **Graceful endpoint blacklisting** — an endpoint failing
  ``blacklist_after`` consecutive requests stops receiving new dispatches.
  If every endpoint ends up blacklisted the executor forgives all of them
  and keeps going (better a slow fleet than a dead search); a chunk whose
  retry budget is exhausted never returns a partial or reordered batch.
* **Local-executor fallback** — when a batch still cannot be evaluated
  remotely (every endpoint burned through its retry and blacklist-
  forgiveness budgets), the executor degrades gracefully: the batch is
  evaluated on an in-process :class:`~repro.runtime.executor
  .SerialExecutor` instead of raising.  Evaluation is deterministic, so
  the history is unchanged; the degradation is visible as a
  ``remote_fallback`` telemetry span and the ``remote_fallbacks`` runtime
  counter.  Construct with ``local_fallback=False`` to get the old
  fail-fast :class:`RemoteExecutionError` behavior.

Per-endpoint request/retry/hedge/latency counters are exposed through
:meth:`AsyncRemoteExecutor.runtime_counters`, which the search loop folds
into :class:`~repro.core.fast.RuntimeStats`.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.trial import TrialEvaluator, TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.reporting.serialization import (
    params_to_jsonable,
    search_problem_to_dict,
    simulation_options_to_dict,
    trial_metrics_from_dict,
)
from repro.runtime.cache import problem_fingerprint
from repro.runtime.executor import SerialExecutor, TrialExecutor
from repro.runtime.faults import get_fault_plan
from repro.runtime.service import MAX_PARAMS_PER_REQUEST
from repro.runtime.telemetry import (
    NULL_SPAN,
    TRACE_CONTEXT_HEADER,
    get_tracer,
)

__all__ = [
    "RemoteExecutionError",
    "EndpointStats",
    "AsyncRemoteExecutor",
]


# Upper bound on one retry backoff sleep, in seconds (or ``backoff``, if longer).
_BACKOFF_CAP_S = 4.0


class RemoteExecutionError(RuntimeError):
    """A chunk could not be evaluated by any endpoint within its budgets."""


@dataclass
class EndpointStats:
    """Lifetime counters for one service endpoint."""

    url: str
    requests: int = 0
    successes: int = 0
    failures: int = 0
    retries: int = 0
    hedges: int = 0
    timeouts: int = 0
    latency_seconds: float = 0.0
    consecutive_failures: int = 0
    blacklisted: bool = False

    @property
    def mean_latency_ms(self) -> float:
        """Mean latency of successful requests, in milliseconds."""
        return 1e3 * self.latency_seconds / self.successes if self.successes else 0.0

    def to_counters(self) -> Dict[str, float]:
        """Flat counter dict merged into ``RuntimeStats.endpoint_stats``."""
        return {
            "requests": self.requests,
            "successes": self.successes,
            "failures": self.failures,
            "retries": self.retries,
            "hedges": self.hedges,
            "timeouts": self.timeouts,
            "latency_seconds": self.latency_seconds,
            "blacklisted": 1.0 if self.blacklisted else 0.0,
        }


@dataclass
class _ChunkOutcome:
    """Result of one request attempt sequence for one chunk."""

    index: int
    metrics: List[TrialMetrics] = field(default_factory=list)


class AsyncRemoteExecutor(TrialExecutor):
    """Evaluates trial batches on remote :mod:`repro.runtime.service` fleets.

    Args:
        endpoints: Base URLs of running services (``http://host:port``).
        timeout: Per-request timeout in seconds.
        max_retries: Retry budget per chunk (beyond the first attempt).
        backoff: Initial retry backoff in seconds (doubles per attempt, up
            to 4 s or ``backoff``, whichever is longer).
        hedge_after: Stall seconds without any chunk completion before the
            pending (slowest) chunks are hedged; ``None`` disables hedging.
        chunk_size: Proposals per request; ``None`` splits each batch evenly
            across the live endpoints (at least 1 per request); capped at
            :data:`~repro.runtime.service.MAX_PARAMS_PER_REQUEST` either way.
        blacklist_after: Consecutive failures before an endpoint stops
            receiving new dispatches.
        local_fallback: Evaluate a batch locally (serial, in-process) when
            every endpoint exhausted its budgets, instead of raising
            :class:`RemoteExecutionError` (on by default; the history is
            identical either way).
    """

    name = "remote"

    def __init__(
        self,
        endpoints: Sequence[str],
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 0.25,
        hedge_after: Optional[float] = 10.0,
        chunk_size: Optional[int] = None,
        blacklist_after: int = 3,
        local_fallback: bool = True,
    ) -> None:
        urls = [url.rstrip("/") for url in endpoints if url]
        if not urls:
            raise ValueError("AsyncRemoteExecutor needs at least one endpoint URL")
        self.endpoints = [EndpointStats(url=url) for url in urls]
        self.timeout = float(timeout)
        self.max_retries = max(0, int(max_retries))
        self.backoff = max(0.0, float(backoff))
        self.hedge_after = hedge_after if hedge_after is None else max(0.01, float(hedge_after))
        self.chunk_size = chunk_size if chunk_size is None else max(1, int(chunk_size))
        self.blacklist_after = max(1, int(blacklist_after))
        self.local_fallback = bool(local_fallback)
        self.batches = 0
        self.blacklist_resets = 0
        self.fallbacks = 0
        self._fallback_executor: Optional[SerialExecutor] = None
        self._rotation = 0
        # Enough threads for a full fan-out plus hedges on every endpoint.
        self._http_pool_size = max(4, 2 * len(self.endpoints))
        self._http_pool = ThreadPoolExecutor(
            max_workers=self._http_pool_size,
            thread_name_prefix="remote-http",
        )

    # ------------------------------------------------------------------
    # Endpoint selection / bookkeeping
    # ------------------------------------------------------------------
    def _live_endpoints(self) -> List[EndpointStats]:
        live = [e for e in self.endpoints if not e.blacklisted]
        if not live:
            # Graceful degradation: forgive everyone rather than deadlock.
            for endpoint in self.endpoints:
                endpoint.blacklisted = False
                endpoint.consecutive_failures = 0
            self.blacklist_resets += 1
            live = list(self.endpoints)
        return live

    def _pick_endpoint(self, avoid: Optional[EndpointStats] = None) -> EndpointStats:
        live = self._live_endpoints()
        if avoid is not None and len(live) > 1:
            live = [e for e in live if e is not avoid]
        choice = live[self._rotation % len(live)]
        self._rotation += 1
        return choice

    def _record_failure(self, endpoint: EndpointStats, timed_out: bool) -> None:
        endpoint.failures += 1
        if timed_out:
            endpoint.timeouts += 1
        endpoint.consecutive_failures += 1
        if endpoint.consecutive_failures >= self.blacklist_after:
            endpoint.blacklisted = True

    def _record_success(self, endpoint: EndpointStats, latency: float) -> None:
        endpoint.successes += 1
        endpoint.latency_seconds += latency
        endpoint.consecutive_failures = 0
        endpoint.blacklisted = False

    # ------------------------------------------------------------------
    # HTTP plumbing (blocking; runs on the thread pool)
    # ------------------------------------------------------------------
    def _post_evaluate(
        self,
        endpoint: EndpointStats,
        payload: dict,
        span_info: Optional[dict] = None,
    ) -> List[TrialMetrics]:
        # This runs on an HTTP pool thread, where contextvars set on the
        # asyncio side are invisible — so the request span is opened here,
        # parented explicitly through the ``parent_header`` captured on the
        # dispatching thread (evaluate_batch), and the same trace context is
        # forwarded to the service so its spans link into this trace.
        tracer = get_tracer()
        span = NULL_SPAN
        headers = {"Content-Type": "application/json"}
        if tracer.enabled:
            info = span_info or {}
            span = tracer.start(
                "remote_request",
                category="remote",
                parent_header=info.get("parent_header"),
                attrs={
                    "endpoint": endpoint.url,
                    "attempt": int(info.get("attempt", 0)),
                    "hedged": bool(info.get("hedged", False)),
                    "num_params": len(payload["params"]),
                    "blacklisted_endpoints": sum(
                        1 for e in self.endpoints if e.blacklisted
                    ),
                },
            )
            if span.record is not None:
                headers[TRACE_CONTEXT_HEADER] = (
                    f"{span.record.trace_id}:{span.record.span_id}"
                )
        status = "error"
        try:
            data = json.dumps(payload).encode()
            request = urllib.request.Request(
                endpoint.url + "/evaluate",
                data=data,
                headers=headers,
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    reply = response.read()
            except urllib.error.HTTPError as error:
                detail = ""
                try:
                    detail = json.loads(error.read()).get("error", "")
                except Exception:
                    pass
                raise RemoteExecutionError(
                    f"{endpoint.url} returned HTTP {error.code}"
                    + (f": {detail}" if detail else "")
                ) from error
            try:
                # A reply that does not decode whole is an endpoint failure,
                # like an HTTP error: retried, then evaluated locally.
                body = json.loads(reply)
                results = body["results"]
                if not isinstance(results, list) or len(results) != len(payload["params"]):
                    raise ValueError(f"not one result per param: {results!r:.80}")
                metrics = [trial_metrics_from_dict(raw) for raw in results]
                if tracer.enabled and body.get("spans"):
                    # Server-side spans; ingest() dedups by span id, so a
                    # hedge loser or a retry delivering them is harmless.
                    tracer.ingest(body["spans"])
            except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as error:
                raise RemoteExecutionError(
                    f"{endpoint.url} returned a malformed reply: {error!r}"
                ) from error
            status = "ok"
            return metrics
        finally:
            span.set_attr("status", status)
            tracer.finish(span)

    # ------------------------------------------------------------------
    # Async orchestration
    # ------------------------------------------------------------------
    async def _attempt(
        self,
        endpoint: EndpointStats,
        payload: dict,
        gate: asyncio.Semaphore,
        span_info: Optional[dict] = None,
    ) -> List[TrialMetrics]:
        loop = asyncio.get_running_loop()
        async with gate:
            # The gate capacity equals the HTTP thread-pool size, so the
            # timeout clock below only ever covers a request that actually
            # holds a pool thread — never time spent queued behind one.
            endpoint.requests += 1
            started = time.monotonic()
            return await self._attempt_on_thread(endpoint, payload, loop, started, span_info)

    async def _attempt_on_thread(
        self,
        endpoint: EndpointStats,
        payload: dict,
        loop,
        started: float,
        span_info: Optional[dict] = None,
    ) -> List[TrialMetrics]:
        try:
            metrics = await asyncio.wait_for(
                loop.run_in_executor(
                    self._http_pool, self._post_evaluate, endpoint, payload, span_info
                ),
                timeout=self.timeout + 1.0,  # urllib enforces its own timeout
            )
        except asyncio.TimeoutError:
            self._record_failure(endpoint, timed_out=True)
            raise RemoteExecutionError(f"{endpoint.url} timed out after {self.timeout}s")
        except (OSError, urllib.error.URLError, RemoteExecutionError) as error:
            self._record_failure(
                endpoint, timed_out=isinstance(getattr(error, "reason", None), TimeoutError)
            )
            if isinstance(error, RemoteExecutionError):
                raise
            raise RemoteExecutionError(f"{endpoint.url} failed: {error}") from error
        self._record_success(endpoint, time.monotonic() - started)
        return metrics

    async def _eval_chunk(
        self,
        index: int,
        payload: dict,
        active_endpoint: Dict[int, EndpointStats],
        gate: asyncio.Semaphore,
        avoid: Optional[EndpointStats] = None,
        hedged: bool = False,
        parent_header: Optional[str] = None,
    ) -> _ChunkOutcome:
        delay = self.backoff
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            endpoint = self._pick_endpoint(avoid=avoid)
            avoid = None  # only the first (hedge) attempt avoids the straggler
            active_endpoint[index] = endpoint
            if attempt:
                endpoint.retries += 1
                await asyncio.sleep(min(delay, max(self.backoff, _BACKOFF_CAP_S)))
                delay *= 2
            plan = get_fault_plan()
            if plan is not None:
                # Injected client-side faults (``remote-*`` points): the
                # attempt is consumed without touching the network, so the
                # retry / backoff / blacklist machinery is exercised
                # deterministically against a perfectly healthy service.
                slow = plan.fire("remote-slow")
                if slow is not None:
                    await asyncio.sleep(slow.delay)
                if plan.fire("remote-drop") is not None:
                    endpoint.requests += 1
                    self._record_failure(endpoint, timed_out=False)
                    last_error = RemoteExecutionError(
                        f"injected connection drop for {endpoint.url}"
                    )
                    continue
                if plan.fire("remote-timeout") is not None:
                    endpoint.requests += 1
                    self._record_failure(endpoint, timed_out=True)
                    last_error = RemoteExecutionError(
                        f"injected timeout for {endpoint.url}"
                    )
                    continue
            try:
                metrics = await self._attempt(
                    endpoint,
                    payload,
                    gate,
                    span_info={
                        "attempt": attempt,
                        "hedged": hedged,
                        "parent_header": parent_header,
                    },
                )
                return _ChunkOutcome(index=index, metrics=metrics)
            except RemoteExecutionError as error:
                last_error = error
        raise RemoteExecutionError(
            f"chunk {index} failed after {self.max_retries + 1} attempts: {last_error}"
        )

    async def _run_batch(
        self, payloads: List[dict], parent_header: Optional[str] = None
    ) -> List[List[TrialMetrics]]:
        results: List[Optional[List[TrialMetrics]]] = [None] * len(payloads)
        active_endpoint: Dict[int, EndpointStats] = {}
        gate = asyncio.Semaphore(self._http_pool_size)
        tasks: Dict[asyncio.Task, int] = {
            asyncio.ensure_future(
                self._eval_chunk(
                    i, payloads[i], active_endpoint, gate, parent_header=parent_header
                )
            ): i
            for i in range(len(payloads))
        }
        hedged: set = set()
        failure: Optional[Exception] = None
        while tasks:
            can_hedge = self.hedge_after is not None and any(
                tasks[t] not in hedged for t in tasks
            )
            done, _pending = await asyncio.wait(
                set(tasks),
                return_when=asyncio.FIRST_COMPLETED,
                timeout=self.hedge_after if can_hedge else None,
            )
            if not done:
                # Stall: duplicate the still-pending (slowest) chunks onto
                # other endpoints — first successful result per chunk wins.
                for index in sorted({tasks[t] for t in tasks} - hedged):
                    hedged.add(index)
                    straggling = active_endpoint.get(index)
                    if straggling is not None:
                        straggling.hedges += 1
                    hedge = asyncio.ensure_future(
                        self._eval_chunk(
                            index, payloads[index], active_endpoint, gate,
                            avoid=straggling, hedged=True,
                            parent_header=parent_header,
                        )
                    )
                    tasks[hedge] = index
                continue
            for task in done:
                index = tasks.pop(task)
                try:
                    outcome = task.result()
                except RemoteExecutionError as error:
                    # A hedge sibling may still succeed; fail only when no
                    # task for this chunk remains in flight.
                    if index not in tasks.values() and results[index] is None:
                        failure = failure or error
                    continue
                if results[index] is None:
                    results[index] = outcome.metrics
            if failure is not None:
                break
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if failure is not None:
            raise failure
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise RemoteExecutionError(f"chunks {missing} produced no result")
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # TrialExecutor interface
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
    ) -> List[TrialMetrics]:
        if not batch:
            return []
        fingerprint = problem_fingerprint(evaluator.problem, evaluator, space)
        base = {
            "fingerprint": fingerprint,
            "problem": search_problem_to_dict(evaluator.problem),
            "options": {
                "num_cores": evaluator.num_cores,
                "simulation_options": simulation_options_to_dict(
                    evaluator.simulation_options
                ),
            },
            # The space's choice lists travel with the request so the service
            # evaluates restricted spaces (e.g. space-mode sweep shards)
            # instead of rejecting their fingerprints against its default.
            "space": [
                [spec.name, [getattr(choice, "value", choice) for choice in spec.choices]]
                for spec in space.specs
            ],
        }
        size = self.chunk_size
        if size is None:
            live = max(1, len(self._live_endpoints()))
            size = max(1, -(-len(batch) // live))  # ceil division
        size = min(size, MAX_PARAMS_PER_REQUEST)  # a service refuses longer requests
        chunks = [list(batch[i : i + size]) for i in range(0, len(batch), size)]
        payloads = [
            dict(base, params=[params_to_jsonable(p) for p in chunk]) for chunk in chunks
        ]
        # Captured here, on the calling thread, where the search loop's
        # enclosing span is still visible; the HTTP threads parent their
        # request spans to it explicitly.
        parent_header = get_tracer().context_header()
        try:
            chunk_results = asyncio.run(self._run_batch(payloads, parent_header))
        except RemoteExecutionError as error:
            if not self.local_fallback:
                raise
            return self._evaluate_locally(evaluator, space, batch, error)
        self.batches += 1
        merged: List[TrialMetrics] = []
        for piece in chunk_results:
            merged.extend(piece)
        return merged

    def _evaluate_locally(
        self,
        evaluator: TrialEvaluator,
        space: DatapathSearchSpace,
        batch: Sequence[ParameterValues],
        error: RemoteExecutionError,
    ) -> List[TrialMetrics]:
        """Degrade gracefully: evaluate the batch in-process, serially.

        Reached only after the whole escalation ladder failed — retries,
        hedges, and blacklist forgiveness included.  Evaluation is
        deterministic, so the fallback batch is bit-for-bit what the fleet
        would have returned; the degradation shows up as a span and the
        ``remote_fallbacks`` counter, never in the history.
        """
        self.fallbacks += 1
        with get_tracer().span(
            "remote_fallback",
            category="remote",
            num_params=len(batch),
            reason=str(error)[:200],
        ):
            if self._fallback_executor is None:
                self._fallback_executor = SerialExecutor()
            merged = self._fallback_executor.evaluate_batch(evaluator, space, batch)
        self.batches += 1
        return merged

    def close(self) -> None:
        self._http_pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def runtime_counters(self) -> Dict[str, object]:
        """Counters the search loop folds into ``RuntimeStats``."""
        return {
            "remote_batches": self.batches,
            "remote_requests": sum(e.requests for e in self.endpoints),
            "remote_retries": sum(e.retries for e in self.endpoints),
            "remote_hedges": sum(e.hedges for e in self.endpoints),
            "remote_failures": sum(e.failures for e in self.endpoints),
            "remote_blacklist_resets": self.blacklist_resets,
            "remote_fallbacks": self.fallbacks,
            "endpoint_stats": {e.url: e.to_counters() for e in self.endpoints},
        }
