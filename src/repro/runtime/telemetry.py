"""Tracing and metrics telemetry for the search runtime.

This module is the observability substrate every other runtime layer reports
through: a dependency-free span tracer plus a Prometheus-style metrics
registry.  It deliberately imports nothing from the rest of the package (and
nothing beyond the stdlib), so any module — the simulator's inner loop, the
executor workers, the HTTP service — can instrument itself without creating
import cycles.

Tracing
-------
A :class:`Tracer` records :class:`SpanRecord` entries — named, monotonic-
timed intervals with attributes, parent links, and process/thread ids — into
a bounded in-memory ring buffer:

* ``with tracer.span("simulate", workload=name) as sp`` opens a span; spans
  opened inside it (same thread/async context, via :mod:`contextvars`)
  become its children automatically.
* The **global tracer is disabled by default** and ``span()`` then returns a
  shared no-op handle, so instrumented hot paths cost one attribute check
  when tracing is off — search histories are bit-for-bit identical either
  way because the tracer never touches any search RNG (it keeps a private
  ``random.Random`` used only for sampling decisions).
* ``sample_rate`` bounds overhead: the sampling decision is made once per
  *root* span from the tracer's seeded private RNG (children always follow
  their root), so a given seed reproduces the identical kept/dropped
  sequence.
* Spans cross process boundaries as plain dicts: executor workers ``drain()``
  their buffer after each task and the parent ``ingest()`` merges them
  (idempotently — re-ingesting a span id is a no-op, so hedged or retried
  deliveries can never duplicate a span).
* ``context_header()`` / ``parent_header=`` propagate a ``trace_id:span_id``
  pair over the wire (the ``X-Repro-Trace-Context`` HTTP header), letting a
  service parent its server-side spans under the client's request span.

Trace output: the ring buffer itself (``drain()``/``snapshot()``),
:func:`write_jsonl_trace` and :func:`write_chrome_trace`, whose output loads
directly into ``about://tracing`` / Perfetto; :func:`load_trace` reads both
file forms back into records.  ``Tracer.totals`` keeps a per-span-name
``[count, seconds]`` total of every span recorded or ingested, evicted ones
included; ``repro profile`` builds its stage columns from it.

Metrics
-------
:class:`MetricsRegistry` holds counters, gauges, and histograms with label
support and renders them in the Prometheus text exposition format
(``expose()``), which is what ``repro serve`` returns from ``GET /metrics``.
Metrics are get-or-create by name, so call sites never need module-level
handles::

    get_metrics().counter(
        "repro_remote_requests_total", "Remote requests.", ("endpoint", "status")
    ).inc(endpoint=url, status="ok")
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TRACE_CONTEXT_HEADER",
    "SpanRecord",
    "Span",
    "NULL_SPAN",
    "Tracer",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl_trace",
    "load_trace",
    "get_tracer",
    "set_tracer",
    "configure_tracer",
    "telemetry_config",
    "apply_telemetry_config",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
]

#: HTTP header carrying ``trace_id:span_id`` from a client request span to
#: the service, so server-side spans link into the client's trace.
TRACE_CONTEXT_HEADER = "X-Repro-Trace-Context"


# ---------------------------------------------------------------------------
# Span records
# ---------------------------------------------------------------------------
@dataclass
class SpanRecord:
    """One finished span: a named, timed interval with attributes.

    ``start_unix`` is wall-clock (``time.time``) so spans from different
    processes and hosts land on one shared timeline; ``duration`` is measured
    with ``time.perf_counter`` so the interval itself is monotonic and
    immune to clock steps.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_unix: float
    duration: float
    category: str = "app"
    pid: int = 0
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible wire form (worker deltas, service responses)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "category": self.category,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        """Rebuild a record from :meth:`to_dict` output (extras ignored)."""
        return cls(
            name=str(data["name"]),
            trace_id=str(data.get("trace_id") or ""),
            span_id=str(data.get("span_id") or ""),
            parent_id=(
                str(data["parent_id"]) if data.get("parent_id") is not None else None
            ),
            start_unix=float(data.get("start_unix", 0.0)),
            duration=float(data.get("duration", 0.0)),
            category=str(data.get("category", "app")),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=dict(data.get("attrs") or {}),
        )


class Span:
    """Live handle of an in-flight span; also a context manager.

    Entering sets the span as the current context parent (new spans opened
    in the same thread/async context nest under it); exiting restores the
    previous parent and records the span.  ``sampled=False`` spans go
    through all the motions except the final record, so an unsampled root
    silently drops its whole subtree.
    """

    __slots__ = ("_tracer", "record", "sampled", "_t0", "_token", "finished")

    def __init__(self, tracer: "Tracer", record: SpanRecord, sampled: bool) -> None:
        self._tracer = tracer
        self.record = record
        self.sampled = sampled
        self._t0 = time.perf_counter()
        self._token: Optional[contextvars.Token] = None
        self.finished = False

    def set_attr(self, key: str, value: object) -> "Span":
        """Attach one attribute; returns self for chaining."""
        self.record.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._token = self._tracer._current.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._token is not None:
            self._tracer._current.reset(self._token)
            self._token = None
        self._tracer.finish(self)


class _NullSpan:
    """Shared no-op span handle returned while tracing is disabled."""

    __slots__ = ()
    record = None
    sampled = False
    finished = True

    def set_attr(self, key: str, value: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpan()

SpanHandle = Union[Span, _NullSpan]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class Tracer:
    """Thread-safe span tracer with a bounded ring buffer.

    Args:
        enabled: Record spans at all (off by default; ``span()`` is then a
            near-free no-op).
        sample_rate: Probability a *root* span (and hence its subtree) is
            kept.  Decisions come from a private ``random.Random(seed)``,
            so they are deterministic per seed and never perturb search RNG
            state.
        seed: Seed of the sampling RNG.
        capacity: Ring-buffer size; the oldest spans are evicted first
            (``dropped`` counts evictions) so tracing memory stays bounded
            on arbitrarily long runs.
        trace_id: Trace identity shared by every root span this tracer
            records; defaults to a fresh random id.  Executor workers adopt
            the parent's trace id through :func:`apply_telemetry_config`.
    """

    def __init__(
        self,
        enabled: bool = False,
        sample_rate: float = 1.0,
        seed: int = 0,
        capacity: int = 65536,
        trace_id: Optional[str] = None,
    ) -> None:
        self.enabled = bool(enabled)
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self.seed = int(seed)
        self.capacity = max(1, int(capacity))
        # Private RNG: used ONLY for sampling decisions, so tracing can
        # never perturb the search trajectory.
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._buffer: deque = deque(maxlen=self.capacity)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "repro_current_span", default=None
        )
        # Span ids are unique across processes: pid + per-tracer random salt
        # + a monotonic counter.  (A forked child that keeps the parent's
        # tracer still differs by pid; re-initialized workers get a fresh
        # salt through apply_telemetry_config.)
        self._salt = os.urandom(4).hex()
        self._pid = os.getpid()
        self._id_prefix = f"{self._pid:x}-{self._salt}-"
        self._ids = itertools.count(1)
        self.trace_id = trace_id or self._new_id()
        self._seen: set = set()
        self._seen_order: deque = deque()
        self.total_recorded = 0
        self.dropped = 0
        # Span name -> [count, seconds], evicted spans included.
        self.totals: Dict[str, List] = {}

    # ------------------------------------------------------------------
    def _new_id(self) -> str:
        # itertools.count is atomic under the GIL, so the id hot path needs
        # no lock.
        return f"{self._id_prefix}{next(self._ids):x}"

    def current_span(self) -> Optional[Span]:
        """The innermost open span of this context, or None."""
        return self._current.get()

    def context_header(self) -> Optional[str]:
        """``trace_id:span_id`` of the current span, for wire propagation."""
        span = self._current.get()
        if span is None or span.record is None:
            return None
        return f"{span.record.trace_id}:{span.record.span_id}"

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "app", **attrs: object) -> SpanHandle:
        """Open a span as a context manager (the common instrumentation API).

        Returns :data:`NULL_SPAN` when tracing is disabled, so call sites
        never need their own enabled check.
        """
        if not self.enabled:
            return NULL_SPAN
        return self.start(name, category, None, None, attrs)

    def start(
        self,
        name: str,
        category: str = "app",
        parent: Optional[SpanHandle] = None,
        parent_header: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> SpanHandle:
        """Open a span with explicit parentage (handler / non-``with`` use).

        Parent resolution order: an explicit ``parent`` span, a wire
        ``parent_header`` (``trace_id:span_id``), then the current context
        span.  The caller must :meth:`finish` the span (or use it as a
        context manager).
        """
        if not self.enabled:
            return NULL_SPAN
        trace_id = self.trace_id
        parent_id: Optional[str] = None
        sampled: Optional[bool] = None
        if parent is None and parent_header is None:
            parent = self._current.get()
        if isinstance(parent, Span):
            parent_id = parent.record.span_id
            trace_id = parent.record.trace_id
            sampled = parent.sampled
        elif parent_header:
            pieces = str(parent_header).split(":", 1)
            if len(pieces) == 2 and pieces[0] and pieces[1]:
                trace_id, parent_id = pieces[0], pieces[1]
                sampled = True  # the remote side already made the decision
        if sampled is None:  # root span: one deterministic sampling decision
            if self.sample_rate >= 1.0:
                sampled = True
            else:
                with self._lock:
                    sampled = self._rng.random() < self.sample_rate
        # Positional construction: keyword passing costs ~2x as much per
        # record, and this runs once per span.  The span takes ownership of
        # `attrs` (every caller passes a fresh dict), skipping a copy.
        record = SpanRecord(
            name,
            trace_id,
            self._new_id(),
            parent_id,
            time.time(),
            0.0,
            category,
            self._pid,
            threading.get_ident() & 0xFFFFFFFF,
            attrs if attrs is not None else {},
        )
        return Span(self, record, sampled)

    def finish(self, span: SpanHandle) -> None:
        """Close a span: stamp its duration and record it (if sampled)."""
        if span.finished:  # also covers NULL_SPAN, whose finished is True
            return
        span.finished = True
        span.record.duration = time.perf_counter() - span._t0
        if not span.sampled:
            return
        self._append(span.record)

    def record_span(
        self,
        name: str,
        start_unix: float,
        duration: float,
        category: str = "app",
        parent_id: Optional[str] = None,
        **attrs: object,
    ) -> Optional[SpanRecord]:
        """Record an already-measured interval as a span (no context games).

        Used to synthesize run-level spans from existing timings (e.g. the
        ``search`` root span from the loop's elapsed time) without wrapping
        large code blocks.
        """
        if not self.enabled:
            return None
        record = SpanRecord(
            name=name,
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            start_unix=float(start_unix),
            duration=max(0.0, float(duration)),
            category=category,
            pid=self._pid,
            tid=threading.get_ident() & 0xFFFFFFFF,
            attrs=dict(attrs),
        )
        self._append(record)
        return record

    # ------------------------------------------------------------------
    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._add(record)

    def _add(self, record: SpanRecord) -> None:
        """Buffer one span and count it in ``totals``; caller holds the lock."""
        if len(self._buffer) == self._buffer.maxlen:
            self.dropped += 1
        self._buffer.append(record)
        self.total_recorded += 1
        total = self.totals.setdefault(record.name, [0, 0.0])
        total[0] += 1
        total[1] += record.duration

    def ingest(self, records: Iterable[Union[SpanRecord, Dict[str, object]]]) -> int:
        """Merge foreign spans (worker deltas, service responses); dedup.

        Spans are identified by ``(trace_id, span_id)``; re-ingesting an id
        already seen is a no-op, so hedged requests, retries, and repeated
        deliveries can never make a span appear twice.  Returns the number
        of spans actually added.
        """
        added = 0
        for raw in records or ():
            record = raw if isinstance(raw, SpanRecord) else SpanRecord.from_dict(raw)
            key = (record.trace_id, record.span_id)
            with self._lock:
                if key in self._seen:
                    continue
                self._seen.add(key)
                self._seen_order.append(key)
                while len(self._seen_order) > 4 * self.capacity:
                    self._seen.discard(self._seen_order.popleft())
                self._add(record)
                added += 1
        return added

    def drain(self) -> List[SpanRecord]:
        """Return all buffered spans and clear the buffer."""
        with self._lock:
            records = list(self._buffer)
            self._buffer.clear()
        return records

    def snapshot(self) -> List[SpanRecord]:
        """All buffered spans without clearing (tests, live inspection)."""
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        """Drop all buffered spans, ``totals`` and dedup state."""
        with self._lock:
            self._buffer.clear()
            self.totals.clear()
            self._seen.clear()
            self._seen_order.clear()

    # ------------------------------------------------------------------
    def config(self) -> Dict[str, object]:
        """Serializable configuration (shipped to executor workers)."""
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            "capacity": self.capacity,
            "trace_id": self.trace_id,
        }


# ---------------------------------------------------------------------------
# Trace exporters
# ---------------------------------------------------------------------------
def chrome_trace_events(records: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Convert spans to Chrome ``trace_event`` dicts (complete ``X`` events).

    Timestamps are microseconds relative to the earliest span, so the trace
    opens at t=0 in ``about://tracing`` / Perfetto.  Span identity and
    attributes ride in ``args`` so :func:`load_trace` can reconstruct the
    hierarchy from the exported file.
    """
    events: List[Dict[str, object]] = []
    if not records:
        return events
    base = min(r.start_unix for r in records)
    for pid in sorted({r.pid for r in records}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    for r in records:
        events.append(
            {
                "name": r.name,
                "cat": r.category,
                "ph": "X",
                "ts": round((r.start_unix - base) * 1e6, 3),
                "dur": round(r.duration * 1e6, 3),
                "pid": r.pid,
                "tid": r.tid,
                "args": {
                    "trace_id": r.trace_id,
                    "span_id": r.span_id,
                    "parent_id": r.parent_id,
                    **r.attrs,
                },
            }
        )
    return events


def write_chrome_trace(records: Sequence[SpanRecord], path: str) -> int:
    """Write spans as a Chrome-trace JSON file; returns the span count."""
    payload = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro telemetry"},
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(records)


def write_jsonl_trace(records: Sequence[SpanRecord], path: str) -> int:
    """Write spans as JSON lines (one span per line); returns the count."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()) + "\n")
    return len(records)


def load_trace(path: str) -> List[SpanRecord]:
    """Read spans back from a JSONL or Chrome-trace file (``repro trace``)."""
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        return []
    # Chrome-trace files are one JSON document; JSONL lines each start with
    # "{" too, so distinguish by whether the whole file parses as one value.
    payload = None
    if stripped.startswith(("{", "[")):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
    if isinstance(payload, dict) and "traceEvents" not in payload:
        payload = None  # a single-line JSONL file: treat as JSONL below
    if payload is not None:
        events = payload.get("traceEvents", []) if isinstance(payload, dict) else payload
        records = []
        for event in events:
            if event.get("ph") != "X":
                continue
            args = dict(event.get("args") or {})
            records.append(
                SpanRecord(
                    name=str(event.get("name", "")),
                    trace_id=str(args.pop("trace_id", "") or ""),
                    span_id=str(args.pop("span_id", "") or ""),
                    parent_id=args.pop("parent_id", None),
                    start_unix=float(event.get("ts", 0.0)) / 1e6,
                    duration=float(event.get("dur", 0.0)) / 1e6,
                    category=str(event.get("cat", "app")),
                    pid=int(event.get("pid", 0)),
                    tid=int(event.get("tid", 0)),
                    attrs=args,
                )
            )
        return records
    return [
        SpanRecord.from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# ---------------------------------------------------------------------------
# Global tracer
# ---------------------------------------------------------------------------
_GLOBAL_TRACER = Tracer(enabled=False)
_GLOBAL_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer (disabled until :func:`configure_tracer`)."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install a tracer as the process-global one; returns it."""
    global _GLOBAL_TRACER
    with _GLOBAL_LOCK:
        _GLOBAL_TRACER = tracer
    return tracer


def configure_tracer(
    enabled: bool = True,
    sample_rate: float = 1.0,
    seed: int = 0,
    capacity: int = 65536,
    trace_id: Optional[str] = None,
) -> Tracer:
    """Replace the global tracer with a freshly configured one."""
    return set_tracer(
        Tracer(
            enabled=enabled,
            sample_rate=sample_rate,
            seed=seed,
            capacity=capacity,
            trace_id=trace_id,
        )
    )


def telemetry_config() -> Optional[Dict[str, object]]:
    """The global tracer's config, or None when tracing is off.

    This is what executor pools ship to worker initializers: ``None`` keeps
    workers untraced, a dict makes them trace into the same trace id.
    """
    tracer = get_tracer()
    return tracer.config() if tracer.enabled else None


def apply_telemetry_config(config: Optional[Dict[str, object]]) -> Tracer:
    """Install a fresh global tracer from a :func:`telemetry_config` dict.

    Always replaces the tracer (disabled when ``config`` is falsy), so a
    fork-inherited parent buffer can never leak parent spans out of a
    worker — worker spans appear exactly once, via the per-task drain.
    """
    if not config:
        return set_tracer(Tracer(enabled=False))
    return set_tracer(
        Tracer(
            enabled=bool(config.get("enabled", True)),
            sample_rate=float(config.get("sample_rate", 1.0)),
            seed=int(config.get("seed", 0)),
            capacity=int(config.get("capacity", 65536)),
            trace_id=str(config.get("trace_id")) if config.get("trace_id") else None,
        )
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _MetricBase:
    """Shared label plumbing of all metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], float] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        extra = set(labels) - set(self.labelnames)
        if extra:
            raise ValueError(
                f"metric {self.name!r} has no label(s) {sorted(extra)}; "
                f"declared: {list(self.labelnames)}"
            )
        return tuple(str(labels.get(name, "")) for name in self.labelnames)

    def _label_suffix(self, key: Tuple[str, ...], extra: str = "") -> str:
        pairs = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def samples(self) -> Dict[Tuple[str, ...], float]:
        """Label-key -> value snapshot (counters and gauges)."""
        with self._lock:
            return dict(self._values)

    def value(self, **labels: object) -> float:
        """Current value for one label combination (0 if never touched)."""
        return self.samples().get(self._key(labels), 0.0)

    def expose_lines(self) -> List[str]:
        lines = []
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            lines.append(f"{self.name}{self._label_suffix(key)} {_format_value(value)}")
        return lines


class Counter(_MetricBase):
    """Monotonically increasing counter."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_MetricBase):
    """Value that can go up and down (set or adjusted)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


#: Latency-oriented default buckets, in seconds.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Histogram(_MetricBase):
    """Cumulative histogram with ``_bucket``/``_sum``/``_count`` exposition."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}
        self._totals: Dict[Tuple[str, ...], int] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        """Total observations for one label combination."""
        with self._lock:
            return self._totals.get(self._key(labels), 0)

    def expose_lines(self) -> List[str]:
        lines = []
        with self._lock:
            keys = sorted(self._totals)
            counts = {k: list(v) for k, v in self._counts.items()}
            sums = dict(self._sums)
            totals = dict(self._totals)
        for key in keys:
            for bound, cumulative in zip(self.buckets, counts[key]):
                suffix = self._label_suffix(key, f'le="{_format_value(bound)}"')
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            inf_suffix = self._label_suffix(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{inf_suffix} {totals[key]}")
            lines.append(
                f"{self.name}_sum{self._label_suffix(key)} {_format_value(sums[key])}"
            )
            lines.append(f"{self.name}_count{self._label_suffix(key)} {totals[key]}")
        return lines


class MetricsRegistry:
    """Named metrics with get-or-create registration and text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _MetricBase] = {}

    def _get_or_create(self, cls, name: str, help_text: str, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_MetricBase]:
        """Look a metric up by name (None if absent)."""
        with self._lock:
            return self._metrics.get(name)

    def expose(self) -> str:
        """Prometheus text exposition format of every registered metric."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.expose_lines())
        return "\n".join(lines) + ("\n" if lines else "")


_GLOBAL_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL_METRICS


def reset_metrics() -> MetricsRegistry:
    """Replace the global registry with an empty one (tests)."""
    global _GLOBAL_METRICS
    _GLOBAL_METRICS = MetricsRegistry()
    return _GLOBAL_METRICS
