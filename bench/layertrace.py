"""Per-layer timing measured from outside the program.

:class:`LayerTrace` replaces the attributes the program's own callers look
up (a class method, a module-level function) with wrappers that record, per
layer name, the call count, total time and *self* time: a call's duration
minus the time covered by wrapped calls made inside it.  Nothing in
``src/`` is edited and none of the program's own counters or tracer is read,
so the numbers survive changes to the program's telemetry.
:meth:`LayerTrace.restore` puts every original attribute back.

Process-pool workers forked while a trace is installed inherit the wrappers;
:meth:`LayerTrace.collect_workers` arranges for each such worker to dump its
own statistics when it exits, so pool runs report worker-side layers too.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

# Fields of one layer's record, kept as a list on the hot path.
FIELDS = ("calls", "total_s", "self_s", "items", "hits")
CALLS, TOTAL, SELF, ITEMS, HITS = range(len(FIELDS))

# Individual spans kept per process for the Chrome trace (its first 16
# batches need far fewer); the aggregates are always complete.
MAX_SPANS = 40000


def _new_record() -> List[float]:
    return [0, 0.0, 0.0, 0, 0]


class LayerTrace:
    """Wrap layer entry points; aggregate count / total / self time per name."""

    def __init__(self) -> None:
        self.records: Dict[str, List[float]] = {}
        self.spans: List[Tuple[str, float, float]] = []
        self._child_time: List[float] = []
        self._patches: List[Tuple[object, str, bool, object]] = []
        self._dump_dir: Optional[Path] = None

    # ------------------------------------------------------------------
    def _wrap(
        self,
        name: str,
        fn: Callable,
        items: Optional[Callable] = None,
        count_hits: bool = False,
    ) -> Callable:
        record = self.records.setdefault(name, _new_record())
        child_time = self._child_time
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = _perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = _perf() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                record[CALLS] += 1
                record[TOTAL] += duration
                record[SELF] += duration - inner
                if items is not None:
                    record[ITEMS] += items(args)
                if count_hits and result is not None:
                    record[HITS] += 1
                if len(spans) < MAX_SPANS:
                    spans.append((name, start, duration))

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a recording wrapper named ``name``.

        ``owner`` is a module or a class.  Static and class methods keep
        their descriptor type.  A method a class inherits is shadowed on
        that class and the shadow is deleted again by :meth:`restore`.
        """
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__, **options))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, **options))
        else:
            new = self._wrap(name, raw, **options)
        self._patches.append((owner, attr, own, raw if own else None))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, own, raw = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def patched(self) -> List[Tuple[object, str]]:
        """(owner, attribute) pairs currently replaced."""
        return [(owner, attr) for owner, attr, _, _ in self._patches]

    # ------------------------------------------------------------------
    def collect_workers(self, dump_dir: Path) -> None:
        """Have multiprocessing children forked from now on dump on exit.

        A forked pool worker inherits the wrappers and a copy of this
        object; the after-fork hook clears the copy and registers an exit
        finalizer that writes ``worker-<pid>.json`` into ``dump_dir``.
        """
        self._dump_dir = Path(dump_dir)
        mp_util.register_after_fork(self, LayerTrace._after_fork)

    def _after_fork(self) -> None:
        for record in self.records.values():
            record[:] = _new_record()
        self.spans.clear()
        self._child_time.clear()
        mp_util.Finalize(self, LayerTrace._dump, args=(self,), exitpriority=100)

    def _dump(self) -> None:
        path = self._dump_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.to_dict()))

    def merge_worker_dumps(self) -> List[dict]:
        """Fold every worker dump into this trace; returns the dumps."""
        dumps = []
        if self._dump_dir is None:
            return dumps
        for path in sorted(self._dump_dir.glob("worker-*.json")):
            dump = json.loads(path.read_text())
            path.unlink()
            for name, fields in dump["records"].items():
                record = self.records.setdefault(name, _new_record())
                for index, field in enumerate(FIELDS):
                    record[index] += fields[field]
            dumps.append(dump)
        return dumps

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{layer name: {field: value}}`` over every wrapped call so far."""
        return {name: dict(zip(FIELDS, record)) for name, record in self.records.items()}

    def to_dict(self) -> dict:
        return {"pid": os.getpid(), "records": self.summary(), "spans": self.spans}


def install_layers(trace: LayerTrace) -> None:
    """Patch the entry point of every layer the benchmark reports.

    Each attribute is the one the program's callers actually look up: the
    simulator calls ``compile_graph`` and ``vector_op_cost`` through its own
    module globals and the trial evaluator calls ``build_workload`` through
    ``repro.core.trial``, so those module attributes are the ones replaced.
    The optimizer's ``tell`` is patched separately, on the concrete class of
    the search's optimizer, once the search exists.
    """
    import repro.core.trial as trial_module
    import repro.runtime.opcache as opcache
    import repro.simulator.engine as engine
    from repro.core.fast import FASTSearch
    from repro.core.trial import TrialEvaluator
    from repro.fusion.fast_fusion import FastFusionOptimizer
    from repro.hardware.area_power import AreaPowerModel
    from repro.hardware.search_space import DatapathSearchSpace
    from repro.mapping.mapper import Mapper
    from repro.runtime.batching import BatchedOptimizer
    from repro.runtime.cache import TrialCache
    from repro.runtime.checkpoint import SearchCheckpoint
    from repro.runtime.executor import ParallelExecutor, SerialExecutor

    patch = trace.patch
    patch(FASTSearch, "run", "search.run")
    patch(BatchedOptimizer, "ask_batch", "search.ask")
    patch(SerialExecutor, "evaluate_batch", "executor.evaluate_batch")
    patch(ParallelExecutor, "evaluate_batch", "executor.evaluate_batch")
    patch(TrialEvaluator, "evaluate_params", "trial.evaluate")
    patch(TrialEvaluator, "evaluate_params_batch", "trial.evaluate_batch")
    patch(DatapathSearchSpace, "to_config", "hardware.to_config")
    patch(AreaPowerModel, "evaluate", "hardware.area_power")
    patch(engine.Simulator, "__init__", "simulator.setup")
    patch(engine.Simulator, "simulate", "simulator.simulate")
    patch(engine.Simulator, "gather_map_entry", "simulator.gather")
    patch(engine, "vector_op_cost", "simulator.vector_op")
    patch(engine, "compile_graph", "compiler.compile")
    patch(trial_module, "build_workload", "workloads.build")
    patch(Mapper, "map_op", "mapping.map", items=lambda args: 1)
    patch(Mapper, "map_ops_batch", "mapping.map", items=lambda args: len(args[1]))
    patch(
        Mapper,
        "map_trials_batch",
        "mapping.map",
        items=lambda args: sum(len(entry[1]) for entry in args[0]),
    )
    patch(FastFusionOptimizer, "optimize", "fusion.optimize", items=lambda args: len(args[1]))
    patch(opcache.RegionCostCache, "get", "cache.region.get", count_hits=True)
    patch(opcache.RegionCostCache, "peek", "cache.region.peek")
    patch(opcache.RegionCostCache, "put", "cache.region.put")
    patch(opcache.OpCostCache, "get", "cache.op.get", count_hits=True)
    patch(opcache.OpCostCache, "put", "cache.op.put")
    patch(opcache, "get_op_cache", "cache.load")
    patch(opcache, "get_region_cache", "cache.load")
    patch(TrialCache, "get", "trial_cache.get", count_hits=True)
    patch(TrialCache, "put", "trial_cache.put")
    patch(SearchCheckpoint, "maybe_save", "checkpoint.maybe_save")
    patch(SearchCheckpoint, "save", "checkpoint.save")


def chrome_trace(dumps: List[dict], origin: float, cutoff: float) -> dict:
    """Chrome trace-event JSON of spans starting in ``[origin, cutoff)``.

    ``dumps`` are :meth:`LayerTrace.to_dict` outputs (this process and its
    workers); ``time.perf_counter`` reads one system-wide monotonic clock,
    so spans from forked workers line up with the parent's.
    """
    events = []
    for dump in dumps:
        pid = dump["pid"]
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
             "args": {"name": f"pid {pid}"}}
        )
        for name, start, duration in dump["spans"]:
            if origin <= start < cutoff:
                events.append(
                    {
                        "name": name,
                        "cat": name.split(".")[0],
                        "ph": "X",
                        "ts": round((start - origin) * 1e6, 3),
                        "dur": round(duration * 1e6, 3),
                        "pid": pid,
                        "tid": pid,
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
