"""Checkpoint/resume for long searches.

A checkpoint holds everything needed to continue a search after an
interruption: the proposal list, the full trial history, the optimizer's
RNG state(s), and any optimizer-declared ask-side state
(``Optimizer.extra_checkpoint_state`` — sweep queues, annealing
incumbents).  Each trial is stored once, in the history.  On resume the
optimizer is rebuilt by *replaying* the history through ``tell`` exactly
as the search loop told it (population- and surrogate-based optimizers
derive their internal state from what they were told), then restoring the
declared extra state, and finally the saved RNG state — so a resumed run
continues with exactly the proposal stream an uninterrupted run would have
produced, bit-for-bit for every built-in optimizer.

The file is a journal of JSON lines (format version 3).  Line 1 is a
*snapshot*: ``version``, ``fingerprint``, ``num_completed``, and the
``proposals``, ``history`` and ``optimizer`` state at that save.  Each later
line is a *delta*, ``{"start": n, "proposals": [...], "history": [...],
"optimizer": {...}}``: trials ``n`` onward, and the optimizer state after
them.  A save that continues the previous one (same fingerprint, the same
history list, no fewer trials) appends a delta with one ``os.write`` and
``fsync``s it, so a search's checkpoint cost grows with its batches, not
with the square of its trials.  Every other save — the first of a manager,
the first after :meth:`SearchCheckpoint.load`, the first after a torn
append — writes a snapshot atomically (temp file, ``fsync``, rename), so a
crash mid-snapshot never corrupts the previous checkpoint; a stale ``.tmp``
file left by a killed save is swept on the next load.

Load applies each delta whose ``start`` is the trial count so far.  A torn
*last* line, the tail a crash mid-append leaves, is dropped and counted in
``corrupt_records``: the state is that of the last whole save, so a crash
loses at most one checkpoint interval.  A bad snapshot, a bad line before
the last one, or a ``start`` that does not chain is a ``ValueError``.
Version-1 and version-2 files are single-line snapshots and load as they
are; version 1's optimizer observation log is ignored, because replaying
the history makes the same tells.

The bit-for-bit guarantee holds when the checkpointed trial count is a
multiple of the batch size, which is always the case for interruption
recovery (checkpoints are written at batch boundaries).  *Extending* a
completed run whose budget truncated its final batch (e.g. 18 trials at
batch size 8) is also supported and continues the search validly, but the
extra boundary means the trajectory may differ from a single larger-budget
run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.trial import TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.runtime.faults import get_fault_plan
from repro.runtime.opcache import AppendFile
from repro.reporting.serialization import (
    params_from_jsonable,
    params_to_jsonable,
    trial_metrics_from_dict,
    trial_metrics_to_dict,
)
from repro.search.optimizer import Optimizer

__all__ = ["CheckpointState", "SearchCheckpoint"]

_FORMAT_VERSION = 3

#: What decoding a malformed (wrong-shaped) checkpoint line can raise.
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, IndexError, OverflowError)


@dataclass
class CheckpointState:
    """In-memory form of a checkpoint."""

    fingerprint: str
    proposals: List[ParameterValues] = field(default_factory=list)
    history: List[TrialMetrics] = field(default_factory=list)
    optimizer_state: Dict[str, object] = field(default_factory=dict)

    @property
    def num_completed(self) -> int:
        """Trials completed at checkpoint time."""
        return len(self.history)


def _rng_states(optimizer: Optimizer) -> Dict[str, object]:
    """Collect RNG states from an optimizer (and a wrapped inner optimizer)."""
    states = {"rng": optimizer.rng.bit_generator.state}
    inner = getattr(optimizer, "inner", None)
    if isinstance(inner, Optimizer):
        states["inner.rng"] = inner.rng.bit_generator.state
    return states


def _restore_rng_states(optimizer: Optimizer, states: Dict[str, object]) -> None:
    if "rng" in states:
        optimizer.rng.bit_generator.state = states["rng"]
    inner = getattr(optimizer, "inner", None)
    if isinstance(inner, Optimizer) and "inner.rng" in states:
        inner.rng.bit_generator.state = states["inner.rng"]


def optimizer_state_to_dict(optimizer: Optimizer) -> Dict[str, object]:
    """Serialize what replaying the history cannot rebuild: the RNG state(s)
    and any optimizer-declared ask-side state (sweep queues, incumbents, ...)."""
    return {
        "rng_states": _rng_states(optimizer),
        "extra": optimizer.extra_checkpoint_state(),
    }


def restore_optimizer(optimizer: Optimizer, state: Dict[str, object]) -> None:
    """Restore declared extra state, then RNGs, after the history's replay.

    Run after the tells, so replay side-effects that consumed fresh RNG
    draws or rebuilt stale internal state are overwritten.
    """
    optimizer.restore_extra_checkpoint_state(state.get("extra", {}))
    _restore_rng_states(optimizer, state.get("rng_states", {}))


def _torn_write() -> bool:
    """Whether an injected ``torn-write`` fault tears this save."""
    plan = get_fault_plan()
    return plan is not None and plan.fire("torn-write") is not None


class SearchCheckpoint:
    """Periodic checkpoint journal writer/reader bound to one file path.

    Args:
        path: Checkpoint file.
        interval: Save every ``interval`` completed trials (the search also
            saves once at the end of the run).

    ``corrupt_records`` is the number of torn tail lines the last
    :meth:`load` dropped (0 or 1).
    """

    def __init__(self, path: Union[str, Path], interval: int = 10) -> None:
        self.path = Path(path)
        self.interval = max(1, int(interval))
        self._last_saved = 0
        self.corrupt_records = 0
        self._appender = AppendFile(self.path)
        # What the journal on disk ends with, for a delta to continue it:
        # (fingerprint, the saved history list, trials saved); None forces
        # the next save to write a snapshot.
        self._journal: Optional[Tuple[str, List[TrialMetrics], int]] = None

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether a checkpoint file is present."""
        return self.path.exists()

    @property
    def _tmp_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".tmp")

    def save(self, state: CheckpointState) -> Path:
        """Durably write a checkpoint; returns the path.

        Appends a delta when ``state`` continues the last save, and writes a
        snapshot otherwise (see the module docstring).
        """
        journal = self._journal
        if (
            journal is not None
            and journal[0] == state.fingerprint
            and journal[1] is state.history
            and journal[2] <= state.num_completed
        ):
            saved = self._append_delta(state, journal[2])
        else:
            saved = self._write_snapshot(state)
        if saved:
            self._last_saved = state.num_completed
            self._journal = (state.fingerprint, state.history, state.num_completed)
        return self.path

    def _write_snapshot(self, state: CheckpointState) -> bool:
        payload = {
            "version": _FORMAT_VERSION,
            "fingerprint": state.fingerprint,
            "num_completed": state.num_completed,
            "proposals": [params_to_jsonable(p) for p in state.proposals],
            "history": [trial_metrics_to_dict(m) for m in state.history],
            "optimizer": state.optimizer_state,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = self._tmp_path
        text = json.dumps(payload) + "\n"
        if _torn_write():
            # Injected crash mid-save: a partial temp file is left behind
            # and the rename never happens.  The previous checkpoint stays
            # intact and the next load sweeps the debris.
            tmp_path.write_text(text[: max(1, len(text) // 2)])
            return False
        with tmp_path.open("w") as handle:
            handle.write(text)
            # Durable before the rename: os.replace is atomic against
            # crashes, but only fsync makes the *content* survive power
            # loss once the new name is visible.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self._appender.close()  # it pointed at the replaced file
        return True

    def _append_delta(self, state: CheckpointState, start: int) -> bool:
        record = {
            "start": start,
            "proposals": [params_to_jsonable(p) for p in state.proposals[start:]],
            "history": [trial_metrics_to_dict(m) for m in state.history[start:]],
            "optimizer": state.optimizer_state,
        }
        data = (json.dumps(record) + "\n").encode()
        if _torn_write():
            # Injected crash mid-append: half the record reaches the file.
            # Load drops that torn tail, and the next save writes a
            # snapshot, which leaves the debris behind.
            self._appender.write(data[: max(1, len(data) // 2)])
            self._journal = None
            return False
        self._appender.write(data)
        self._appender.fsync()
        return True

    def maybe_save(self, state: CheckpointState) -> Optional[Path]:
        """Save if at least ``interval`` trials completed since this run's last save."""
        journal = self._journal
        new_run = journal is not None and journal[1] is not state.history  # counts from 0
        if state.num_completed - (0 if new_run else self._last_saved) >= self.interval:
            return self.save(state)
        return None

    def _unreadable(self, reason: str) -> ValueError:
        return ValueError(
            f"cannot read checkpoint {self.path} ({reason}); delete it to "
            "restart the search from scratch"
        )

    def load(self, space: DatapathSearchSpace) -> CheckpointState:
        """Read the journal: its snapshot, then each delta that chains on.

        Sweeps any stale ``.tmp`` debris a killed snapshot save left next to
        the checkpoint.  Raises ``ValueError`` on a file that is not a
        checkpoint this version can read.
        """
        self._tmp_path.unlink(missing_ok=True)
        self.corrupt_records = 0
        state: Optional[CheckpointState] = None
        torn: Optional[str] = None  # why the latest line failed to decode
        with self.path.open("rb") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                if torn is not None:  # a bad line that is not the last
                    raise self._unreadable(torn)
                try:
                    record = json.loads(line)
                    if state is None:
                        state = _decode_snapshot(record, space)
                        continue
                    start, proposals, history, optimizer = _decode_delta(record, space)
                except _DECODE_ERRORS as error:
                    torn = f"line {number}: {type(error).__name__}: {error}"
                    if state is None:
                        raise self._unreadable(torn) from error
                    continue
                if start != state.num_completed:
                    raise self._unreadable(
                        f"line {number} starts at trial {start}, "
                        f"not {state.num_completed}"
                    )
                state.proposals.extend(proposals)
                state.history.extend(history)
                state.optimizer_state = optimizer
        if state is None:
            raise self._unreadable("empty file")
        self.corrupt_records = int(torn is not None)
        self._last_saved = state.num_completed
        self._journal = None  # the first save after a load is a snapshot
        return state


def _decode_snapshot(payload: object, space: DatapathSearchSpace) -> CheckpointState:
    """The state a snapshot line (any format version) holds."""
    version = payload.get("version") if isinstance(payload, dict) else None
    if version not in (1, 2, _FORMAT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    fingerprint = payload["fingerprint"]
    if not isinstance(fingerprint, str):
        raise TypeError(f"fingerprint {fingerprint!r} is not a string")
    proposals, history, optimizer = _decode_trials(
        payload.get("proposals", []),
        payload.get("history", []),
        payload.get("optimizer", {}),
        space,
    )
    return CheckpointState(fingerprint, proposals, history, optimizer)


def _decode_delta(record: object, space: DatapathSearchSpace) -> tuple:
    """``(start, proposals, history, optimizer state)`` of a delta line."""
    start = record["start"]
    if type(start) is not int or start < 0:
        raise ValueError(f"start {start!r} is not a trial count")
    trials = _decode_trials(record["proposals"], record["history"], record["optimizer"], space)
    return (start, *trials)


def _decode_trials(
    proposals: object, history: object, optimizer: object, space: DatapathSearchSpace
) -> tuple:
    """Decode one record's trials and optimizer state, checking their shape."""
    if not (isinstance(proposals, list) and isinstance(history, list)):
        raise TypeError("proposals and history must be lists")
    if len(proposals) != len(history):
        raise ValueError(f"{len(proposals)} proposals for {len(history)} trials")
    if not isinstance(optimizer, dict):
        raise TypeError(f"optimizer state {optimizer!r} is not an object")
    return (
        [params_from_jsonable(p, space) for p in proposals],
        [trial_metrics_from_dict(m) for m in history],
        optimizer,
    )
