"""Checkpoint/resume for long searches.

A checkpoint is a single JSON file holding everything needed to continue a
search after an interruption: the proposal list, the full trial history,
the optimizer's RNG state(s), and any optimizer-declared ask-side state
(``Optimizer.extra_checkpoint_state`` — sweep queues, annealing
incumbents).  Each trial is stored once, in the history.  On resume the
optimizer is rebuilt by *replaying* the history through ``tell`` exactly
as the search loop told it (population- and surrogate-based optimizers
derive their internal state from what they were told), then restoring the
declared extra state, and finally the saved RNG state — so a resumed run
continues with exactly the proposal stream an uninterrupted run would have
produced, bit-for-bit for every built-in optimizer.

Files are written as format version 2.  Version-1 files, which also held
the optimizer's observation log, still load: the log is ignored, because
replaying the history makes the same tells.

The bit-for-bit guarantee holds when the checkpointed trial count is a
multiple of the batch size, which is always the case for interruption
recovery (checkpoints are written at batch boundaries).  *Extending* a
completed run whose budget truncated its final batch (e.g. 18 trials at
batch size 8) is also supported and continues the search validly, but the
extra boundary means the trajectory may differ from a single larger-budget
run.

The file is written atomically (temp file, ``fsync``, rename), so a crash —
or power loss — mid-save never corrupts the previous checkpoint; a stale
``.tmp`` file left by a killed save is swept on the next load or save.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.trial import TrialMetrics
from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.runtime.faults import get_fault_plan
from repro.reporting.serialization import (
    params_from_jsonable,
    params_to_jsonable,
    trial_metrics_from_dict,
    trial_metrics_to_dict,
)
from repro.search.optimizer import Optimizer

__all__ = ["CheckpointState", "SearchCheckpoint"]

_FORMAT_VERSION = 2


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


class SearchCheckpoint:
    """Periodic checkpoint writer/reader bound to one file path.

    Args:
        path: Checkpoint JSON file.
        interval: Save every ``interval`` completed trials (the search also
            saves once at the end of the run).
    """

    def __init__(self, path: Union[str, Path], interval: int = 10) -> None:
        self.path = Path(path)
        self.interval = max(1, int(interval))
        self._last_saved = -1

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether a checkpoint file is present."""
        return self.path.exists()

    @property
    def _tmp_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".tmp")

    def save(self, state: CheckpointState) -> Path:
        """Atomically + durably write a checkpoint; returns the path."""
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
        text = json.dumps(payload)
        plan = get_fault_plan()
        if plan is not None and plan.fire("torn-write") is not None:
            # Injected crash mid-save: a partial temp file is left behind
            # and the rename never happens.  The previous checkpoint stays
            # intact and the next save (or load) sweeps the debris.
            tmp_path.write_text(text[: max(1, len(text) // 2)])
            return self.path
        with tmp_path.open("w") as handle:
            handle.write(text)
            # Durable before the rename: os.replace is atomic against
            # crashes, but only fsync makes the *content* survive power
            # loss once the new name is visible.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self._last_saved = state.num_completed
        return self.path

    def maybe_save(self, state: CheckpointState) -> Optional[Path]:
        """Save if at least ``interval`` trials completed since the last save."""
        if state.num_completed - max(self._last_saved, 0) >= self.interval:
            return self.save(state)
        return None

    def load(self, space: DatapathSearchSpace) -> CheckpointState:
        """Read and decode the checkpoint file.

        Sweeps any stale ``.tmp`` debris a killed save left next to the
        checkpoint (its content is partial by construction — the real file
        is only ever replaced after a full fsync'd write).
        """
        self._tmp_path.unlink(missing_ok=True)
        try:
            payload = json.loads(self.path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(
                f"checkpoint {self.path} is corrupt ({error}); delete it to "
                "restart the search from scratch"
            ) from error
        version = payload.get("version")
        if version not in (1, _FORMAT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version!r}")
        state = CheckpointState(
            fingerprint=payload["fingerprint"],
            proposals=[params_from_jsonable(p, space) for p in payload.get("proposals", [])],
            history=[trial_metrics_from_dict(m) for m in payload.get("history", [])],
            optimizer_state=payload.get("optimizer", {}),
        )
        self._last_saved = state.num_completed
        return state
