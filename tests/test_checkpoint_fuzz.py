"""Seeded fuzz of checkpoint loading.

``repro search --resume`` turns a ``ValueError`` from
:meth:`~repro.runtime.checkpoint.SearchCheckpoint.load` into an error
message naming the remedy, so a damaged checkpoint must either load or be
refused with a ``ValueError`` — never crash with any other exception.  A
checkpoint cut short, as a crash mid-append leaves it, must load to the
state of its last whole save.  The damage is drawn from a valid three-save
journal: cuts at every line boundary and at seeded byte offsets, seeded
byte flips, and whole lines of wrong-shaped JSON.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.fast import FASTSearch
from repro.core.problem import ObjectiveKind, SearchProblem
from repro.hardware.search_space import DatapathSearchSpace
from repro.reporting.serialization import trial_metrics_to_dict
from repro.runtime.checkpoint import CheckpointState, SearchCheckpoint

#: Seeded damages per kind; each load takes about a millisecond.
CUTS = 300
FLIPS = 300

SAVES = (2, 4, 6)  # trials at each save of the journal

#: Valid JSON that is not a checkpoint line.
WRONG_SHAPES = (
    [],
    5,
    "checkpoint",
    None,
    {},
    {"version": 2},
    {"version": 3, "fingerprint": 5},
    {"version": 2, "fingerprint": "fp", "history": 5},
    {"version": 2, "fingerprint": "fp", "proposals": [], "history": [{}]},
    {"version": 2, "fingerprint": "fp", "proposals": [5], "history": [5]},
    {"version": 2, "fingerprint": "fp", "optimizer": []},
    {"start": 2},
    {"start": "2", "proposals": [], "history": [], "optimizer": {}},
    {"start": -1, "proposals": [], "history": [], "optimizer": {}},
    {"start": 2, "proposals": {}, "history": [], "optimizer": {}},
    {"start": 2, "proposals": [], "history": [], "optimizer": [1]},
    {"start": 2, "proposals": [{"pes_x_dim": "many"}], "history": [{}], "optimizer": {}},
)


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """A valid journal of three saves, and each save's end offset and history."""
    result = FASTSearch(
        SearchProblem(["efficientnet-b0"], ObjectiveKind.PERF_PER_TDP),
        optimizer="random",
        seed=3,
    ).run(SAVES[-1], batch_size=2)
    path = tmp_path_factory.mktemp("journal") / "search.ckpt"
    manager = SearchCheckpoint(path, interval=1)
    proposals, history = [], []
    state = CheckpointState("fp", proposals, history, {"rng_states": {}, "extra": {}})
    for count in SAVES:
        proposals.extend(result.proposals[len(proposals) : count])
        history.extend(result.history[len(history) : count])
        manager.save(state)
    data = path.read_bytes()
    ends = [index for index, byte in enumerate(data) if byte == ord("\n")]
    assert len(ends) == len(SAVES)  # one snapshot line, then two deltas
    histories = [
        [trial_metrics_to_dict(m) for m in result.history[:count]] for count in SAVES
    ]
    return data, ends, histories


def _load(tmp_path, data: bytes):
    """Load ``data`` as a checkpoint: (state, dropped tail lines), or raise."""
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(data)
    reader = SearchCheckpoint(path)
    return reader.load(DatapathSearchSpace()), reader.corrupt_records


def _load_or_refuse(tmp_path, data: bytes):
    """Load ``data``; None when it is refused with a ``ValueError``."""
    try:
        return _load(tmp_path, data)
    except ValueError:
        return None
    except Exception as error:  # the property under test
        pytest.fail(f"load of {data[:60]!r}... raised {error!r}")


def test_a_cut_journal_loads_to_its_last_whole_save(tmp_path, journal):
    data, ends, histories = journal
    rng = np.random.default_rng(0)
    boundaries = [cut for end in ends for cut in (end, end + 1)]
    for cut in [0, *boundaries, *rng.integers(0, len(data), size=CUTS).tolist()]:
        whole = sum(end <= cut for end in ends)  # saves whose line is whole
        loaded = _load_or_refuse(tmp_path, data[:cut])
        if whole == 0:
            assert loaded is None, cut  # the snapshot line itself is cut
            continue
        assert loaded is not None, cut
        state, dropped = loaded
        assert [trial_metrics_to_dict(m) for m in state.history] == histories[whole - 1]
        assert len(state.proposals) == len(state.history)
        torn = cut > ends[whole - 1] + 1  # part of the next line survives
        assert dropped == int(torn), cut


def test_a_flipped_byte_loads_a_whole_save_or_is_refused(tmp_path, journal):
    data, _, _ = journal
    rng = np.random.default_rng(1)
    for _ in range(FLIPS):
        damaged = bytearray(data)
        offset = int(rng.integers(len(data)))
        damaged[offset] ^= int(rng.integers(1, 256))
        loaded = _load_or_refuse(tmp_path, bytes(damaged))
        if loaded is not None:
            state, _ = loaded
            assert state.num_completed in SAVES
            assert len(state.proposals) == len(state.history)


@pytest.mark.parametrize("shape", WRONG_SHAPES, ids=json.dumps)
def test_a_wrong_shaped_line_is_refused_unless_it_is_the_torn_tail(
    tmp_path, journal, shape
):
    data, ends, histories = journal
    line = json.dumps(shape).encode() + b"\n"
    snapshot, rest = data[: ends[0] + 1], data[ends[0] + 1 :]
    # As the whole file, or as a line before the end: refused.
    assert _load_or_refuse(tmp_path, line) is None
    assert _load_or_refuse(tmp_path, snapshot + line + rest) is None
    # As the last line, it is a torn tail: dropped and counted.
    state, dropped = _load(tmp_path, data + line)
    assert [trial_metrics_to_dict(m) for m in state.history] == histories[-1]
    assert dropped == 1


def test_a_delta_that_does_not_chain_is_refused(tmp_path, journal):
    data, _, _ = journal
    *lines, last = data.splitlines(keepends=True)
    delta = json.loads(last)
    for start in (delta["start"] - 1, delta["start"] + 1):
        gapped = json.dumps(dict(delta, start=start)).encode() + b"\n"
        with pytest.raises(ValueError, match="delete it to restart"):
            _load(tmp_path, b"".join(lines) + gapped)


@pytest.mark.parametrize(
    "malformed",
    [
        lambda p: {k: v for k, v in p.items() if k != "pes_x_dim"},
        lambda p: dict(p, bogus=5),
        lambda p: 5,
    ],
    ids=["missing-param", "extra-param", "a-number"],
)
def test_a_proposal_outside_the_space_is_refused(tmp_path, journal, malformed):
    data, ends, _ = journal
    snapshot = json.loads(data[: ends[0] + 1])
    snapshot["proposals"][0] = malformed(snapshot["proposals"][0])
    with pytest.raises(ValueError, match="delete it to restart"):
        _load(tmp_path, json.dumps(snapshot).encode() + b"\n" + data[ends[0] + 1 :])
