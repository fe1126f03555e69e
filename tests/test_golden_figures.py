"""Golden pins of every paper figure's data.

Each figure registered in :mod:`repro.reporting.experiments` is pinned
exactly in ``golden_figures.json``, in one of two sections:

* ``tier1``: the figures that only simulate, at their default (the
  paper's) inputs, checked here by :func:`test_figure_matches_golden`;
* ``smoke``: the search-driven figures (9-12 and Table 4) at
  :data:`SMOKE_INPUTS`, checked by the ``figures`` CI smoke
  (``scripts/ci_smoke.sh figures``) through ``--check``.

The comparison is exact float equality after a JSON round trip, so any
drift in the cost model, the fusion solvers or a search fails a named
figure here.

How ``golden_figures.json`` was generated: by running this module as a
script (``PYTHONPATH=src python tests/test_golden_figures.py``) with Python
3.11.7, numpy 2.4.6 and scipy 1.17.1.  The fusion ILP's LP relaxations come
from scipy's HiGHS, so another scipy may move an ILP-solved figure.
Regenerate the file the same way only for an intended change to what a
figure shows, and name the figures that moved.  ``PYTHONPATH=src python
tests/test_golden_figures.py --check [NAME ...]`` compares figures with
their pins instead (default: the smoke section) and exits 1 naming each
that differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.reporting.experiments import EXPERIMENTS, list_experiments

GOLDEN_PATH = Path(__file__).with_name("golden_figures.json")
# The inputs the search-driven figures are pinned at.
SMOKE_INPUTS = {"trials": 8}


def _section(name: str) -> str:
    return "smoke" if EXPERIMENTS[name].search else "tier1"


def compute(name: str) -> object:
    """A figure's data at its pinned inputs, in the exact form JSON stores."""
    spec = EXPERIMENTS[name]
    data = spec.data(**(SMOKE_INPUTS if spec.search else {}))
    return json.loads(json.dumps(data))


def _load_golden() -> Dict[str, Dict[str, object]]:
    if not GOLDEN_PATH.exists():  # first generation
        return {"tier1": {}, "smoke": {}}
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


GOLDEN = _load_golden()


def test_every_registered_figure_is_pinned_once():
    registered = {spec.name for spec in list_experiments()}
    tier1, smoke = set(GOLDEN["tier1"]), set(GOLDEN["smoke"])
    assert not tier1 & smoke
    assert tier1 | smoke == registered
    for name in registered:
        assert name in GOLDEN[_section(name)], f"{name} is pinned in the wrong section"


@pytest.mark.parametrize("name", sorted(GOLDEN["tier1"]))
def test_figure_matches_golden(name):
    data = EXPERIMENTS[name].data()
    # Data functions return JSON data as is: no tuples, int keys or NaNs.
    assert json.loads(json.dumps(data)) == data
    assert data == GOLDEN["tier1"][name], f"{name} moved from its pin"


def _check(names) -> int:
    moved = [name for name in names if compute(name) != GOLDEN[_section(name)][name]]
    for name in moved:
        sys.stdout.write(f"{name}: data differs from its pin in {GOLDEN_PATH.name}\n")
    if not moved:
        sys.stdout.write(f"{len(names)} figures equal their pins: {', '.join(names)}\n")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        sys.exit(_check(sys.argv[2:] or sorted(GOLDEN["smoke"])))
    golden: Dict[str, Dict[str, object]] = {"tier1": {}, "smoke": {}}
    for spec in list_experiments():
        golden[_section(spec.name)][spec.name] = compute(spec.name)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
