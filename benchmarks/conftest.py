"""Paper-shape checks of the figures in :mod:`repro.reporting.experiments`.

Each ``bench_*.py`` test computes one figure's data at the paper's inputs
through the ``figure`` fixture, which times the computation once with
pytest-benchmark, and asserts the shape the paper reports.  Run them with
``python -m pytest benchmarks/bench_*.py``; ``repro reproduce <name>``
prints the same data as text, and ``tests/test_golden_figures.py`` pins it.
"""

from __future__ import annotations

import pytest

from repro.reporting.experiments import EXPERIMENTS


@pytest.fixture
def figure(benchmark):
    """``figure(name)``: the named figure's data at its default inputs."""

    def compute(name: str) -> dict:
        return benchmark.pedantic(EXPERIMENTS[name].data, rounds=1, iterations=1)

    return compute
