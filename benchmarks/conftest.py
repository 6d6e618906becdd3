"""Benchmark-suite configuration.

Each benchmark regenerates one paper table/figure at full scale, printing
the measured rows next to the paper's published rows and writing them to
``benchmarks/results/``.  The experiment context (datasets, fitted models,
trained pipelines) is cached process-wide, so training costs are paid once
across the whole suite.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def ctx():
    from repro.experiments.common import get_context

    return get_context(os.environ.get("REPRO_SCALE", "full"))


@pytest.fixture(scope="session")
def record_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, rendered: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
        print(f"\n{rendered}\n")

    return write


@pytest.fixture(scope="session")
def bench_metrics():
    """Collect named numeric results across the whole benchmark session.

    Benchmarks call ``bench_metrics("serve", {"base_ms": 1.2, ...})``;
    each named suite is written to its own ``results/BENCH_<name>.json``
    at session teardown — machine-readable artifacts regressions can be
    tracked against (CI uploads them).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    collected: dict[str, dict[str, float]] = {}

    def record(name: str, numbers: dict) -> None:
        # Merge rather than replace: several benchmarks may contribute
        # to one named suite.
        collected.setdefault(name, {}).update(
            {key: float(value) for key, value in sorted(numbers.items())}
        )

    yield record
    for name, numbers in collected.items():
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps({name: numbers}, indent=2, sort_keys=True) + "\n"
        )
