"""Concurrency-suite cost: locklint wall time over the whole ``src/`` tree.

``tools/locklint.py`` must analyze the whole ``src/`` tree — parse,
two-phase collection, interprocedural fixpoint, leaf-lock check —
inside a wall-time bound, or the tier-1 gate it backs becomes the
slowest thing in the suite.

Run with ``pytest benchmarks/bench_locklint.py``.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "locklint", REPO / "tools" / "locklint.py"
)
locklint = importlib.util.module_from_spec(spec)
sys.modules.setdefault("locklint", locklint)
spec.loader.exec_module(locklint)

#: Whole-repo static analysis must stay under this many seconds.
ANALYSIS_BUDGET_S = 10.0


def test_locklint_cost(record_result, bench_metrics):
    src = str(REPO / "src")
    start = time.perf_counter()
    findings = locklint.lint_paths([src])
    analysis_s = time.perf_counter() - start
    assert findings == []  # the tier-1 gate this run stands in for

    record_result(
        "locklint",
        "concurrency-suite costs\n"
        f"  locklint over src/:          {analysis_s * 1e3:8.1f} ms",
    )
    bench_metrics("locklint", {"analysis_ms": analysis_s * 1e3})

    assert analysis_s < ANALYSIS_BUDGET_S
