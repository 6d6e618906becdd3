"""Serving-layer benchmark: hot-path overhead.

Measures the per-translation cost of cooperative deadline checks and
circuit-breaker admission on the happy path, bounded against an
executor workload (<5%).

Run with ``pytest benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import timeit

from repro.core.resilience import (
    CircuitBreaker,
    Deadline,
    TranslationReport,
    guarded_call,
)
from repro.schema.executor import execute

from benchmarks.bench_resilience import _workload

#: Checks one fault-free translation performs: four deadline boundary
#: checks, five breaker admissions, five breaker success records.
DEADLINE_CHECKS = 4
BREAKER_CALLS = 5

REPS = 5


def _per_call(fn, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=3)) / number


def test_serve_layer_overhead_under_five_percent(record_result, bench_metrics):
    db, queries = _workload()

    def run_workload():
        for query in queries:
            execute(query, db)

    run_workload()  # warm caches before timing
    base = timeit.timeit(run_workload, number=REPS) / REPS

    deadline = Deadline(3600.0)
    t_expired = _per_call(deadline.expired, 200_000)

    breaker = CircuitBreaker("stage1", threshold=5, cooldown=30.0)
    t_allow = _per_call(breaker.allow, 200_000)
    t_success = _per_call(breaker.record_success, 200_000)

    report = TranslationReport(question="bench")
    n_guard = 20_000
    t_guard_plain = _per_call(
        lambda: guarded_call(
            "bench", lambda: None, report, fallback="skip"
        ),
        n_guard,
    )
    t_guard_breaker = _per_call(
        lambda: guarded_call(
            "bench",
            lambda: None,
            report,
            fallback="skip",
            breaker=breaker,
        ),
        n_guard,
    )

    per_translate = (
        DEADLINE_CHECKS * t_expired + BREAKER_CALLS * (t_allow + t_success)
    )
    bound = per_translate / base
    guard_delta = t_guard_breaker - t_guard_plain

    rendered = "\n".join(
        [
            "serving-layer overhead (happy path)",
            f"  workload (3 queries):        {base * 1e3:8.3f} ms",
            f"  Deadline.expired() per call: {t_expired * 1e9:8.1f} ns",
            f"  breaker allow() per call:    {t_allow * 1e9:8.1f} ns",
            f"  breaker success() per call:  {t_success * 1e9:8.1f} ns",
            f"  guarded_call plain:          {t_guard_plain * 1e6:8.2f} us",
            f"  guarded_call + breaker:      {t_guard_breaker * 1e6:8.2f} us",
            f"  per-translate additions:     {per_translate * 1e6:8.2f} us"
            f"  ({DEADLINE_CHECKS} deadline checks, "
            f"{BREAKER_CALLS}x admission+record)",
            f"  bound vs workload:           {bound * 100:6.2f} %",
        ]
    )
    record_result("serve", rendered)
    bench_metrics(
        "serve",
        {
            "workload_ms": base * 1e3,
            "deadline_expired_ns": t_expired * 1e9,
            "breaker_allow_ns": t_allow * 1e9,
            "breaker_success_ns": t_success * 1e9,
            "guarded_call_us": t_guard_plain * 1e6,
            "guarded_call_breaker_us": t_guard_breaker * 1e6,
            "overhead_bound_pct": bound * 100,
        },
    )

    assert not report.faults  # the guarded no-op never recorded anything
    assert breaker.state == "closed"
    assert bound < 0.05
    # Attaching a breaker must not blow up guarded_call itself either.
    assert guard_delta < 10 * t_guard_plain

