"""Serving-layer benchmark: hot-path overhead and swap under load.

1. Measures the per-translation cost of cooperative deadline checks and
   circuit-breaker admission on the happy path, bounded against an
   executor workload (<5%).
2. Hot-swaps the service's shard N times while client threads keep it
   under load: zero failed requests, final epoch ``1 + N``.  The shard
   is a stub with a fixed simulated cost, so the check isolates the
   swap protocol from model speed; it is a correctness gate, not a
   performance claim.

Run with ``pytest benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import threading
import time
import timeit

from repro.core.pipeline import RankedResult, RankedTranslation
from repro.core.resilience import (
    CircuitBreaker,
    Deadline,
    TranslationReport,
    guarded_call,
)
from repro.schema.executor import execute
from repro.serve import ServiceConfig, TranslationService
from repro.sqlkit.parser import parse_sql

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


#: Simulated per-request inference cost (sleep releases the GIL, so the
#: worker pool overlaps requests the way a real model server would).
WORK_S = 0.002
N_SWAPS = 5
#: Requests each client thread sends between two swaps.
REQUESTS_PER_SWAP = 20
CLIENTS = 2


class FixedCostPipeline:
    """Duck-typed shard with a constant simulated inference latency."""

    breakers = None
    _trained = True

    def __init__(self) -> None:
        self.ranked = RankedTranslation(
            query=parse_sql("SELECT name FROM country"),
            stage1_score=1.0,
            stage2_score=1.0,
            metadata=None,
        )

    def translate_ranked_report(
        self, question, db, compositions=None, deadline=None
    ):
        time.sleep(WORK_S)
        return RankedResult(
            [self.ranked], TranslationReport(question=question)
        )


def test_hot_swap_under_load_fails_nothing(record_result, bench_metrics):
    config = ServiceConfig(workers=4, queue_limit=64)
    stop = threading.Event()
    outcomes = {"ok": 0, "failed": 0}
    outcomes_lock = threading.Lock()

    def client() -> None:
        while not stop.is_set():
            try:
                ok = bool(service.translate("q", None, timeout=30).translations)
            except Exception:  # repolint: allow[broad-except] — counted as the metric under test
                ok = False
            with outcomes_lock:
                outcomes["ok" if ok else "failed"] += 1

    with TranslationService(FixedCostPipeline(), config) as service:
        threads = [
            threading.Thread(target=client, daemon=True)
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        for swap in range(N_SWAPS):
            target = (swap + 1) * CLIENTS * REQUESTS_PER_SWAP
            while True:  # let the clients run between swaps
                with outcomes_lock:
                    sent = outcomes["ok"] + outcomes["failed"]
                if sent >= target:
                    break
                time.sleep(WORK_S)
            service.swap(FixedCostPipeline())
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        elapsed = time.perf_counter() - started
        final_epoch = service.health().shard_epoch

    rendered = "\n".join(
        [
            "hot swap under load",
            f"  swaps mid-load:           {N_SWAPS:6d}",
            f"  requests ok / failed:     {outcomes['ok']:6d} /"
            f" {outcomes['failed']:6d}",
            f"  final epoch:              {final_epoch:6d}",
            f"  wall time:                {elapsed * 1e3:8.1f} ms",
        ]
    )
    record_result("serve_swap", rendered)
    bench_metrics(
        "serve",
        {
            "swap_requests_ok": outcomes["ok"],
            "swap_failed": outcomes["failed"],
            "swap_final_epoch": final_epoch,
        },
    )

    assert outcomes["ok"] >= N_SWAPS * CLIENTS * REQUESTS_PER_SWAP
    assert outcomes["failed"] == 0
    assert final_epoch == 1 + N_SWAPS
