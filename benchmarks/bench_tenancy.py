"""Tenant isolation under a noisy neighbor, and swap-under-load cost.

Two claims the tenancy layer makes, measured end to end through
:class:`~repro.serve.service.TranslationService`:

1. **Quota isolation**: with tenant A flooding the service as fast as a
   tight admission quota allows (every excess submit shed with a typed
   ``TenantOverloaded``), tenant B's p99 latency stays within 25% of its
   solo p99 (plus a small absolute floor to absorb scheduler jitter on
   shared CI runners).
2. **Zero-downtime hot swap**: repeatedly hot-swapping tenant B's shard
   while B is under continuous load adds **zero** failed requests — every
   request completes on a coherent ``(pipeline, epoch)`` pair.

The shard is a stub with a fixed simulated inference cost so the numbers
isolate the serving/tenancy layer rather than model quality.

Run with ``pytest benchmarks/bench_tenancy.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.pipeline import RankedResult, RankedTranslation
from repro.core.resilience import TranslationReport
from repro.serve import ServiceConfig, TranslationService
from repro.sqlkit.errors import Overloaded, TenantOverloaded
from repro.sqlkit.parser import parse_sql
from repro.tenancy import Router, TenantQuota

pytestmark = pytest.mark.tenancy

#: Simulated per-request inference cost (sleep releases the GIL, so the
#: worker pool overlaps requests the way a real model server would).
WORK_S = 0.002
#: Requests per measured phase (solo / flood) and per swap phase.
N_REQUESTS = 150
N_SWAP_REQUESTS = 100
N_SWAPS = 5

_RANKED = RankedTranslation(
    query=parse_sql("SELECT name FROM country"),
    stage1_score=1.0,
    stage2_score=1.0,
    metadata=None,
)


class FixedCostPipeline:
    """Duck-typed shard with a constant simulated inference latency."""

    breakers = None
    _trained = True

    def translate_ranked_report(
        self, question, db, compositions=None, deadline=None
    ):
        time.sleep(WORK_S)
        return RankedResult([_RANKED], TranslationReport(question=question))


def _p99(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


def _measure_tenant(service, tenant: str, n: int) -> list[float]:
    """Serial closed-loop client: per-request e2e latency, seconds."""
    latencies = []
    for index in range(n):
        started = time.perf_counter()
        service.translate(f"q{index}", None, tenant=tenant, timeout=30)
        latencies.append(time.perf_counter() - started)
    return latencies


def test_tenant_isolation_and_swap_cost(record_result, bench_metrics):
    router = Router()
    # Tenant A: one request in flight at a time, everything else shed.
    router.register(
        "noisy", FixedCostPipeline(), quota=TenantQuota(max_share=1)
    )
    router.register("victim", FixedCostPipeline())
    config = ServiceConfig(workers=4, queue_limit=256)

    with TranslationService(router, config) as service:
        # Warm the worker pool, then measure tenant B alone.
        _measure_tenant(service, "victim", 10)
        solo = _measure_tenant(service, "victim", N_REQUESTS)

        # Tenant A floods from two threads for the whole flood phase.
        stop = threading.Event()
        flood_stats = {"admitted": 0, "rejected": 0}
        stats_lock = threading.Lock()

        def flood():
            while not stop.is_set():
                try:
                    future = service.submit("flood", None, tenant="noisy")
                    future.result(timeout=30)
                    with stats_lock:
                        flood_stats["admitted"] += 1
                except (TenantOverloaded, Overloaded):
                    with stats_lock:
                        flood_stats["rejected"] += 1
                    # Shed clients back off briefly (as a real client
                    # would on a 429) instead of spinning on the GIL.
                    time.sleep(WORK_S / 4)

        threads = [
            threading.Thread(target=flood, daemon=True) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            flooded = _measure_tenant(service, "victim", N_REQUESTS)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)

        # Hot-swap tenant B's shard repeatedly while B stays under load.
        swap_failed = 0
        swap_latencies = []
        for index in range(N_SWAP_REQUESTS):
            if index % (N_SWAP_REQUESTS // N_SWAPS) == 0:
                service.swap(FixedCostPipeline(), tenant="victim")
            started = time.perf_counter()
            try:
                service.translate(
                    f"s{index}", None, tenant="victim", timeout=30
                )
            except Exception:  # repolint: allow[broad-except] — counted as the metric under test
                swap_failed += 1
                continue
            swap_latencies.append(time.perf_counter() - started)
        final_epoch = router.resolve("victim").shard.epoch

    p99_solo, p99_flood = _p99(solo), _p99(flooded)
    p99_swap = _p99(swap_latencies)
    # 25% relative bound with a 20ms absolute floor for runner jitter.
    bound = max(1.25 * p99_solo, p99_solo + 0.020)
    ratio = p99_flood / p99_solo if p99_solo else float("inf")

    rendered = "\n".join(
        [
            "tenant isolation under a noisy neighbor",
            f"  victim p99 solo:          {p99_solo * 1e3:8.2f} ms",
            f"  victim p99 under flood:   {p99_flood * 1e3:8.2f} ms"
            f"  ({ratio * 100:.0f}% of solo; bound {bound * 1e3:.2f} ms)",
            f"  flood admitted/rejected:  {flood_stats['admitted']:6d} /"
            f" {flood_stats['rejected']:6d}",
            f"  p99 with {N_SWAPS} swaps mid-load: {p99_swap * 1e3:8.2f} ms",
            f"  swap failed requests:     {swap_failed:6d}"
            f"  (epoch {final_epoch})",
        ]
    )
    record_result("tenancy", rendered)
    bench_metrics(
        "tenancy",
        {
            "p99_solo_ms": p99_solo * 1e3,
            "p99_flood_ms": p99_flood * 1e3,
            "flood_over_solo_pct": ratio * 100,
            "flood_admitted": flood_stats["admitted"],
            "flood_rejected": flood_stats["rejected"],
            "p99_swap_ms": p99_swap * 1e3,
            "swap_failed": swap_failed,
            "final_epoch": final_epoch,
        },
    )

    # The quota actually bit: the flood was mostly shed, not served.
    assert flood_stats["rejected"] > flood_stats["admitted"]
    # Isolation: the victim's tail is flat under the flood.
    assert p99_flood <= bound
    # Zero-downtime: swapping mid-load failed nothing and advanced epochs.
    assert swap_failed == 0
    assert final_epoch == 1 + N_SWAPS
