"""Execution-guided verification: overhead and accuracy (target: <10%).

Two claims ride on the post-rank verify stage:

1. **Overhead** — executing the top-3 ranked candidates (repair off)
   must cost under 10% of end-to-end translate latency.  Measured with
   interleaved paired timing over real dev translations (machine-load
   drift cancels in the median of per-pair ratios).
2. **Accuracy** — execution accuracy with verify+repair enabled must be
   no worse than with the stage disabled (the stage only reorders away
   from runtime failures; a correct top-1 is never displaced by an
   incorrect one).  EX is reported per hardness bucket with the delta.

Run with ``pytest benchmarks/bench_verify.py``.
"""

from __future__ import annotations

import statistics
import timeit

from repro.core.repair import RepairConfig
from repro.core.verify import VerifyConfig
from repro.eval.evaluate import evaluate_metasql

PAIRS = 9
REPS = 2

VERIFY_ON = VerifyConfig(top_k=3)
VERIFY_OFF = VerifyConfig(top_k=0)
REPAIR_OFF = RepairConfig(max_attempts=0)


def _paired_overhead(baseline, variant) -> float:
    """Median of per-pair overhead ratios, alternating run order."""
    ratios = []
    for i in range(PAIRS):
        if i % 2 == 0:
            a = timeit.timeit(baseline, number=REPS)
            b = timeit.timeit(variant, number=REPS)
        else:
            b = timeit.timeit(variant, number=REPS)
            a = timeit.timeit(baseline, number=REPS)
        ratios.append((b - a) / a)
    return statistics.median(ratios)


def test_verify_overhead_and_ex_lift(ctx, record_result, bench_metrics):
    pipe = ctx.pipeline("lgesql")
    dev = ctx.benchmark.dev
    jobs = [
        (example.question, dev.database(example.db_id))
        for example in dev.examples[:12]
    ]
    saved_verify, saved_repair = pipe.config.verify, pipe.config.repair
    try:
        pipe.config.repair = REPAIR_OFF

        def run_verified():
            pipe.config.verify = VERIFY_ON
            for question, db in jobs:
                pipe.translate_ranked_report(question, db)

        def run_unverified():
            pipe.config.verify = VERIFY_OFF
            for question, db in jobs:
                pipe.translate_ranked_report(question, db)

        run_verified(), run_unverified()  # warm caches before timing
        base = timeit.timeit(run_unverified, number=REPS) / REPS
        overhead = _paired_overhead(run_unverified, run_verified)

        # Accuracy: full dev pass with the stage off vs on (+ repair).
        pipe.config.verify = VERIFY_OFF
        pipe.config.repair = REPAIR_OFF
        without = evaluate_metasql(pipe, dev)
        pipe.config.verify = VERIFY_ON
        pipe.config.repair = RepairConfig()
        with_verify = evaluate_metasql(pipe, dev)
    finally:
        pipe.config.verify, pipe.config.repair = saved_verify, saved_repair

    ex_without, ex_with = without.ex, with_verify.ex
    by_hardness_without = without.ex_by_hardness()
    by_hardness_with = with_verify.ex_by_hardness()

    lines = [
        "execution-guided verification (top-3, demote policy)",
        f"  workload ({len(jobs)} questions): {base * 1e3:8.2f} ms",
        f"  verify overhead:           {overhead * 100:+6.2f} %"
        f"  (median of {PAIRS} interleaved pairs)",
        f"  EX without / with verify+repair: "
        f"{ex_without:.4f} / {ex_with:.4f}  "
        f"(delta {ex_with - ex_without:+.4f})",
        f"  demoted candidates: {with_verify.verify_demoted_total}, "
        f"repair attempts: {with_verify.repair_attempts_total}",
        "  EX by hardness (without -> with):",
    ]
    metrics = {
        "workload_ms": base * 1e3,
        "verify_overhead_pct": overhead * 100,
        "ex_without": ex_without,
        "ex_with": ex_with,
        "ex_delta": ex_with - ex_without,
        "verify_demoted": with_verify.verify_demoted_total,
        "repair_attempts": with_verify.repair_attempts_total,
    }
    for level, before in sorted(by_hardness_without.items()):
        after = by_hardness_with.get(level, 0.0)
        lines.append(
            f"    {level:10s} {before:.4f} -> {after:.4f} "
            f"({after - before:+.4f})"
        )
        metrics[f"ex_delta_{level}"] = after - before
    record_result("verify", "\n".join(lines))
    bench_metrics("verify", metrics)

    assert overhead < 0.10
    assert ex_with >= ex_without
