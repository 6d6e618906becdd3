"""One end-to-end workload, run in a fresh process by ``run.py``.

The process builds its inputs, trains the pipeline (timed as set-up),
warms up on questions disjoint from the measured ones, then sends
:data:`REQUESTS` requests (fewer if ``--seconds`` runs out) and prints
one JSON object as its last line of output.  ``run.py`` starts it with
``PYTHONHASHSEED=0`` and ``src`` on the path; running it by hand needs
the same environment.

With ``--trace 1`` the measured requests run in blocks.  For each block
the process forks: the child sends the block untraced, then the parent
sends it again with timing wrappers installed on each layer's public
entry point, and the two are compared for the tracing overhead.  Forking
gives both sides the same trained state and caches without training
twice; no thread is alive at a fork (the service's workers are joined at
the end of every block).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import harness
from harness import SpanLog, children_index, instrumented, percentile, self_time

import repro.core.generation
import repro.core.negatives
import repro.core.pipeline
import repro.core.verify
import repro.models.beam
import repro.models.cues
from repro.core.pipeline import MetaSQL, MetaSQLConfig
from repro.data.spider import build_spider
from repro.eval.metrics import execution_match
from repro.models.registry import create_model
from repro.perf.cache import LRUCache
from repro.serve import ServiceConfig, TranslationService
from repro.sqlkit.analyze import SemanticAnalyzer
from repro.sqlkit.compare import exact_match

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
RESULTS = HERE.parent / "results" / "e2e"

#: Requests a run sends unless ``--seconds`` runs out first.  A fixed
#: count keeps the memory the caches hold at the end the same from run
#: to run.
REQUESTS = 500
#: Requests a run sends at least, however short ``--seconds`` is.
MIN_REQUESTS = 200
#: Tail percentile reported: ten samples lie beyond it in the shortest run.
TAIL = harness.supported_percentile(MIN_REQUESTS)
#: Requests per traced/untraced block of a traced run.
TRACE_BLOCK = 32


@dataclass(frozen=True)
class Workload:
    model: str  # base model preset
    served: bool  # through TranslationService, else direct calls


WORKLOADS = {
    "spider-lgesql": Workload("lgesql", False),
    "serve-chatgpt": Workload("chatgpt", True),
}


# ----------------------------------------------------------------------
# Inputs.  Fixed set-up; the seed only picks the sample and its order.


def build_inputs():
    """(training split, measured pool of ``(example, database)``)."""
    spider = build_spider(seed=11, train_per_domain=30, dev_per_domain=48)
    items = [(e, spider.dev.database(e.db_id)) for e in spider.dev.examples]
    return spider.train, items


def new_pipeline(model: str) -> MetaSQL:
    return MetaSQL(create_model(model), MetaSQLConfig(ranker_train_questions=120))


def top1_sql(result) -> str:
    return result.translations[0].sql if result.translations else ""


def answer_hash(sql: str) -> str:
    return hashlib.sha256(sql.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# Timing wrappers on each layer's public entry point.


def setup_targets(pipeline: MetaSQL):
    return [
        (pipeline.model, "fit", "setup.model_fit", None, None),
        (pipeline.classifier, "fit", "setup.classifier_fit", None, None),
        (pipeline.generator, "generate", "generate", None, None),
        (repro.core.negatives, "collect_negative_samples", "setup.negatives", None, None),
        (pipeline.stage1, "fit", "setup.stage1_fit", None, None),
        (pipeline.stage2, "fit", "setup.stage2_fit", None, None),
    ]


def request_targets(pipeline: MetaSQL, rid_by_question: dict):
    def rid_of(args, kwargs):
        return rid_by_question.get(args[0] if args else kwargs.get("question"))

    # The model is wrapped on the instance: FewShotLLM.translate calls
    # super().translate, which a class-level wrapper would count twice.
    model = pipeline.model
    targets = [
        (pipeline, "translate_ranked_report", "translate", rid_of, None),
        (pipeline.classifier, "predict", "classify.predict", None, None),
        (pipeline.composer, "compose", "classify.compose", None, None),
        (pipeline.generator, "generate", "generate", None, None),
        (model, "translate", "model.decode", None, lambda a, k, r: len(r)),
        (repro.models.cues, "extract_cues", "model.cues", None, None),
        (model.sketch_model, "score_sketches", "model.sketch", None, None),
        (repro.models.beam, "run", "model.beam", None, None),
        (repro.core.generation, "ground_values", "generate.ground", None, None),
        (SemanticAnalyzer, "analyze", "generate.lint", None, None),
        (pipeline.stage1, "rank", "stage1.rank", None, None),
        (pipeline.stage2, "rank", "stage2.rank", None, None),
        (repro.core.pipeline, "verify_candidates", "verify", None, None),
        (repro.core.verify, "execute", "verify.execute", None, None),
        (repro.core.pipeline, "run_repair", "repair", None, None),
    ]
    if hasattr(model, "retrieve"):
        targets.append((model, "retrieve", "model.retrieve", None, None))
    return targets


def cache_counters() -> dict[str, list[int]]:
    """Hits, misses and evictions of every LRU cache, by layer."""
    totals = {"stage1": [0, 0, 0], "stage2": [0, 0, 0], "memo": [0, 0, 0]}
    for obj in gc.get_objects():
        if isinstance(obj, LRUCache):
            layer = obj.name.split(".")[0]
            row = totals[layer if layer in totals else "memo"]
            row[0] += obj.hits
            row[1] += obj.misses
            row[2] += obj.evictions
    return totals


# ----------------------------------------------------------------------
# Measured phase.


def measure(spec: Workload, pipeline, pool, rids, seconds=math.inf):
    """Send *rids*, stopping after *seconds*; returns (requests, service set-up s)."""
    if not spec.served:
        def call(rid):
            example, db = pool[rid]
            return pipeline.translate_ranked_report(example.question, db)

        requests, __ = harness.closed_loop(rids, call, seconds, MIN_REQUESTS)
        return requests, 0.0

    start = time.perf_counter()
    service = TranslationService(pipeline, ServiceConfig())
    service_s = time.perf_counter() - start
    try:
        def call(rid):
            example, db = pool[rid]
            return service.translate(example.question, db)

        requests, __ = harness.closed_loop(rids, call, seconds, MIN_REQUESTS)
    finally:
        service.shutdown(wait=True)
    return requests, service_s


def untraced_twin(spec, pipeline, pool, rids):
    """Measure untraced in a forked child; returns its per-request durations."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            requests, __ = measure(spec, pipeline, pool, rids)
            with os.fdopen(write_end, "w") as out:
                json.dump(translate_durations(requests), out)
            status = 0
        except Exception:  # report, then leave through os._exit below
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as source:
        data = source.read()
    __, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise SystemExit("untraced twin failed")
    return json.loads(data)


def traced_run(spec, pipeline, pool, rids, spans, seconds):
    """Run blocks of *rids* traced for *seconds*, each first untraced from the same state.

    Blocks of about a second alternate between the two, so a drift in
    the host's speed reaches both sides of the comparison alike.
    Returns the traced requests and the untraced per-request durations.
    """
    rid_by_question = {pool[rid][0].question: rid for rid in rids}
    requests, untraced = [], {}
    start = time.perf_counter()
    for first in range(0, len(rids), TRACE_BLOCK):
        if len(requests) >= MIN_REQUESTS and time.perf_counter() - start >= seconds:
            break
        block = rids[first:first + TRACE_BLOCK]
        untraced.update(untraced_twin(spec, pipeline, pool, block))
        with instrumented(request_targets(pipeline, rid_by_question), spans):
            requests += measure(spec, pipeline, pool, block)[0]
    return requests, untraced


def translate_durations(requests) -> dict[str, float]:
    """Request id -> time in translate_ranked_report, in reference units.

    The time is the program's own root span; dividing it by the
    reference work around the request cancels the host's speed, which
    differs between a block's untraced and traced run.
    """
    return {
        str(r.rid): r.result.report.trace["duration"] / r.ref
        for r in requests
        if r.result is not None and r.result.report.trace
    }


# ----------------------------------------------------------------------
# Metrics.


def end_to_end_metrics(requests, setup_s) -> dict:
    """Latency in reference units (see ``harness.reference_work``), then in ms."""
    ok = [r for r in requests if r.result is not None]
    relative = [r.latency_ref for r in ok]
    latencies = [r.latency for r in ok]
    return {
        # A closed loop's throughput: requests per unit of its busy time.
        "throughput_per_kref": (1e3 * len(relative) / sum(relative), "1/kref"),
        "latency_p50_ref": (percentile(relative, 50), "ref"),
        f"latency_p{TAIL:.0f}_ref": (percentile(relative, TAIL), "ref"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        f"latency_p{TAIL:.0f}_ms": (percentile(latencies, TAIL) * 1e3, "ms"),
        "reference_ms": (statistics.median(r.ref for r in requests) * 1e3, "ms"),
    }


def stage_attribute(report, stage: str, key: str) -> int:
    for child in (report.trace or {}).get("children", ()):
        if child["name"] == stage:
            return child.get("attributes", {}).get(key, 0)
    return 0


def layer_metrics(requests, spans, setup_spans, caches, twin) -> dict:
    """Per-layer numbers of a traced run, per request unless noted."""
    ok = [r for r in requests if r.result is not None]
    n = max(len(ok), 1)
    traced = [s for s in spans if s.rid is not None]
    by_name = defaultdict(list)
    for span in traced:
        by_name[span.name].append(span)
    kids = children_index(traced)

    def ms(name):
        return sum(s.end - s.start for s in by_name[name]) / n * 1e3

    def calls(name):
        return len(by_name[name]) / n

    def self_ms(name):
        return sum(
            self_time(s.start, s.end, [(c.start, c.end) for c in kids.get(s.id, ())])
            for s in by_name[name]
        ) / n * 1e3

    def setup_s(name):
        return sum(s.end - s.start for s in setup_spans if s.name == name)

    reports = [r.result.report for r in ok]

    def mean_attr(stage, key):
        return sum(stage_attribute(rep, stage, key) for rep in reports) / n

    decoded = sum(s.value or 0 for s in by_name["model.decode"])
    ranked = sum(stage_attribute(rep, "stage2", "ranked") for rep in reports)
    executed = failing = 0
    for rep in reports:
        outcomes = rep.verify_outcomes
        executed += sum(outcomes.values()) - outcomes.get("skipped", 0)
        failing += outcomes.get("error", 0) + outcomes.get("budget", 0)

    # Time before translate_ranked_report starts (the service's queue on
    # serve-closed, the harness's own call on direct workloads) and after.
    translate = {s.rid: s for s in by_name["translate"]}
    waits, inside, outside = [], [], []
    for r in ok:
        span = translate[r.rid]
        waits.append(span.start - r.sent)
        inside.append(span.end - span.start)
        outside.append(r.latency - (span.end - span.start))

    def ratio(row):
        looked = row[0] + row[1]
        return row[0] / looked if looked else 0.0

    # Median of per-request ratios: a burst of machine noise during one
    # of the two runs moves a few requests, not the median.  The timing
    # wrappers run inside the traced request, never inside its reference
    # work, so the ratio keeps their cost.
    traced_durations = translate_durations(requests)
    overhead = [
        traced_durations[rid] / untraced
        for rid, untraced in twin.items()
        if rid in traced_durations and untraced > 0
    ]
    return {
        "setup.model_fit_s": (setup_s("setup.model_fit"), "s"),
        "setup.classifier_fit_s": (setup_s("setup.classifier_fit"), "s"),
        "setup.supervision_generate_s": (setup_s("generate"), "s"),
        "setup.supervision_generate_calls": (
            sum(1 for s in setup_spans if s.name == "generate"), "count"),
        "setup.negatives_s": (setup_s("setup.negatives"), "s"),
        "setup.stage1_fit_s": (setup_s("setup.stage1_fit"), "s"),
        "setup.stage2_fit_s": (setup_s("setup.stage2_fit"), "s"),
        "classify.predict_ms": (ms("classify.predict"), "ms"),
        "classify.compose_ms": (ms("classify.compose"), "ms"),
        "classify.compositions": (mean_attr("classify", "compositions"), "count"),
        "model.decode_ms": (ms("model.decode"), "ms"),
        "model.decode_calls": (calls("model.decode"), "count"),
        "model.decode_self_ms": (self_ms("model.decode"), "ms"),
        "model.cues_ms": (ms("model.cues"), "ms"),
        "model.sketch_ms": (ms("model.sketch"), "ms"),
        "model.sketch_calls": (calls("model.sketch"), "count"),
        "model.retrieve_ms": (ms("model.retrieve"), "ms"),
        "model.retrieve_calls": (calls("model.retrieve"), "count"),
        "model.beam_ms": (ms("model.beam"), "ms"),
        "generate.ms": (ms("generate"), "ms"),
        "generate.self_ms": (self_ms("generate"), "ms"),
        "generate.ground_ms": (ms("generate.ground"), "ms"),
        "generate.ground_calls": (calls("generate.ground"), "count"),
        "generate.lint_ms": (ms("generate.lint"), "ms"),
        "generate.lint_calls": (calls("generate.lint"), "count"),
        "funnel.decoded": (decoded / n, "count"),
        "funnel.lint_rejected": (sum(rep.lint_rejected for rep in reports) / n, "count"),
        "funnel.deduped": (mean_attr("generate", "deduped"), "count"),
        "funnel.ranked": (ranked / n, "count"),
        "funnel.useful_ratio": (ranked / decoded if decoded else 0.0, "fraction"),
        "stage1.rank_ms": (ms("stage1.rank"), "ms"),
        "stage1.batch": (mean_attr("stage1", "batch_size"), "count"),
        "stage2.rank_ms": (ms("stage2.rank"), "ms"),
        "stage2.batch": (mean_attr("stage2", "batch_size"), "count"),
        "cache.stage1_hit_ratio": (ratio(caches["stage1"]), "fraction"),
        "cache.stage2_hit_ratio": (ratio(caches["stage2"]), "fraction"),
        "cache.memo_hit_ratio": (ratio(caches["memo"]), "fraction"),
        "cache.evictions": (sum(row[2] for row in caches.values()), "count"),
        "verify.ms": (ms("verify"), "ms"),
        "verify.execute_ms": (ms("verify.execute"), "ms"),
        "verify.execute_calls": (calls("verify.execute"), "count"),
        "verify.demoted": (sum(rep.verify_demoted for rep in reports) / n, "count"),
        "verify.failed_ratio": (failing / executed if executed else 0.0, "fraction"),
        "repair.attempts": (sum(rep.repair_attempts for rep in reports) / n, "count"),
        "repair.ms": (ms("repair"), "ms"),
        "serve.queue_wait_p50_ms": (percentile(waits, 50) * 1e3, "ms"),
        f"serve.queue_wait_p{TAIL:.0f}_ms": (percentile(waits, TAIL) * 1e3, "ms"),
        "serve.translate_p50_ms": (percentile(inside, 50) * 1e3, "ms"),
        "serve.overhead_p50_ms": (percentile(outside, 50) * 1e3, "ms"),
        "requests.sent": (len(requests), "count"),
        "requests.ok": (len(ok), "count"),
        "requests.failed": (len(requests) - len(ok), "count"),
        "requests.degraded": (sum(1 for rep in reports if rep.degraded), "count"),
        "trace.overhead_pct": ((percentile(overhead, 50) - 1.0) * 100.0, "%"),
    }


# ----------------------------------------------------------------------
# Entry points.


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    # One CPU for every thread, so a served request runs on the core the
    # reference work around it was timed on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    train, pool = build_inputs()
    warm, order = harness.sample_order(len(pool), seed)
    rids = order[:REQUESTS]
    pipeline = new_pipeline(spec.model)
    setup_spans = SpanLog()
    with instrumented(setup_targets(pipeline) if trace else [], setup_spans):
        start = time.perf_counter()
        pipeline.train(train)
        train_s = time.perf_counter() - start
    answers = {
        rid: top1_sql(pipeline.translate_ranked_report(pool[rid][0].question, pool[rid][1]))
        for rid in warm
    }

    spans = SpanLog()
    caches_before = cache_counters()
    if trace:
        requests, twin = traced_run(spec, pipeline, pool, rids, spans, seconds)
    else:
        requests, service_s = measure(spec, pipeline, pool, rids, seconds)
    caches_after = cache_counters()

    failed = 0
    for request in requests:
        result = request.result
        if result is None or not result.translations:
            failed += 1
        if result is not None:
            answers[request.rid] = top1_sql(result)
    pinned = json.loads(EXPECTED.read_text())["answers"][spec.model]
    mismatches = sorted(rid for rid, sql in answers.items() if answer_hash(sql) != pinned[rid])

    scored = [r for r in requests if r.result is not None and r.result.translations]
    ex = em = 0
    for request in scored:
        example, db = pool[request.rid]
        predicted = request.result.translations[0].query
        ex += execution_match(predicted, example.sql, db)
        em += exact_match(predicted, example.sql)

    if trace:
        caches = {
            layer: [after - before for after, before in zip(caches_after[layer], caches_before[layer])]
            for layer in caches_after
        }
        metrics = layer_metrics(requests, spans.spans, setup_spans.spans, caches, twin)
        RESULTS.mkdir(parents=True, exist_ok=True)
        (RESULTS / f"trace-{name}.json").write_text(json.dumps({
            "fields": list(harness.Span._fields),
            "setup": [list(s) for s in setup_spans.spans],
            "spans": [list(s) for s in spans.spans],
        }))
    else:
        metrics = end_to_end_metrics(requests, train_s + service_s)

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "correct": not mismatches,
        "attempted": len(requests),
        "failed": failed,
        "answers_checked": len(answers),
        "answers_changed": len(mismatches),
        "mismatches": mismatches[:20],
        "ex": ex / len(scored) if scored else 0.0,
        "em": em / len(scored) if scored else 0.0,
        "samples": len(scored),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def pin() -> dict:
    """Answer every pool question once per model, in pool order."""
    tables, accuracy = {}, {}
    train, pool = build_inputs()
    for model in ("lgesql", "chatgpt"):
        pipeline = new_pipeline(model).train(train)
        hashes, ex, em = [], 0, 0
        for example, db in pool:
            result = pipeline.translate_ranked_report(example.question, db)
            hashes.append(answer_hash(top1_sql(result)))
            if result.translations:
                ex += execution_match(result.translations[0].query, example.sql, db)
                em += exact_match(result.translations[0].query, example.sql)
        tables[model] = hashes
        accuracy[model] = {"questions": len(pool), "ex": ex / len(pool), "em": em / len(pool)}
        print(f"pinned {model}: {accuracy[model]}", file=sys.stderr)
    return {
        "hash": "first 12 hex digits of sha256 of the top-1 SQL ('' when none)",
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "accuracy": accuracy,
        "answers": tables,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if args.pin:
        EXPECTED.write_text(json.dumps(pin(), indent=1) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
