"""Observability layer tests: tracing, metrics, exposition, journal.

Covers the obs primitives in isolation (deterministic clocks, golden-file
Prometheus rendering, thread hammers) and threaded through the stack: a
real trained pipeline under injected faults must still produce a full
span tree, populated histograms, and a replayable journal.
"""

from __future__ import annotations

import json
import pathlib
import threading

import numpy as np
import pytest

from repro.core.resilience import FAULTS, FaultRecord, TranslationReport
from repro.eval import aggregate_journal, evaluate_metasql
from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    Journal,
    MetricError,
    MetricsRegistry,
    Tracer,
    current_tracer,
    get_registry,
    iter_journal,
    maybe_span,
    registry_scope,
    trace_scope,
)
from repro.serve import ServiceConfig, TranslationService

pytestmark = pytest.mark.obs

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


class TickClock:
    """Advances one second per read: deterministic span durations."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


# ----------------------------------------------------------------------
# Tracing.


class TestTracer:
    def test_nested_spans_form_a_tree_with_deterministic_times(self):
        tracer = Tracer(clock=TickClock())  # origin reads t=1
        with tracer.span("outer") as outer:  # opens t=2
            with tracer.span("inner", k=7) as inner:  # opens t=3
                assert tracer.active is inner
            # inner closed at t=4
        # outer closed at t=5
        assert tracer.active is None
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert outer.offset == 1.0 and outer.duration == 3.0
        assert inner.offset == 2.0 and inner.duration == 1.0
        assert inner.attributes == {"k": 7}
        assert outer.find("inner") is inner
        assert [s.name for s in outer.walk()] == ["outer", "inner"]

    def test_span_records_error_status_and_reraises(self):
        tracer = Tracer(clock=TickClock())
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                raise ValueError("boom")
        span = tracer.roots[0]
        assert span.finished
        assert span.status == "error"
        assert span.error == "ValueError: boom"
        exported = span.as_dict()
        assert exported["status"] == "error"
        assert exported["error"] == "ValueError: boom"

    def test_as_dict_round_trips_through_json(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("root", stage="demo"):
            with tracer.span("leaf"):
                pass
        exported = json.loads(json.dumps(tracer.roots[0].as_dict()))
        assert exported["name"] == "root"
        assert exported["attributes"] == {"stage": "demo"}
        assert exported["children"][0]["name"] == "leaf"

    def test_ambient_tracer_scope(self):
        assert current_tracer() is None
        with maybe_span("ignored") as span:
            assert span is None  # no tracer installed: no-op
        tracer = Tracer()
        with trace_scope(tracer):
            assert current_tracer() is tracer
            with maybe_span("seen") as span:
                assert span is not None
        assert current_tracer() is None
        assert tracer.roots[0].name == "seen"


# ----------------------------------------------------------------------
# Metrics: instruments.


class TestCounter:
    def test_inc_and_reject_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricError, match="only go up"):
            counter.inc(-1)

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        plain = registry.counter("hammer_total")
        labelled = registry.counter("hammer_by_worker_total", labelnames=("w",))
        threads, per_thread = 8, 5_000

        def hammer(worker: int) -> None:
            mine = labelled.labels(w=str(worker % 2))
            for _ in range(per_thread):
                plain.inc()
                mine.inc()

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert plain.value == threads * per_thread
        total = sum(
            labelled.labels(w=str(w)).value for w in range(2)
        )
        assert total == threads * per_thread

    def test_label_validation(self):
        registry = MetricsRegistry()
        family = registry.counter("labelled_total", labelnames=("stage",))
        with pytest.raises(MetricError, match="takes labels"):
            family.labels(wrong="x")
        family.labels(stage="s1").inc()
        assert family.labels(stage="s1").value == 1


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        registry = MetricsRegistry()
        h = registry.histogram("h_seconds", buckets=(0.1, 0.2, 0.4))
        h.observe(0.05)  # -> le=0.1
        h.observe(0.2)  # exactly a bound -> le=0.2 (inclusive)
        h.observe(0.2000001)  # just above -> le=0.4
        h.observe(5.0)  # -> +Inf
        buckets = [
            line
            for line in registry.render_prometheus().splitlines()
            if line.startswith("h_seconds_bucket")
        ]
        assert buckets == [  # cumulative: one observation per bucket
            'h_seconds_bucket{le="0.1"} 1',
            'h_seconds_bucket{le="0.2"} 2',
            'h_seconds_bucket{le="0.4"} 3',
            'h_seconds_bucket{le="+Inf"} 4',
        ]
        assert h.count == 4
        assert h.sum == pytest.approx(5.4500001)

    def test_default_buckets_are_log_scaled_and_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
        ratios = np.diff(np.log10(np.asarray(DEFAULT_BUCKETS)))
        assert np.allclose(ratios, 0.25, atol=1e-6)  # four per decade
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-4)

    def test_invalid_buckets_rejected(self):
        with pytest.raises(MetricError, match="sorted and unique"):
            Histogram("bad_seconds", buckets=(0.2, 0.1))
        with pytest.raises(MetricError, match="sorted and unique"):
            Histogram("bad_seconds", buckets=(0.1, 0.1))

class TestRegistry:
    def test_get_or_create_deduplicates(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        assert registry.counter("x_total") is counter
        assert registry.get("x_total") is counter
        assert registry.render_prometheus() == (
            "# TYPE x_total counter\nx_total 0\n"
        )

    def test_kind_and_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricError, match="already registered as"):
            registry.gauge("x_total")
        registry.counter("y_total", labelnames=("a",))
        with pytest.raises(MetricError, match="labels"):
            registry.counter("y_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "1leading", "has space", "dash-ed"):
            with pytest.raises(MetricError, match="invalid metric name"):
                registry.counter(bad)

    def test_registry_scope_isolates_and_falls_back(self):
        ambient = get_registry()
        isolated = MetricsRegistry()
        with registry_scope(isolated):
            assert get_registry() is isolated
            get_registry().counter("scoped_total").inc()
        assert get_registry() is ambient
        assert ambient.get("scoped_total") is None
        assert isolated.counter("scoped_total").value == 1


# ----------------------------------------------------------------------
# MetricsRegistry label-family churn hammer.


def test_registry_label_family_churn_hammer():
    registry = MetricsRegistry()
    workers, laps = 8, 200
    errors: list[BaseException] = []

    def churn() -> None:
        try:
            for lap in range(laps):
                registry.counter(
                    "churn_total", "c", labelnames=("k",)
                ).labels(k=str(lap % 7)).inc()
                registry.gauge(
                    "churn_gauge", "g", labelnames=("k",)
                ).labels(k=str(lap % 5)).set(float(lap))
                registry.histogram(
                    "churn_seconds", "h", labelnames=("k",)
                ).labels(k=str(lap % 3)).observe(0.001 * lap)
        except BaseException as exc:  # repolint: allow[broad-except] — surfacing hammer failures
            errors.append(exc)

    pool = [threading.Thread(target=churn) for _ in range(workers)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors
    counter = registry.get("churn_total")
    assert (
        sum(counter.labels(k=str(k)).value for k in range(7))
        == workers * laps
    )
    histogram = registry.get("churn_seconds")
    assert (
        sum(histogram.labels(k=str(k)).count for k in range(3))
        == workers * laps
    )
    registry.render_prometheus()  # still renders deterministically


# ----------------------------------------------------------------------
# Prometheus exposition (golden file).


def _demo_registry() -> MetricsRegistry:
    """A registry with one instrument of each kind, fixed values."""
    registry = MetricsRegistry()
    requests = registry.counter(
        "demo_requests_total", "Total demo requests.", labelnames=("outcome",)
    )
    requests.labels(outcome="completed").inc(3)
    requests.labels(outcome="failed").inc()
    registry.gauge("demo_queue_depth", "Jobs waiting in the queue.").set(2)
    latency = registry.histogram(
        "demo_latency_seconds",
        "Demo request latency.",
        buckets=(0.5, 1.0),
    )
    for value in (0.25, 0.5, 0.75, 2.0):
        latency.observe(value)
    return registry


def test_prometheus_rendering_matches_golden_file():
    rendered = _demo_registry().render_prometheus()
    golden = (GOLDEN / "metrics.prom").read_text()
    assert rendered == golden


def test_prometheus_rendering_is_parseable():
    for line in _demo_registry().render_prometheus().splitlines():
        if line.startswith("#"):
            kind = line.split()
            assert kind[1] in ("HELP", "TYPE")
            continue
        name_part, value = line.rsplit(" ", 1)
        float(value)  # every sample value parses as a number
        metric = name_part.split("{", 1)[0]
        assert metric and all(c.isalnum() or c in "_:" for c in metric)


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("esc_total", labelnames=("q",)).labels(
        q='say "hi"\nback\\slash'
    ).inc()
    rendered = registry.render_prometheus()
    assert '\\"hi\\"' in rendered
    assert "\\n" in rendered and "\\\\slash" in rendered


# ----------------------------------------------------------------------
# Journal: durability and replay.


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        journal = Journal(tmp_path / "events.jsonl", clock=lambda: 123.0)
        journal.append({"event": "a", "n": 1})
        journal.append({"event": "b"}, stamp=False)
        journal.close()
        records = list(iter_journal(journal.path))
        assert [r["event"] for r in records] == ["a", "b"]
        assert records[0]["ts"] == 123.0
        assert "ts" not in records[1]

    def test_replay_skips_torn_line_from_crash_mid_write(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Journal(path) as journal:
            journal.append({"event": "before"})
        # Simulate a crash mid-write: a partial, unterminated record.
        with open(path, "ab") as handle:
            handle.write(b'{"event":"torn","half')
        records = list(iter_journal(path))
        assert [r["event"] for r in records] == ["before"]

    def test_reopen_repairs_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Journal(path) as journal:
            journal.append({"event": "before"})
        with open(path, "ab") as handle:
            handle.write(b'{"event":"torn"')
        # A new writer (post-crash restart) must not concatenate onto the
        # torn prefix: the tail is newline-terminated on reopen.
        with Journal(path) as journal:
            journal.append({"event": "after"})
        records = list(iter_journal(path))
        assert [r["event"] for r in records] == ["before", "after"]
        assert path.read_bytes().count(b"\n") == 3

    def test_concurrent_appends_all_survive(self, tmp_path):
        journal = Journal(tmp_path / "events.jsonl", fsync=False)
        threads, per_thread = 4, 50

        def writer(worker: int) -> None:
            for i in range(per_thread):
                journal.append({"w": worker, "i": i})

        pool = [
            threading.Thread(target=writer, args=(w,)) for w in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        journal.close()
        records = list(iter_journal(journal.path))
        assert len(records) == threads * per_thread
        assert {(r["w"], r["i"]) for r in records} == {
            (w, i) for w in range(threads) for i in range(per_thread)
        }


# ----------------------------------------------------------------------
# The report's journal line.


def test_journal_fields_survive_json():
    report = TranslationReport(question="q")
    report.record(
        FaultRecord(
            stage="generate",
            error_type="ValueError",
            error="boom",
            fallback="skip",
        )
    )
    report.record_lint_rejection(["SQL002", "SQL001"])
    report.record_lint_rejection(["SQL002"])
    report.deadline_budget = 1.5
    report.deadline_stage = "stage2"
    report.trace = {
        "name": "translate",
        "duration": 0.5,
        "children": [
            {"name": "generate", "duration": 0.25},
            {"name": "stage2", "duration": 0.125},
        ],
    }
    fields = json.loads(json.dumps(report.journal_fields()))
    assert fields["faults"] == [{"stage": "generate", "fallback": "skip"}]
    assert fields["degraded"] is True
    assert fields["lint_rejected"] == 2
    assert fields["lint_codes"] == {"SQL001": 1, "SQL002": 2}
    assert fields["deadline_expired"] is True
    assert fields["stages"] == {"generate": 0.25, "stage2": 0.125}


# ----------------------------------------------------------------------
# Pipeline integration: span trees and metrics from real translations.


STAGES = ("classify", "generate", "stage1", "stage2")


def _stage_children(trace: dict) -> dict[str, dict]:
    return {child["name"]: child for child in trace.get("children", ())}


class TestPipelineTracing:
    def test_translate_attaches_full_span_tree(self, trained_pipeline, tiny_benchmark):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        registry = MetricsRegistry()
        with registry_scope(registry):
            outcome = trained_pipeline.translate_ranked_report(
                example.question, db
            )
        trace = outcome.report.trace
        assert trace is not None and trace["name"] == "translate"
        children = _stage_children(trace)
        assert set(STAGES) <= set(children)
        # Stage spans run strictly in pipeline order, inside the root.
        offsets = [children[name]["offset"] for name in STAGES]
        assert offsets == sorted(offsets)
        for name in STAGES:
            child = children[name]
            assert child["duration"] >= 0.0
            assert child["offset"] + child["duration"] <= trace["duration"] + 1e-6
        # The generate stage carries per-condition sub-spans.
        generate = children["generate"]
        sub = [c["name"] for c in generate.get("children", ())]
        assert any(name.startswith("generate.") for name in sub)
        # Stage latencies landed in the scoped registry.
        histogram = registry.get("metasql_stage_latency_seconds")
        assert histogram is not None
        for name in STAGES:
            assert histogram.labels(stage=name).count >= 1
        assert registry.counter("metasql_candidates_generated_total").value > 0
        assert outcome.report.stage_durations().keys() >= set(STAGES)

    def test_span_tree_survives_injected_stage_fault(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        registry = MetricsRegistry()
        with registry_scope(registry), FAULTS.inject("stage1.rank"):
            outcome = trained_pipeline.translate_ranked_report(
                example.question, db
            )
        report = outcome.report
        assert report.degraded
        assert any(fault.stage == "stage1" for fault in report.faults)
        # The trace still covers every stage: degradation, not truncation.
        children = _stage_children(report.trace)
        assert set(STAGES) <= set(children)
        fired = registry.get("metasql_failpoint_triggered_total")
        assert fired.labels(site="stage1.rank").value == 1
        faults = registry.get("metasql_faults_total")
        assert faults is not None
        total = sum(
            child._value for key, child in faults._sorted_children()
        )
        assert total >= 1
        assert registry.counter("metasql_degraded_translations_total").value == 1

    def test_ambient_tracer_is_reused_not_replaced(
        self, trained_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        tracer = Tracer()
        with trace_scope(tracer), tracer.span("caller"):
            trained_pipeline.translate_ranked_report(example.question, db)
        root = tracer.roots[0]
        assert root.name == "caller"
        assert root.find("translate") is not None
        assert root.find("stage2") is not None


# ----------------------------------------------------------------------
# Service integration: the acceptance-criteria path.


class TestServiceObservability:
    def test_full_translation_produces_spans_metrics_and_journal(
        self, trained_pipeline, tiny_benchmark, tmp_path
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        registry = MetricsRegistry()
        journal_path = tmp_path / "serve.jsonl"
        with TranslationService(
            trained_pipeline,
            ServiceConfig(workers=1, journal_path=journal_path),
            registry=registry,
        ) as service:
            result = service.translate(example.question, db, timeout=30)
            rendered = service.metrics()
            health = service.health()

        # (1) The span tree rode back on the report: >=4 stage spans.
        children = _stage_children(result.report.trace)
        assert set(STAGES) <= set(children)

        # (2) Non-zero stage-latency histograms and queue metrics.
        stage_latency = registry.get("metasql_stage_latency_seconds")
        for name in STAGES:
            assert stage_latency.labels(stage=name).count >= 1
        assert registry.get("serve_e2e_latency_seconds").count == 1
        assert registry.get("serve_queue_wait_seconds").count == 1
        assert registry.get("serve_requests_total").labels(
            outcome="completed"
        ).value == 1

        # (3) The exposition parses and carries both layers' series.
        assert "serve_e2e_latency_seconds_count 1" in rendered
        assert 'metasql_stage_latency_seconds_bucket{stage="generate"' in rendered
        for line in rendered.splitlines():
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

        # (4) The journal recorded the request with per-stage latencies.
        records = list(iter_journal(journal_path))
        assert len(records) == 1
        record = records[0]
        assert record["event"] == "translate"
        assert record["ok"] is True
        assert set(STAGES) <= set(record["stages"])
        assert health.uptime_seconds > 0.0

    def test_metrics_exposes_live_queue_gauges(self, tmp_path):
        from tests.test_serve import StubPipeline

        registry = MetricsRegistry()
        with TranslationService(
            StubPipeline(),
            ServiceConfig(workers=1),
            registry=registry,
        ) as service:
            from repro.schema.database import Database
            from repro.schema.schema import Column, Schema, Table

            db = Database(
                Schema(db_id="d", tables=(Table("t", (Column("c"),)),))
            )
            service.translate("q", db, timeout=10)
            rendered = service.metrics()
        assert "serve_queue_depth 0" in rendered
        assert "serve_in_flight 0" in rendered
        assert 'serve_requests_total{outcome="completed"} 1' in rendered


# ----------------------------------------------------------------------
# Eval journal + offline aggregation.


class TestEvalJournal:
    def test_evaluate_writes_journal_and_aggregation_folds_it(
        self, trained_pipeline, tiny_benchmark, tmp_path
    ):
        path = tmp_path / "eval.jsonl"
        result = evaluate_metasql(
            trained_pipeline, tiny_benchmark.dev, limit=4, journal=path
        )
        records = list(iter_journal(path))
        assert len(records) == len(result.records) == 4
        for record in records:
            assert record["event"] == "eval"
            assert set(STAGES) <= set(record["stages"])
            assert record["hardness"] in ("easy", "medium", "hard", "extra")

        summary = aggregate_journal(path)
        assert summary.total == 4 and summary.eval_records == 4
        assert set(summary.stage_latencies) >= set(STAGES)
        total_em = sum(b.em_hits for b in summary.by_hardness.values())
        assert total_em == sum(r.em for r in result.records)
        assert sum(
            b.total for b in summary.by_hardness.values()
        ) == 4
        assert len(summary.latencies) == 4
        rendered = summary.render()
        assert "by hardness:" in rendered and "by stage:" in rendered

    def test_aggregation_tolerates_mixed_and_legacy_records(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with Journal(path, fsync=False) as journal:
            journal.append(
                {
                    "event": "eval",
                    "hardness": "easy",
                    "em": True,
                    "ex": True,
                    "latency_s": 0.01,
                    "stages": {"generate": 0.008},
                }
            )
            journal.append(
                {
                    "event": "translate",
                    "ok": True,
                    "degraded": True,
                    "faults": [{"stage": "stage1", "fallback": "order"}],
                    "latency_s": 0.02,
                    "stages": {"generate": 0.015},
                }
            )
            journal.append({"event": "eval"})  # legacy: missing keys
            # Not request records (an older journal's checkpoint-skip and
            # swap lines): neither is counted nor folded.
            journal.append(
                {
                    "event": "checkpoint_skipped",
                    "store": "ckpts",
                    "snapshot": "ckpt-00000002",
                    "error": "torn manifest",
                }
            )
            journal.append({"event": "swap", "outcome": "ok", "epoch": 2})
        summary = aggregate_journal(path)
        assert summary.total == 3
        assert "over 3 records (2 eval, 1 serve)" in summary.render()
        assert summary.eval_records == 2 and summary.serve_records == 1
        assert summary.degraded == 1
        assert summary.fault_counts == {"stage1": 1}
        assert summary.by_hardness["easy"].em == 1.0
        assert summary.by_hardness["unknown"].total == 1
        assert len(summary.stage_latencies["generate"]) == 2
        only_eval = aggregate_journal(path, events=("eval",))
        assert only_eval.total == 2 and only_eval.serve_records == 0
