"""Execution-guided verification and bounded self-repair tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import QueryMetadata
from repro.core.pipeline import MetaSQL, RankedTranslation
from repro.core.repair import (
    RepairConfig,
    diagnose,
    perturb_compositions,
    run_repair,
)
from repro.core.resilience import (
    FAULTS,
    CircuitBreaker,
    Deadline,
    TranslationReport,
)
from repro.core.verify import (
    CandidateVerdict,
    VerifyConfig,
    VerifyResult,
    verify_candidates,
)
from repro.eval.journal_analysis import aggregate_journal
from repro.obs.journal import Journal
from repro.schema.database import Database
from repro.schema.executor import ExecutionBudget, budget_scope, execute
from repro.schema.schema import NUMBER, Column, Schema, Table
from repro.sqlkit.errors import ExecutionBudgetError
from repro.sqlkit.parser import parse_sql

pytestmark = pytest.mark.robustness

GOLDEN = "tests/golden/journal_summary.txt"


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    FAULTS.disarm()


@pytest.fixture()
def verify_db():
    schema = Schema(
        db_id="vtest",
        tables=(Table("t", (Column("a"), Column("n", NUMBER))),),
    )
    db = Database(schema)
    db.insert_many("t", [{"a": "x", "n": 1}, {"a": "y", "n": 2}])
    return db


OK_SQL = "SELECT a FROM t"
EMPTY_SQL = "SELECT a FROM t WHERE n > 999"
ERROR_SQL = "SELECT bogus FROM t"


def _queries(*sqls):
    return [parse_sql(sql) for sql in sqls]


# ----------------------------------------------------------------------
# Verify stage: outcome taxonomy and the demotion policy matrix.


class TestVerifyCandidates:
    def test_outcomes_ok_empty_error(self, verify_db):
        result = verify_candidates(
            _queries(ERROR_SQL, OK_SQL, EMPTY_SQL),
            verify_db,
            VerifyConfig(top_k=3),
        )
        assert [v.outcome for v in result.verdicts] == [
            "error", "ok", "empty",
        ]
        assert result.checked == 3
        assert result.verdicts[1].rows == 2

    def test_demote_reorders_passing_first(self, verify_db):
        result = verify_candidates(
            _queries(ERROR_SQL, ERROR_SQL, OK_SQL),
            verify_db,
            VerifyConfig(top_k=3),
        )
        # Passing, then hard failures in their beam order.
        assert result.order == [2, 0, 1]
        assert result.demoted == 2

    def test_demote_empty_off_by_default(self, verify_db):
        result = verify_candidates(
            _queries(ERROR_SQL, OK_SQL, EMPTY_SQL),
            verify_db,
            VerifyConfig(top_k=3),
        )
        # An empty result counts as passing: it is never demoted.
        assert result.order == [1, 2, 0]
        assert result.demoted == 1  # only the hard failure

    def test_off_is_identity(self, verify_db):
        config = VerifyConfig(top_k=0)
        assert not config.enabled
        result = verify_candidates(
            _queries(ERROR_SQL, OK_SQL, EMPTY_SQL), verify_db, config
        )
        assert result.order == [0, 1, 2]
        assert result.demoted == 0

    def test_beyond_top_k_is_unverified_and_keeps_rank(self, verify_db):
        result = verify_candidates(
            _queries(ERROR_SQL, EMPTY_SQL, OK_SQL),
            verify_db,
            VerifyConfig(top_k=1),
        )
        # Only candidate 0 executed; 1 and 2 are presumed innocent.
        assert [v.outcome for v in result.verdicts] == ["error"]
        assert result.order == [1, 2, 0]
        assert result.checked == 1

    def test_budget_exhaustion_marks_budget_then_skipped(self, verify_db):
        result = verify_candidates(
            _queries(OK_SQL, OK_SQL, OK_SQL),
            verify_db,
            VerifyConfig(top_k=3, budget_steps=1, budget_rows=None),
        )
        assert result.verdicts[0].outcome == "budget"
        assert result.verdicts[0].detail == "ExecutionBudgetError"
        assert [v.outcome for v in result.verdicts[1:]] == [
            "skipped", "skipped",
        ]
        assert result.budget_remaining == 0

    def test_time_cap_expiry_skips_everything(self, verify_db):
        ticks = iter(range(0, 1000, 100))
        config = VerifyConfig(
            top_k=3, time_cap=0.5, clock=lambda: float(next(ticks))
        )
        result = verify_candidates(
            _queries(OK_SQL, OK_SQL), verify_db, config
        )
        assert [v.outcome for v in result.verdicts] == [
            "skipped", "skipped",
        ]
        assert result.order == [0, 1]
        assert result.checked == 0

    def test_expired_request_deadline_skips(self, verify_db):
        deadline = Deadline(1.0, clock=iter([0.0, 100.0, 100.0]).__next__)
        result = verify_candidates(
            _queries(OK_SQL),
            verify_db,
            VerifyConfig(top_k=1, time_cap=None),
            deadline=deadline,
        )
        assert [v.outcome for v in result.verdicts] == ["skipped"]

    def test_top1_failed_only_for_executed_hard_failures(self, verify_db):
        failing = verify_candidates(
            _queries(ERROR_SQL, ERROR_SQL),
            verify_db,
            VerifyConfig(top_k=2),
        )
        assert failing.top1_failed
        empty = verify_candidates(
            _queries(EMPTY_SQL), verify_db, VerifyConfig(top_k=1)
        )
        assert not empty.top1_failed  # empty demotes but never repairs
        passing = verify_candidates(
            _queries(ERROR_SQL, OK_SQL), verify_db, VerifyConfig(top_k=2)
        )
        assert not passing.top1_failed

    def test_report_round_trips_verify_fields(self):
        report = TranslationReport(question="q")
        report.record_verify({"ok": 2, "error": 1}, demoted=1)
        report.repair_attempts = 2
        report.repair_succeeded = True
        fields = json.loads(json.dumps(report.journal_fields()))
        assert fields["verify_demoted"] == 1
        assert fields["verify_outcomes"] == {"error": 1, "ok": 2}
        assert fields["repair_attempts"] == 2
        assert fields["repair_succeeded"] is True


# ----------------------------------------------------------------------
# Satellite 2: ambient execution budget ergonomics.


class TestAmbientBudget:
    def test_repeated_executes_charge_cumulatively(self, verify_db):
        query = parse_sql(OK_SQL)
        budget = ExecutionBudget(max_steps=10_000)
        with budget_scope(budget):
            execute(query, verify_db)
            first = budget.steps
            assert first > 0
            assert budget.remaining() == 10_000 - first
            execute(query, verify_db)
            assert budget.steps == 2 * first
            assert budget.remaining() == 10_000 - 2 * first
        assert not budget.exhausted

    def test_exhaustion_across_calls(self, verify_db):
        query = parse_sql(OK_SQL)
        probe = ExecutionBudget(max_steps=None)
        with budget_scope(probe):
            execute(query, verify_db)
        per_call = probe.steps
        budget = ExecutionBudget(max_steps=per_call + per_call // 2)
        with budget_scope(budget):
            execute(query, verify_db)
            with pytest.raises(ExecutionBudgetError):
                execute(query, verify_db)
        assert budget.exhausted
        assert budget.remaining() == 0

    def test_unlimited_budget_remaining_is_none(self):
        budget = ExecutionBudget(max_steps=None)
        assert budget.remaining() is None
        assert not budget.exhausted


# ----------------------------------------------------------------------
# Repair: diagnostics, perturbation, bounded loop (stub pipeline).


def _ranked(db_sql=OK_SQL, metadata=None):
    return RankedTranslation(
        query=parse_sql(db_sql),
        stage1_score=1.0,
        stage2_score=1.0,
        metadata=metadata,
    )


def _failing_result():
    return VerifyResult(
        verdicts=[
            CandidateVerdict(0, "error", detail="SqlExecutionError")
        ],
        order=[0],
        demoted=0,
        checked=1,
    )


class _StubConfig:
    def __init__(self, repair):
        self.repair = repair
        self.verify = VerifyConfig()
        self.first_stage_top = 10


class _StubComposer:
    def __init__(self, pool):
        self._pool = list(pool)

    def all_compositions(self, limit=None):
        return self._pool[:limit] if limit else list(self._pool)


class _StubGenerator:
    def __init__(self):
        self.calls = 0

    def generate(self, question, db, compositions, report=None):
        self.calls += 1
        return []


class _StubPipeline:
    def __init__(self, repair, pool=(), breaker=None):
        self.config = _StubConfig(repair)
        self.composer = _StubComposer(pool)
        self.generator = _StubGenerator()
        self._breaker_obj = breaker

    def _breaker(self, stage):
        return self._breaker_obj


class _OkGenerator:
    """Yields one candidate decoding to a fixed (working) query."""

    def __init__(self, sql):
        self._sql = sql
        self.calls = 0

    def generate(self, question, db, compositions, report=None):
        from repro.core.generation import GeneratedCandidate

        self.calls += 1
        return [
            GeneratedCandidate(
                query=parse_sql(self._sql),
                score=1.0,
                metadata=compositions[0] if compositions else None,
            )
        ]


class _RepairingPipeline(_StubPipeline):
    """A stub whose regeneration pass produces a passing candidate."""

    def __init__(self, repair, pool, sql=OK_SQL):
        super().__init__(repair, pool)
        self.generator = _OkGenerator(sql)

    def _render_surfaces(self, schema, generated, report):
        return generated, [c.sql_text or "s" for c in generated]

    def _stage1_pruned(self, question, surfaces, report):
        return [(i, 1.0) for i in range(len(surfaces))]

    def _stage2_ranked(
        self, question, generated, surfaces, pruned, schema, report
    ):
        return [
            RankedTranslation(
                query=generated[i].query,
                stage1_score=score,
                stage2_score=score,
                metadata=generated[i].metadata,
            )
            for i, score in pruned
        ]


class _ScoredGenerator:
    """Yields one candidate per ``(sql, beam score)`` pair."""

    def __init__(self, scored):
        self._scored = list(scored)

    def generate(self, question, db, compositions, report=None):
        from repro.core.generation import GeneratedCandidate

        return [
            GeneratedCandidate(
                query=parse_sql(sql),
                score=score,
                metadata=compositions[0] if compositions else None,
            )
            for sql, score in self._scored
        ]


class _UnprunedRepairingPipeline(_RepairingPipeline):
    """A repairing stub whose stage-1 ranker is unavailable."""

    def __init__(self, repair, pool, scored):
        super().__init__(repair, pool)
        self.generator = _ScoredGenerator(scored)

    def _stage1_pruned(self, question, surfaces, report):
        return None


def _pool(count):
    return [
        QueryMetadata(tags=frozenset({"project", f"tag{i}"}), rating=400)
        for i in range(count)
    ]


class TestRepairUnits:
    def test_diagnose_prefers_executor_error_class(self):
        assert diagnose(_failing_result()) == "SqlExecutionError"

    def test_perturbation_never_repeats_tried_conditions(self):
        meta = QueryMetadata(
            tags=frozenset({"project", "join", "where"}), rating=500
        )
        composer = _StubComposer(_pool(3))
        tried = {(meta.tags, meta.rating)}
        first = perturb_compositions(
            meta, "SqlExecutionError", composer, tried, limit=4
        )
        assert first
        keys = {(m.tags, m.rating) for m in first}
        assert (meta.tags, meta.rating) not in keys
        tried |= keys
        second = perturb_compositions(
            meta, "SqlExecutionError", composer, tried, limit=4
        )
        assert not (keys & {(m.tags, m.rating) for m in second})

    def test_perturbation_drops_diagnostic_tags_first(self):
        meta = QueryMetadata(
            tags=frozenset({"project", "join", "where"}), rating=500
        )
        variants = perturb_compositions(
            meta, "ExecutionBudgetError", _StubComposer([]), set(), limit=1
        )
        assert variants[0].tags == frozenset({"project", "where"})

    def test_repair_counts_attempts_and_keeps_order_on_failure(self):
        pipe = _StubPipeline(RepairConfig(max_attempts=3), pool=_pool(12))
        report = TranslationReport(question="q")
        ranked = [_ranked()]
        out = run_repair(
            pipe,
            "q",
            None,
            ranked,
            _failing_result(),
            set(),
            report,
        )
        assert out == ranked
        assert report.repair_attempts == 3
        assert not report.repair_succeeded

    def test_repair_stops_when_conditions_run_dry(self):
        pipe = _StubPipeline(RepairConfig(max_attempts=10), pool=_pool(2))
        report = TranslationReport(question="q")
        run_repair(
            pipe,
            "q",
            None,
            [_ranked()],
            _failing_result(),
            set(),
            report,
        )
        # Two pool conditions fit in one attempt's batch; the second
        # attempt finds nothing untried and stops early.
        assert report.repair_attempts == 1

    def test_repair_honours_expired_deadline(self):
        pipe = _StubPipeline(RepairConfig(max_attempts=5), pool=_pool(9))
        report = TranslationReport(question="q")
        deadline = Deadline(1.0, clock=iter([0.0] + [100.0] * 20).__next__)
        run_repair(
            pipe,
            "q",
            None,
            [_ranked()],
            _failing_result(),
            set(),
            report,
            deadline=deadline,
        )
        assert report.repair_attempts == 0
        assert pipe.generator.calls == 0

    def test_repair_breaker_open_short_circuits(self):
        breaker = CircuitBreaker(
            "repair", threshold=1, cooldown=1000.0, clock=lambda: 0.0
        )
        breaker.record_failure()
        assert breaker.state == "open"
        pipe = _StubPipeline(
            RepairConfig(max_attempts=5), pool=_pool(30), breaker=breaker
        )
        report = TranslationReport(question="q")
        ranked = [_ranked()]
        out = run_repair(
            pipe,
            "q",
            None,
            ranked,
            _failing_result(),
            set(),
            report,
        )
        assert out == ranked
        assert report.repair_attempts == 1  # refused, then stopped
        assert pipe.generator.calls == 0
        assert "BreakerOpen" in [f.error_type for f in report.faults]

    def test_repair_success_merges_repaired_first(self, verify_db):
        pipe = _RepairingPipeline(
            RepairConfig(max_attempts=2), pool=_pool(4), sql=OK_SQL
        )
        report = TranslationReport(question="q")
        failing = _ranked(ERROR_SQL)
        out = run_repair(
            pipe,
            "q",
            verify_db,
            [failing],
            _failing_result(),
            set(),
            report,
        )
        assert report.repair_succeeded
        assert report.repair_attempts == 1
        assert out[0].sql != failing.sql
        assert out[-1].sql == failing.sql  # original order follows

    def test_repair_without_stage1_orders_by_beam_score(self, verify_db):
        scored = [
            ("SELECT a FROM t", 0.2),
            ("SELECT n FROM t", 0.9),
            ("SELECT a, n FROM t", 0.5),
        ]
        pipe = _UnprunedRepairingPipeline(
            RepairConfig(max_attempts=1), pool=_pool(4), scored=scored
        )
        pipe.config.first_stage_top = 2
        report = TranslationReport(question="q")
        failing = _ranked(ERROR_SQL)
        out = run_repair(
            pipe,
            "q",
            verify_db,
            [failing],
            _failing_result(),
            set(),
            report,
        )
        assert report.repair_succeeded
        # The top-2 by beam score lead, best first; the original follows.
        assert [t.sql for t in out] == [
            _ranked("SELECT n FROM t").sql,
            _ranked("SELECT a, n FROM t").sql,
            failing.sql,
        ]
        assert [t.stage1_score for t in out[:2]] == [0.9, 0.5]

    def test_generation_order_keeps_ties_in_order_and_cuts_at_top(self):
        from repro.core.generation import GeneratedCandidate, generation_order

        generated = [
            GeneratedCandidate(
                query=parse_sql(OK_SQL), score=score, metadata=None
            )
            for score in (0.5, 0.9, 0.5, 0.1, 0.9)
        ]
        assert generation_order(generated, top=3) == [
            (1, 0.9),
            (4, 0.9),
            (0, 0.5),
        ]
        assert generation_order(generated, top=0) == []
        assert generation_order([], top=3) == []

    @settings(deadline=None, max_examples=30)
    @given(
        max_attempts=st.integers(min_value=0, max_value=4),
        pool=st.integers(min_value=0, max_value=8),
    )
    def test_repair_always_terminates_within_budget(self, max_attempts, pool):
        pipe = _StubPipeline(
            RepairConfig(max_attempts=max_attempts), pool=_pool(pool)
        )
        report = TranslationReport(question="q")
        meta = QueryMetadata(tags=frozenset({"project", "join"}), rating=400)
        out = run_repair(
            pipe,
            "q",
            None,
            [_ranked(metadata=meta)],
            _failing_result(),
            set(),
            report,
        )
        assert isinstance(out, list)
        assert report.repair_attempts <= max_attempts


# ----------------------------------------------------------------------
# Pipeline integration (trained pipeline; configs restored after).


@pytest.fixture()
def guarded_pipeline(trained_pipeline):
    saved_verify = trained_pipeline.config.verify
    saved_repair = trained_pipeline.config.repair
    yield trained_pipeline
    trained_pipeline.config.verify = saved_verify
    trained_pipeline.config.repair = saved_repair
    for stage in ("verify", "repair"):
        breaker = trained_pipeline.breakers.get(stage)
        if breaker is not None:
            breaker.reset()


def _sqls(result):
    return [t.sql for t in result.translations]


class TestPipelineIntegration:
    def test_off_is_bit_identical_to_skipping_the_stage(
        self, guarded_pipeline, tiny_benchmark, monkeypatch
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        guarded_pipeline.config.verify = VerifyConfig(top_k=0)
        guarded_pipeline.config.repair = RepairConfig(max_attempts=0)
        disabled = guarded_pipeline.translate_ranked_report(
            example.question, db
        )
        # The pre-verify pipeline, simulated by stubbing the stage out.
        monkeypatch.setattr(
            MetaSQL,
            "_verify_and_repair",
            lambda self, question, db, ranked, *a, **kw: ranked,
        )
        legacy = guarded_pipeline.translate_ranked_report(
            example.question, db
        )
        assert _sqls(disabled) == _sqls(legacy)
        assert [
            (t.stage1_score, t.stage2_score) for t in disabled.translations
        ] == [(t.stage1_score, t.stage2_score) for t in legacy.translations]
        assert disabled.report.verify_outcomes == {}
        assert disabled.report.repair_attempts == 0

    def test_verify_fault_fails_open_to_ranked_order(
        self, guarded_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        guarded_pipeline.config.verify = VerifyConfig(top_k=0)
        baseline = guarded_pipeline.translate_ranked_report(
            example.question, db
        )
        guarded_pipeline.config.verify = VerifyConfig()
        with FAULTS.inject("verify.execute", times=1):
            result = guarded_pipeline.translate_ranked_report(
                example.question, db
            )
        assert _sqls(result) == _sqls(baseline)
        fault = next(
            f for f in result.report.faults if f.stage == "verify"
        )
        assert fault.fallback == "keep"
        assert fault.site == "verify.execute"
        assert result.report.degraded
        assert result.report.verify_outcomes == {}

    def test_verify_breaker_open_short_circuits(
        self, guarded_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        breaker = guarded_pipeline.breakers.get("verify")
        for __ in range(20):
            if breaker.state == "open":
                break
            breaker.record_failure()
        assert breaker.state == "open"
        result = guarded_pipeline.translate_ranked_report(
            example.question, db
        )
        assert result.translations
        fault = next(
            f for f in result.report.faults if f.stage == "verify"
        )
        assert fault.error_type == "BreakerOpen"
        assert result.report.verify_outcomes == {}

    def test_verify_outcomes_recorded_on_report(
        self, guarded_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        result = guarded_pipeline.translate_ranked_report(
            example.question, db
        )
        outcomes = result.report.verify_outcomes
        assert outcomes, "verify stage should record outcomes by default"
        assert set(outcomes) <= {"ok", "empty", "error", "budget", "skipped"}
        checked = sum(
            count
            for outcome, count in outcomes.items()
            if outcome != "skipped"
        )
        assert checked <= guarded_pipeline.config.verify.top_k

    def test_injected_execution_errors_trigger_bounded_repair(
        self, guarded_pipeline, tiny_benchmark
    ):
        from repro.sqlkit.errors import SqlExecutionError

        example = tiny_benchmark.dev.examples[0]
        db = tiny_benchmark.dev.database(example.db_id)
        guarded_pipeline.config.repair = RepairConfig(max_attempts=2)
        # Check every ranked candidate so the re-emitted top-1 is a
        # *verified* hard failure (an unverified top-1 never repairs).
        guarded_pipeline.config.verify = VerifyConfig(top_k=10)
        with FAULTS.inject(
            "executor.execute",
            times=None,
            exc=lambda: SqlExecutionError("injected runtime failure"),
        ):
            result = guarded_pipeline.translate_ranked_report(
                example.question, db
            )
        assert result.translations
        assert result.report.verify_outcomes.get("error", 0) >= 1
        assert result.report.verify_demoted >= 1
        # Every execution fails, so repair burns its bounded budget (or
        # runs out of untried conditions) without ever succeeding.
        assert 1 <= result.report.repair_attempts <= 2
        assert not result.report.repair_succeeded
        span_names = _span_names(result.report.trace)
        assert "verify" in span_names and "repair" in span_names

    def test_verify_span_present_on_default_path(
        self, guarded_pipeline, tiny_benchmark
    ):
        example = tiny_benchmark.dev.examples[1]
        db = tiny_benchmark.dev.database(example.db_id)
        result = guarded_pipeline.translate_ranked_report(
            example.question, db
        )
        assert "verify" in _span_names(result.report.trace)


def _span_names(trace: dict) -> set:
    names = {trace.get("name")}
    for child in trace.get("children", ()):
        names |= _span_names(child)
    return names


# ----------------------------------------------------------------------
# Satellite 6: journal analysis folds verify/repair per hardness bucket.


_JOURNAL_RECORDS = [
    {
        "event": "eval", "hardness": "easy", "em": True, "ex": True,
        "ok": True, "degraded": False, "deadline_expired": False,
        "lint_rejected": 0, "lint_codes": {},
        "verify_demoted": 0, "verify_outcomes": {"ok": 3},
        "repair_attempts": 0, "repair_succeeded": False,
        "faults": [], "latency_s": 0.010,
        "stages": {"generate": 0.004, "verify": 0.002},
    },
    {
        "event": "eval", "hardness": "hard", "em": False, "ex": True,
        "ok": True, "degraded": False, "deadline_expired": False,
        "lint_rejected": 1, "lint_codes": {"SQL003": 1},
        "verify_demoted": 2, "verify_outcomes": {"empty": 1, "error": 1, "ok": 1},
        "repair_attempts": 1, "repair_succeeded": True,
        "faults": [], "latency_s": 0.020,
        "stages": {"generate": 0.008, "verify": 0.004, "repair": 0.005},
    },
    {
        "event": "eval", "hardness": "hard", "em": False, "ex": False,
        "ok": True, "degraded": True, "deadline_expired": False,
        "lint_rejected": 0, "lint_codes": {},
        "verify_demoted": 1, "verify_outcomes": {"error": 1, "ok": 2},
        "repair_attempts": 1, "repair_succeeded": False,
        "faults": [{"stage": "repair", "fallback": "keep"}],
        "latency_s": 0.030,
        "stages": {"generate": 0.010, "verify": 0.006, "repair": 0.008},
    },
    {
        "event": "translate", "ok": True, "degraded": False,
        "deadline_expired": False, "lint_rejected": 0, "lint_codes": {},
        "verify_demoted": 1, "verify_outcomes": {"empty": 1, "ok": 2},
        "repair_attempts": 0, "repair_succeeded": False,
        "faults": [], "latency_s": 0.015, "stages": {"verify": 0.003},
    },
]


class TestJournalAnalysis:
    @pytest.fixture()
    def summary(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = Journal(path, fsync=False)
        for record in _JOURNAL_RECORDS:
            journal.append(record, stamp=False)
        journal.close()
        return aggregate_journal(path)

    def test_verify_repair_totals(self, summary):
        assert summary.verify_demoted == 4
        assert summary.verify_outcomes == {
            "empty": 2, "error": 2, "ok": 8,
        }
        assert summary.repair_attempts == 2
        assert summary.repair_succeeded == 1

    def test_per_hardness_rates(self, summary):
        hard = summary.by_hardness["hard"]
        assert hard.total == 2
        assert hard.verify_demoted == 3
        assert hard.demotion_rate == 1.0
        assert hard.repair_records == 2
        assert hard.repair_success_rate == 0.5
        easy = summary.by_hardness["easy"]
        assert easy.demotion_rate == 0.0
        assert easy.repair_success_rate == 0.0

    def test_render_matches_golden_file(self, summary):
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = handle.read()
        assert summary.render() + "\n" == golden
