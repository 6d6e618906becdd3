"""Candidate-generation tests (conditioned decoding + value grounding)."""

import copy
import json

import pytest

import repro.models.cues
from repro.core.generation import CandidateGenerator, GeneratorConfig
from repro.core.metadata import QueryMetadata, extract_metadata
from repro.core.resilience import TranslationReport
from repro.models.base import Candidate, TranslationModel
from repro.obs.metrics import MetricsRegistry, registry_scope
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.printer import to_sql
from tests.conftest import train_small_pipeline


@pytest.fixture(scope="module")
def meta_model(tiny_benchmark):
    from repro.models.registry import create_model

    model = create_model("lgesql")
    model.fit(tiny_benchmark.train, with_metadata=True)
    return model


@pytest.fixture()
def example(tiny_benchmark):
    return tiny_benchmark.dev.examples[0]


class TestGenerate:
    def test_one_beam_per_condition(self, meta_model, tiny_benchmark, example):
        generator = CandidateGenerator(meta_model)
        db = tiny_benchmark.dev.database(example.db_id)
        gold_meta = extract_metadata(example.sql)
        simple = QueryMetadata(tags=frozenset({"project"}), rating=100)
        candidates = generator.generate(
            example.question, db, [gold_meta, simple]
        )
        conditions = {c.metadata for c in candidates}
        assert gold_meta in conditions or simple in conditions

    def test_max_candidates_cap(self, meta_model, tiny_benchmark, example):
        generator = CandidateGenerator(
            meta_model, GeneratorConfig(max_candidates=3)
        )
        db = tiny_benchmark.dev.database(example.db_id)
        compositions = [
            QueryMetadata(tags=frozenset({"project"}), rating=100),
            QueryMetadata(tags=frozenset({"project", "where"}), rating=200),
            QueryMetadata(tags=frozenset({"project", "order", "limit"}), rating=175),
        ]
        candidates = generator.generate(example.question, db, compositions)
        assert len(candidates) <= 3

    def test_unconditioned_fallback(self, meta_model, tiny_benchmark, example):
        generator = CandidateGenerator(meta_model, GeneratorConfig())
        db = tiny_benchmark.dev.database(example.db_id)
        candidates = generator.generate(example.question, db, [])
        assert candidates
        assert all(c.metadata is None for c in candidates)

    def test_deduplication(self, meta_model, tiny_benchmark, example):
        generator = CandidateGenerator(meta_model, GeneratorConfig())
        db = tiny_benchmark.dev.database(example.db_id)
        same = QueryMetadata(tags=frozenset({"project"}), rating=100)
        candidates = generator.generate(
            example.question, db, [same, same, same]
        )
        texts = [to_sql(c.query) for c in candidates]
        assert len(texts) == len(set(texts))

    def test_grounding_toggle(self, meta_model, tiny_benchmark):
        dev = tiny_benchmark.dev
        # Find an example whose raw decode emits a placeholder.
        for example in dev.examples:
            db = dev.database(example.db_id)
            raw = CandidateGenerator(
                meta_model,
                GeneratorConfig(ground_placeholder_values=False),
            ).generate(example.question, db, [])
            if any("'value'" in to_sql(c.query) for c in raw):
                break
        else:
            pytest.skip("no placeholder decode found")
        grounded = CandidateGenerator(
            meta_model, GeneratorConfig(ground_placeholder_values=True)
        ).generate(example.question, db, [])
        raw_text = " ".join(to_sql(c.query) for c in raw)
        grounded_text = " ".join(to_sql(c.query) for c in grounded)
        assert raw_text.count("'value'") >= grounded_text.count("'value'")


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` with a pass-through that logs each call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _failing_prepare(question, db, cues=None):
    raise RuntimeError("prepare exploded")


class TestPreparedQuestion:
    """Question-level decode work runs once per ``generate`` call."""

    COMPOSITIONS = [
        QueryMetadata(tags=frozenset({"project"}), rating=100),
        QueryMetadata(tags=frozenset({"project", "where"}), rating=200),
        QueryMetadata(tags=frozenset({"project", "order", "limit"}), rating=175),
        QueryMetadata(
            tags=frozenset({"project", "where"}), rating=200, correctness="none"
        ),
    ]

    def _generate_counting(self, model, tiny_benchmark, example, monkeypatch):
        decodes = _count_calls(monkeypatch, model, "translate")
        cues = _count_calls(monkeypatch, repro.models.cues, "extract_cues")
        db = tiny_benchmark.dev.database(example.db_id)
        CandidateGenerator(model, GeneratorConfig()).generate(
            example.question, db, self.COMPOSITIONS
        )
        assert len(decodes) == len(self.COMPOSITIONS) + 1
        return cues

    def test_seq2seq_scores_sketches_once(
        self, meta_model, tiny_benchmark, example, monkeypatch
    ):
        sketches = _count_calls(
            monkeypatch, meta_model.sketch_model, "score_sketches"
        )
        cues = self._generate_counting(
            meta_model, tiny_benchmark, example, monkeypatch
        )
        assert len(cues) == 1
        assert len(sketches) == 1

    def test_llm_retrieves_once(self, tiny_benchmark, example, monkeypatch):
        from repro.models.registry import create_model

        model = create_model("chatgpt").fit(tiny_benchmark.train)
        retrievals = _count_calls(monkeypatch, model, "retrieve")
        cues = self._generate_counting(
            model, tiny_benchmark, example, monkeypatch
        )
        assert len(cues) == 1
        assert len(retrievals) == 1

    def test_prepare_failure_fails_open(
        self, meta_model, tiny_benchmark, example, monkeypatch
    ):
        monkeypatch.setattr(meta_model, "prepare", _failing_prepare)
        report = TranslationReport()
        db = tiny_benchmark.dev.database(example.db_id)
        candidates = CandidateGenerator(meta_model).generate(
            example.question, db, self.COMPOSITIONS, report=report
        )
        assert candidates == []
        assert [(f.stage, f.fallback) for f in report.faults] == [
            ("generate", "skip")
        ]

    def test_prepare_failure_not_counted_by_breaker(
        self, trained_pipeline, tiny_benchmark, example, monkeypatch
    ):
        monkeypatch.setattr(trained_pipeline.model, "prepare", _failing_prepare)
        db = tiny_benchmark.dev.database(example.db_id)
        out = trained_pipeline.translate_ranked_report(example.question, db)
        assert ("generate", "skip") in [
            (f.stage, f.fallback) for f in out.report.faults
        ]
        breaker = trained_pipeline.breakers["generate"]
        assert breaker.snapshot()["consecutive_failures"] == 0


class TestCuesOncePerRequest:
    """Classification extracts the question's cues; generation reuses them."""

    def test_translation_extracts_cues_once(
        self, trained_pipeline, tiny_benchmark, example, monkeypatch
    ):
        import repro.core.classifier

        cues = _count_calls(monkeypatch, repro.models.cues, "extract_cues")
        # The classifier's own binding, which it uses when given no cues.
        classifier_cues = _count_calls(
            monkeypatch, repro.core.classifier, "extract_cues"
        )
        db = tiny_benchmark.dev.database(example.db_id)
        out = trained_pipeline.translate_ranked_report(example.question, db)
        assert out.translations and not out.report.faults
        assert len(cues) + len(classifier_cues) == 1

    def test_candidates_extract_cues_once(
        self, trained_pipeline, tiny_benchmark, example, monkeypatch
    ):
        # The path the ranker-supervision set-up takes per training
        # question: classify, compose, generate.
        import repro.core.classifier

        cues = _count_calls(monkeypatch, repro.models.cues, "extract_cues")
        classifier_cues = _count_calls(
            monkeypatch, repro.core.classifier, "extract_cues"
        )
        db = tiny_benchmark.dev.database(example.db_id)
        assert trained_pipeline.candidates(example.question, db)
        assert len(cues) + len(classifier_cues) == 1

    def test_reused_cues_translate_alike(
        self, trained_pipeline, tiny_benchmark, example
    ):
        db = tiny_benchmark.dev.database(example.db_id)
        compositions, __ = trained_pipeline._compositions_guarded(
            example.question, db, TranslationReport()
        )
        generator = trained_pipeline.generator
        reused = generator.generate(
            example.question,
            db,
            compositions,
            cues=repro.models.cues.extract_cues(example.question, db),
        )
        fresh = generator.generate(example.question, db, compositions)
        assert [(c.sql_text, c.score) for c in reused] == [
            (c.sql_text, c.score) for c in fresh
        ]

    def test_failed_extraction_fails_open_per_stage(
        self, trained_pipeline, tiny_benchmark, example, monkeypatch
    ):
        original = repro.models.cues.extract_cues
        calls = []

        def fails_first(question, db):
            calls.append(question)
            if len(calls) == 1:
                raise RuntimeError("cue extraction exploded")
            return original(question, db)

        monkeypatch.setattr(repro.models.cues, "extract_cues", fails_first)
        db = tiny_benchmark.dev.database(example.db_id)
        out = trained_pipeline.translate_ranked_report(example.question, db)
        # Classification falls back to every observed composition; the
        # generator then extracts the cues itself and still decodes.
        assert [(f.stage, f.fallback) for f in out.report.faults] == [
            ("classify", "all-compositions")
        ]
        assert len(calls) == 2
        assert out.translations
        # A later request classifies again (and closes the breaker's count).
        out = trained_pipeline.translate_ranked_report(example.question, db)
        assert not out.report.faults
        assert trained_pipeline.breakers["classify"].snapshot()[
            "consecutive_failures"
        ] == 0


class _FixedModel(TranslationModel):
    """Stub model decoding a fixed SQL list regardless of conditioning."""

    name = "fixed"

    def __init__(self, sqls):
        self.sqls = sqls

    def fit(self, train):
        return self

    def translate(self, question, db, metadata=None, beam_size=5, prepared=None):
        return [
            Candidate(query=parse_sql(sql), score=-float(i))
            for i, sql in enumerate(self.sqls[:beam_size])
        ]


class TestLintGate:
    """The semantic-lint gate between dedup and collection."""

    VALID = "SELECT name FROM country"
    INVALID = "SELECT flavour FROM country"  # SQL002 unknown column
    SUSPECT = "SELECT name FROM country LIMIT 3"  # SQL101 warning

    def _generate(self, db, sqls, config=None, report=None):
        generator = CandidateGenerator(
            _FixedModel(sqls),
            config or GeneratorConfig(ground_placeholder_values=False),
        )
        return generator.generate("q", db, [], report=report)

    def test_invalid_candidate_pruned(self, world_db):
        report = TranslationReport()
        candidates = self._generate(
            world_db, [self.INVALID, self.VALID], report=report
        )
        assert [to_sql(c.query) for c in candidates] == [self.VALID]
        assert report.lint_rejected == 1
        assert report.lint_codes == {"SQL002": 1}
        assert not report.degraded  # pruning is not a fault
        assert report.faults == []

    def test_warnings_annotate_surviving_candidate(self, world_db):
        candidates = self._generate(world_db, [self.SUSPECT])
        assert len(candidates) == 1

    def test_lint_disabled_is_passthrough(self, world_db):
        config = GeneratorConfig(
            ground_placeholder_values=False, lint_candidates=False
        )
        report = TranslationReport()
        candidates = self._generate(
            world_db, [self.INVALID, self.VALID], config=config, report=report
        )
        assert len(candidates) == 2
        assert report.lint_rejected == 0

    def test_rejections_counted_in_metrics(self, world_db, tiny_benchmark):
        registry = MetricsRegistry()
        with registry_scope(registry):
            pipeline = train_small_pipeline(tiny_benchmark)
        # Set-up rejects candidates too, but the metric counts served
        # requests only, like its sibling candidates_generated_total.
        assert pipeline.training_report.lint_rejected > 0
        assert registry.get("metasql_candidates_lint_rejected_total") is None

        view = copy.copy(pipeline)
        view.generator = CandidateGenerator(
            _FixedModel([self.INVALID, self.VALID]),
            GeneratorConfig(ground_placeholder_values=False),
        )
        with registry_scope(registry):
            out = view.translate_ranked_report("q", world_db)
        assert out.report.lint_codes == {"SQL002": 1}
        counter = registry.get("metasql_candidates_lint_rejected_total")
        assert counter.labels(code="SQL002").value == 1.0

    def test_analyzer_crash_fails_open(self, world_db, monkeypatch):
        from repro.sqlkit.analyze import SemanticAnalyzer

        def boom(self, query):
            raise RuntimeError("analyzer exploded")

        monkeypatch.setattr(SemanticAnalyzer, "analyze", boom)
        report = TranslationReport()
        candidates = self._generate(
            world_db, [self.INVALID, self.VALID], report=report
        )
        # Gate fails open: both candidates survive, the crash is recorded.
        assert len(candidates) == 2
        assert report.lint_rejected == 0
        stages = [fault.stage for fault in report.faults]
        assert stages == ["lint", "lint"]
        assert all(f.fallback == "keep" for f in report.faults)

    def test_report_round_trip_preserves_lint_counts(self, world_db):
        report = TranslationReport()
        self._generate(world_db, [self.INVALID, self.VALID], report=report)
        fields = json.loads(json.dumps(report.journal_fields()))
        assert fields["lint_rejected"] == 1
        assert fields["lint_codes"] == {"SQL002": 1}
