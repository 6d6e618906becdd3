"""GrammarSeq2Seq behaviour tests."""

import numpy as np
import pytest

from repro.core.metadata import QueryMetadata, extract_metadata
from repro.models.registry import create_model
from repro.models.seq2seq import (
    GrammarSeq2Seq,
    ModelProfile,
    _Context,
    estimate_rating,
)
from repro.models.sketch import extract_sketch
from repro.sqlkit.compare import exact_match
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.printer import to_sql


class TestTraining:
    def test_translate_before_fit_raises(self, tiny_benchmark):
        model = create_model("lgesql")
        db = tiny_benchmark.dev.database("pets")
        with pytest.raises(RuntimeError):
            model.translate("how many pets", db)

    def test_fit_returns_self(self, tiny_benchmark):
        model = create_model("bridge")
        assert model.fit(tiny_benchmark.train) is model

    def test_metadata_flag(self, tiny_benchmark):
        model = create_model("bridge")
        model.fit(tiny_benchmark.train, with_metadata=True)
        assert model.metadata_trained


class TestDecoding:
    def test_beam_returns_candidates(self, fitted_lgesql, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        candidates = fitted_lgesql.translate(
            "How many students are there?", db, beam_size=5
        )
        assert 1 <= len(candidates) <= 5
        # Scores are sorted best-first.
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_candidates_unique(self, fitted_lgesql, tiny_benchmark):
        db = tiny_benchmark.dev.database("cars")
        candidates = fitted_lgesql.translate(
            "Show the weight of cars with more than 100 horsepower",
            db,
            beam_size=5,
        )
        texts = [to_sql(c.query) for c in candidates]
        assert len(texts) == len(set(texts))

    def test_deterministic(self, fitted_lgesql, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        a = fitted_lgesql.translate("List all student last names", db)
        b = fitted_lgesql.translate("List all student last names", db)
        assert [to_sql(c.query) for c in a] == [to_sql(c.query) for c in b]

    def test_easy_question_translates_correctly(
        self, fitted_lgesql, tiny_benchmark
    ):
        db = tiny_benchmark.dev.database("pets")
        candidates = fitted_lgesql.translate(
            "How many students are there?", db, beam_size=3
        )
        gold = parse_sql("SELECT count(*) FROM student")
        assert any(exact_match(c.query, gold) for c in candidates)

    def test_value_placeholders_for_lgesql(
        self, fitted_lgesql, tiny_benchmark
    ):
        """LGESQL does not predict values: literals become 'value'."""
        db = tiny_benchmark.dev.database("pets")
        candidates = fitted_lgesql.translate(
            "Find the last names of students whose major is Biology",
            db,
            beam_size=3,
        )
        joined = " ".join(to_sql(c.query) for c in candidates)
        assert "'Biology'" not in joined

    def test_bridge_predicts_values(self, tiny_benchmark):
        model = create_model("bridge").fit(tiny_benchmark.train)
        db = tiny_benchmark.dev.database("pets")
        candidates = model.translate(
            "Find the last names of students whose major is Biology",
            db,
            beam_size=3,
        )
        joined = " ".join(to_sql(c.query) for c in candidates)
        assert "Biology" in joined


@pytest.fixture(scope="module")
def meta_model(tiny_benchmark):
    model = create_model("lgesql")
    model.fit(tiny_benchmark.train, with_metadata=True)
    return model


class TestPreparedContext:
    """A shared ``prepare`` result decodes exactly like a fresh one."""

    @pytest.mark.parametrize("index", range(6))
    def test_prepared_matches_unprepared(
        self, meta_model, tiny_benchmark, index
    ):
        dev = tiny_benchmark.dev
        example = dev.examples[index * 5]
        db = dev.database(example.db_id)
        prepared = meta_model.prepare(example.question, db)
        gold = extract_metadata(example.sql)
        for metadata in [None] + [
            gold.with_correctness(indicator)
            for indicator in ("correct", "incorrect", "none")
        ]:
            shared = meta_model.translate(
                example.question, db, metadata, beam_size=3, prepared=prepared
            )
            fresh = meta_model.translate(
                example.question, db, metadata, beam_size=3
            )
            assert [(to_sql(c.query), c.score) for c in shared] == [
                (to_sql(c.query), c.score) for c in fresh
            ]

    def test_context_of_another_question_rejected(
        self, meta_model, tiny_benchmark
    ):
        db = tiny_benchmark.dev.database("pets")
        prepared = meta_model.prepare("How many pets are there?", db)
        with pytest.raises(ValueError):
            meta_model.translate("List all students", db, prepared=prepared)


class TestNoiseStream:
    """``_Context._skip`` advances the 64-double block like ``_draw``."""

    @pytest.fixture
    def contexts(self, meta_model, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        prepared = meta_model.prepare("How many pets are there?", db)

        def make():
            return _Context(prepared, rng=np.random.default_rng(7), noise=1.3)

        return make

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_skip_then_draw_equals_draws(self, contexts, n):
        skipped, drawn = contexts(), contexts()
        skipped._skip(n)
        for __ in range(n):
            drawn._draw()
        # The next draws, across the following block boundary too.
        for __ in range(70):
            assert skipped._gumbel(0.6).hex() == drawn._gumbel(0.6).hex()
            assert skipped._random().hex() == drawn._random().hex()

    def test_skip_after_partial_block(self, contexts):
        skipped, drawn = contexts(), contexts()
        for context in (skipped, drawn):
            for __ in range(10):
                context._draw()
        skipped._skip(54)
        for __ in range(54):
            drawn._draw()
        assert skipped._random().hex() == drawn._random().hex()


class TestSketchesTagged:
    """Grouping by tags once returns what the per-decode filter did."""

    def test_matches_filter(self, meta_model, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        prepared = meta_model.prepare("How many pets older than 3 are there?", db)
        soft = frozenset({"agg", "limit", "having"})
        tag_sets = {sk.operator_tags() for __, sk in prepared.sketches}
        tag_sets.add(frozenset({"project", "intersect"}))
        for tags in tag_sets:
            assert list(prepared.sketches_tagged(tags)) == [
                item for item in prepared.sketches
                if item[1].operator_tags() == tags
            ]
            assert list(prepared.sketches_tagged(tags, ignore=soft)) == [
                item for item in prepared.sketches
                if item[1].operator_tags() - soft == tags - soft
            ]


class TestMetadataConditioning:
    def test_tags_steer_structure(self, meta_model, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        question = "Find the last names of students"
        order_meta = QueryMetadata(
            tags=frozenset({"project", "order", "limit"}), rating=175
        )
        candidates = meta_model.translate(
            question, db, metadata=order_meta, beam_size=3
        )
        assert candidates
        sketches = [extract_sketch(c.query) for c in candidates]
        assert any(s.order != "none" for s in sketches)

    def test_conditioning_ignored_without_metadata_training(
        self, fitted_lgesql, tiny_benchmark
    ):
        db = tiny_benchmark.dev.database("pets")
        question = "Find the last names of students"
        plain = fitted_lgesql.translate(question, db, beam_size=3)
        order_meta = QueryMetadata(
            tags=frozenset({"project", "order", "limit"}), rating=175
        )
        conditioned = fitted_lgesql.translate(
            question, db, metadata=order_meta, beam_size=3
        )
        assert [to_sql(c.query) for c in plain] == [
            to_sql(c.query) for c in conditioned
        ]

    def test_incorrect_indicator_degrades(self, meta_model, tiny_benchmark):
        dev = tiny_benchmark.dev
        correct_hits = 0
        incorrect_hits = 0
        for example in dev.examples[:40]:
            db = dev.database(example.db_id)
            gold_meta = extract_metadata(example.sql)
            good = meta_model.translate(
                example.question, db, metadata=gold_meta, beam_size=1
            )
            bad = meta_model.translate(
                example.question,
                db,
                metadata=gold_meta.with_correctness("incorrect"),
                beam_size=1,
            )
            if good and exact_match(good[0].query, example.sql):
                correct_hits += 1
            if bad and exact_match(bad[0].query, example.sql):
                incorrect_hits += 1
        assert correct_hits > incorrect_hits


class TestRatingEstimate:
    def test_monotone_in_structure(self):
        plain = extract_sketch(parse_sql("SELECT a FROM t"))
        heavy = extract_sketch(
            parse_sql(
                "SELECT a FROM t JOIN u ON t.id = u.tid "
                "WHERE b = 1 GROUP BY a ORDER BY a LIMIT 1"
            )
        )
        assert estimate_rating(heavy) > estimate_rating(plain)

    def test_close_to_true_rating(self, tiny_benchmark):
        from repro.sqlkit.hardness import hardness_rating

        errors = []
        for example in tiny_benchmark.dev.examples[:60]:
            estimate = estimate_rating(extract_sketch(example.sql))
            errors.append(abs(estimate - hardness_rating(example.sql)))
        assert sum(errors) / len(errors) < 120
