"""FewShotLLM tests: retrieval, style variants."""

import pytest

from repro.core.metadata import extract_metadata
from repro.models.llm import (
    FewShotLLM,
    _rewrite_between,
    _rewrite_count_star,
    _rewrite_superlative,
    _style_variant,
)
from repro.models.registry import create_model
from repro.schema.executor import execute
from repro.sqlkit.compare import exact_match
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.printer import to_sql


@pytest.fixture(scope="module")
def llm(tiny_benchmark):
    model = create_model("gpt4")
    model.fit(tiny_benchmark.train)
    return model


class TestRetrieval:
    def test_returns_k_demonstrations(self, llm):
        demos = llm.retrieve("How many students are there?", k=5)
        assert len(demos) == 5

    def test_similar_questions_retrieved(self, llm):
        demos = llm.retrieve("How many students are there?", k=9)
        questions = " ".join(d.question.lower() for d in demos)
        assert "how many" in questions or "number" in questions

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            create_model("gpt4").retrieve("anything")


class TestStyleVariants:
    def test_between_rewrite_execution_equivalent(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE population BETWEEN 50000 AND 200000"
        )
        variant = _rewrite_between(query, world_db)
        assert not exact_match(variant, query)
        assert sorted(execute(variant, world_db)) == sorted(
            execute(query, world_db)
        )

    def test_count_star_rewrite_execution_equivalent(self, world_db):
        query = parse_sql("SELECT count(*) FROM country")
        variant = _rewrite_count_star(query, world_db)
        assert not exact_match(variant, query)
        assert execute(variant, world_db) == execute(query, world_db)

    def test_superlative_rewrite_execution_equivalent(self, world_db):
        query = parse_sql(
            "SELECT population FROM country ORDER BY population DESC LIMIT 1"
        )
        variant = _rewrite_superlative(query, world_db)
        assert not exact_match(variant, query)
        assert execute(variant, world_db) == execute(query, world_db)

    def test_no_variant_for_plain_query(self, world_db, rng):
        query = parse_sql("SELECT name FROM country")
        assert _style_variant(query, world_db, rng) is None

    def test_int_cmp_rewrite_execution_equivalent(self, world_db):
        from repro.models.llm import _can_rewrite_int_cmp, _rewrite_int_cmp

        query = parse_sql(
            "SELECT name FROM country WHERE country.population >= 103000"
        )
        assert _can_rewrite_int_cmp(query, world_db)
        variant = _rewrite_int_cmp(query, world_db)
        assert not exact_match(variant, query)
        assert sorted(execute(variant, world_db)) == sorted(
            execute(query, world_db)
        )

    def test_int_cmp_skips_float_columns(self, world_db):
        from repro.models.llm import _can_rewrite_int_cmp

        # percentage holds floats: off-by-one rewriting would be wrong.
        query = parse_sql(
            "SELECT language FROM countrylanguage "
            "WHERE countrylanguage.percentage >= 10"
        )
        assert not _can_rewrite_int_cmp(query, world_db)


class TestPreparedContext:
    """A shared ``prepare`` result decodes exactly like a fresh one."""

    @pytest.fixture(scope="class")
    def chatgpt(self, tiny_benchmark):
        return create_model("chatgpt").fit(tiny_benchmark.train)

    @pytest.mark.parametrize("index", range(6))
    def test_prepared_matches_unprepared(self, chatgpt, tiny_benchmark, index):
        dev = tiny_benchmark.dev
        example = dev.examples[index * 5]
        db = dev.database(example.db_id)
        prepared = chatgpt.prepare(example.question, db)
        gold = extract_metadata(example.sql)
        for metadata in [None] + [
            gold.with_correctness(indicator)
            for indicator in ("correct", "incorrect", "none")
        ]:
            shared = chatgpt.translate(
                example.question, db, metadata, beam_size=3, prepared=prepared
            )
            fresh = chatgpt.translate(example.question, db, metadata, beam_size=3)
            assert [(to_sql(c.query), c.score) for c in shared] == [
                (to_sql(c.query), c.score) for c in fresh
            ]


class TestTranslation:
    def test_decodes_candidates(self, llm, tiny_benchmark):
        db = tiny_benchmark.dev.database("pets")
        candidates = llm.translate(
            "How many students are there?", db, beam_size=5
        )
        assert candidates

    def test_metadata_always_honoured(self, llm, tiny_benchmark):
        """LLMs take metadata via the prompt: no fine-tuning required."""
        assert llm.metadata_trained

    def test_higher_diversity_than_seq2seq(
        self, llm, fitted_lgesql, tiny_benchmark
    ):
        from repro.models.sketch import extract_sketch

        dev = tiny_benchmark.dev
        llm_shapes = set()
        seq_shapes = set()
        for example in dev.examples[:30]:
            db = dev.database(example.db_id)
            for c in llm.translate(example.question, db, beam_size=5):
                llm_shapes.add(extract_sketch(c.query))
            for c in fitted_lgesql.translate(
                example.question, db, beam_size=5
            ):
                seq_shapes.add(extract_sketch(c.query))
        assert len(llm_shapes) >= len(seq_shapes) * 0.5
