"""NL question renderer tests."""

import numpy as np
import pytest

from repro.data.domains import SPIDER_DOMAINS, build_domain
from repro.data.generator import QuerySampler
from repro.data.nl import NoiseConfig, QuestionRenderer
from repro.sqlkit.parser import parse_sql


@pytest.fixture(scope="module")
def pets_db():
    return build_domain(SPIDER_DOMAINS["pets"], seed=3)


def render(sql: str, db, seed: int = 0, noise: NoiseConfig | None = None):
    return QuestionRenderer(
        db.schema, np.random.default_rng(seed),
        noise or NoiseConfig(synonym_prob=0.0, drop_table_prob=0.0),
    ).render(parse_sql(sql))


class TestRendering:
    def test_simple_projection_mentions_column_and_table(self, pets_db):
        text = render("SELECT major FROM student", pets_db)
        assert "major" in text.lower()
        assert "student" in text.lower()

    def test_count_question(self, pets_db):
        text = render("SELECT count(*) FROM pets", pets_db)
        assert any(
            cue in text.lower() for cue in ("how many", "number of", "count")
        )

    def test_where_value_mentioned(self, pets_db):
        text = render(
            "SELECT lname FROM student WHERE major = 'Biology'", pets_db
        )
        assert "Biology" in text

    def test_comparison_direction_recoverable(self, pets_db):
        greater = render(
            "SELECT lname FROM student WHERE age > 20", pets_db, seed=1
        ).lower()
        less = render(
            "SELECT lname FROM student WHERE age < 20", pets_db, seed=1
        ).lower()
        assert greater != less

    def test_lte_distinct_from_lt(self, pets_db):
        lte = render(
            "SELECT lname FROM student WHERE age <= 20", pets_db, seed=2
        ).lower()
        assert "at most" in lte or "no more than" in lte

    def test_group_by_phrase(self, pets_db):
        text = render(
            "SELECT major, count(*) FROM student GROUP BY major", pets_db
        ).lower()
        assert any(cue in text for cue in ("for each", "per ", "grouped by"))

    def test_superlative(self, pets_db):
        text = render(
            "SELECT lname FROM student ORDER BY age DESC LIMIT 1", pets_db
        ).lower()
        assert "highest" in text or "has the" in text

    def test_except_phrase(self, pets_db):
        text = render(
            "SELECT major FROM student EXCEPT "
            "SELECT major FROM student WHERE age > 20",
            pets_db,
        ).lower()
        assert any(
            cue in text for cue in ("but not", "excluding", "not the ones")
        )

    def test_between_mentions_both_bounds(self, pets_db):
        text = render(
            "SELECT lname FROM student WHERE age BETWEEN 18 AND 24", pets_db
        )
        assert "18" in text and "24" in text

    def test_deterministic_per_seed(self, pets_db):
        a = render("SELECT major FROM student", pets_db, seed=7)
        b = render("SELECT major FROM student", pets_db, seed=7)
        assert a == b

    def test_seeds_vary_phrasing(self, pets_db):
        variants = {
            render("SELECT major FROM student", pets_db, seed=s)
            for s in range(12)
        }
        assert len(variants) > 1


class TestNoise:
    def test_synonyms_applied_with_high_probability(self, pets_db):
        noise = NoiseConfig(synonym_prob=1.0, drop_table_prob=0.0)
        texts = [
            render(
                "SELECT lname FROM student WHERE major = 'Biology'",
                pets_db,
                seed=s,
                noise=noise,
            ).lower()
            for s in range(10)
        ]
        assert any("field of study" in t for t in texts)

    def test_renderer_covers_all_sampled_queries(self, pets_db):
        sampler = QuerySampler(pets_db, np.random.default_rng(11))
        renderer = QuestionRenderer(
            pets_db.schema, np.random.default_rng(12)
        )
        for __ in range(60):
            question = renderer.render(sampler.sample())
            assert len(question) > 10
