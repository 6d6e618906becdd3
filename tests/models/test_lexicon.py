"""Lexicon alignment-model tests."""

import pytest

from repro.models.lexicon import Lexicon, content_tokens


class TestContentTokens:
    def test_stopwords_removed(self):
        assert content_tokens("What are the names of all singers") == [
            "names", "singers",
        ]

    def test_keeps_values(self):
        assert "resolute" in content_tokens("ships named Resolute")


class TestLexicon:
    @pytest.fixture(scope="class")
    def lexicon(self, tiny_benchmark):
        return Lexicon().fit(tiny_benchmark.train)

    def test_learned_table_association(self, lexicon, tiny_benchmark):
        schema = tiny_benchmark.train.schema("pets")
        student = schema.table("student")
        pets = schema.table("pets")
        question = "What is the major of every student?"
        assert lexicon.score_table(question, "pets", student) > lexicon.score_table(
            question, "pets", pets
        )

    def test_synonym_overlap_scores(self, lexicon, tiny_benchmark):
        schema = tiny_benchmark.train.schema("battle_death")
        ship = schema.table("ship")
        question = "List all vessels"  # synonym of ship
        battle = schema.table("battle")
        assert lexicon.score_table(question, "battle_death", ship) > (
            lexicon.score_table(question, "battle_death", battle)
        )

    def test_column_scores_favor_mentioned(self, lexicon, tiny_benchmark):
        schema = tiny_benchmark.train.schema("pets")
        student = schema.table("student")
        question = "Find the age of students"
        age = lexicon.score_column(question, "pets", student, "age")
        major = lexicon.score_column(question, "pets", student, "major")
        assert age > major

    def test_unseen_schema_uses_name_overlap(self, lexicon, world_db):
        """Zero-shot: identifier matching works without any training."""
        country = world_db.schema.table("country")
        cl = world_db.schema.table("countrylanguage")
        question = "What is the population of each country?"
        assert lexicon.score_table(question, "world", country) > 0
        assert lexicon.score_column(
            question, "world", country, "population"
        ) > lexicon.score_column(question, "world", cl, "percentage")
