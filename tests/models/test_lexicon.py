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
        db = tiny_benchmark.train.database("pets")
        tokens = content_tokens("What is the major of every student?")
        assert lexicon.score_table(tokens, db, "student") > lexicon.score_table(
            tokens, db, "pets"
        )

    def test_synonym_overlap_scores(self, lexicon, tiny_benchmark):
        db = tiny_benchmark.train.database("battle_death")
        tokens = content_tokens("List all vessels")  # synonym of ship
        assert lexicon.score_table(tokens, db, "ship") > (
            lexicon.score_table(tokens, db, "battle")
        )

    def test_column_scores_favor_mentioned(self, lexicon, tiny_benchmark):
        db = tiny_benchmark.train.database("pets")
        tokens = content_tokens("Find the age of students")
        age = lexicon.score_column(tokens, db, "student", "age")
        major = lexicon.score_column(tokens, db, "student", "major")
        assert age > major

    def test_unseen_schema_uses_name_overlap(self, lexicon, world_db):
        """Zero-shot: identifier matching works without any training."""
        tokens = content_tokens("What is the population of each country?")
        assert lexicon.score_table(tokens, world_db, "country") > 0
        assert lexicon.score_column(
            tokens, world_db, "country", "population"
        ) > lexicon.score_column(tokens, world_db, "countrylanguage", "percentage")
