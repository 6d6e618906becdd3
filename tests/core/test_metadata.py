"""Query-metadata tests (Section III-A)."""

from repro.core.metadata import (
    CORRECT,
    INCORRECT,
    QueryMetadata,
    extract_metadata,
)
from repro.sqlkit.parser import parse_sql


class TestExtraction:
    def test_paper_fig1_example(self):
        query = parse_sql(
            "SELECT countrycode FROM cl EXCEPT "
            "SELECT countrycode FROM cl WHERE language = 'English'"
        )
        metadata = extract_metadata(query)
        assert "project" in metadata.tags
        assert "except" in metadata.tags
        assert metadata.correctness == CORRECT
        assert metadata.rating >= 400

    def test_where_tags(self):
        metadata = extract_metadata(
            parse_sql("SELECT a FROM t WHERE b = 'x'")
        )
        assert metadata.tags == frozenset({"project", "where"})
        assert metadata.rating == 200

    def test_group_join_tags(self):
        metadata = extract_metadata(
            parse_sql(
                "SELECT u.a, count(*) FROM t JOIN u ON t.id = u.tid "
                "GROUP BY u.a"
            )
        )
        assert {"group", "join", "agg"} <= metadata.tags

    def test_correctness_override(self):
        query = parse_sql("SELECT a FROM t")
        metadata = extract_metadata(query, correctness=INCORRECT)
        assert metadata.correctness == INCORRECT


class TestFlattening:
    def test_flatten_format(self):
        metadata = QueryMetadata(
            tags=frozenset({"project", "except"}), rating=400
        )
        flat = metadata.flatten()
        assert flat == "correct | rating : 400 | tags : except, project"

    def test_with_correctness_immutably(self):
        metadata = QueryMetadata(tags=frozenset({"project"}), rating=100)
        flipped = metadata.with_correctness(INCORRECT)
        assert metadata.correctness == CORRECT
        assert flipped.correctness == INCORRECT

    def test_with_rating(self):
        metadata = QueryMetadata(tags=frozenset({"project"}), rating=100)
        assert metadata.with_rating(250).rating == 250

    def test_hashable(self):
        a = QueryMetadata(tags=frozenset({"project"}), rating=100)
        b = QueryMetadata(tags=frozenset({"project"}), rating=100)
        assert len({a, b}) == 1
