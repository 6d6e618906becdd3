"""Metric tests: EM/EX/Precision@K/MRR."""

import pytest

from repro.eval.metrics import (
    execution_match,
    mrr,
    precision_at_k,
)
from repro.sqlkit.parser import parse_sql


class TestExecutionMatch:
    def test_identical_queries(self, world_db):
        query = parse_sql("SELECT name FROM country")
        assert execution_match(query, query, world_db)

    def test_equivalent_syntax(self, world_db):
        a = parse_sql(
            "SELECT population FROM country ORDER BY population DESC LIMIT 1"
        )
        b = parse_sql("SELECT max(population) FROM country")
        assert execution_match(a, b, world_db)

    def test_different_results(self, world_db):
        a = parse_sql("SELECT name FROM country")
        b = parse_sql("SELECT name FROM country WHERE continent = 'Asia'")
        assert not execution_match(a, b, world_db)

    def test_order_sensitive_when_gold_ordered(self, world_db):
        ordered = parse_sql("SELECT name FROM country ORDER BY population")
        reverse = parse_sql(
            "SELECT name FROM country ORDER BY population DESC"
        )
        assert not execution_match(reverse, ordered, world_db)

    def test_order_insensitive_otherwise(self, world_db):
        a = parse_sql("SELECT name FROM country ORDER BY name")
        b = parse_sql("SELECT name FROM country")
        assert execution_match(a, b, world_db)

    def test_execution_error_is_miss(self, world_db):
        bad = parse_sql("SELECT nonexistent FROM country")
        good = parse_sql("SELECT name FROM country")
        assert not execution_match(bad, good, world_db)


class TestRankingMetrics:
    HITS = [
        [True, False, False],
        [False, True, False],
        [False, False, False],
        [False, False, True],
    ]

    def test_precision_at_1(self):
        assert precision_at_k(self.HITS, 1) == 0.25

    def test_precision_at_3(self):
        assert precision_at_k(self.HITS, 3) == 0.75

    def test_precision_monotone_in_k(self):
        assert precision_at_k(self.HITS, 1) <= precision_at_k(self.HITS, 3)

    def test_mrr_value(self):
        # ranks: 1, 2, none, 3 -> (1 + 0.5 + 0 + 1/3) / 4
        assert mrr(self.HITS) == pytest.approx((1 + 0.5 + 1 / 3) / 4)

    def test_mrr_cutoff(self):
        hits = [[False] * 5 + [True]]
        assert mrr(hits, cutoff=5) == 0.0

    def test_empty_lists(self):
        assert precision_at_k([], 1) == 0.0
        assert mrr([]) == 0.0
