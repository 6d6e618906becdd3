"""Sketch extraction and sketch-model tests."""

import pytest

from repro.models.sketch import Sketch, SketchModel, extract_sketch
from repro.sqlkit.parser import parse_sql


def sketch(sql: str) -> Sketch:
    return extract_sketch(parse_sql(sql))


class TestExtraction:
    def test_plain(self):
        s = sketch("SELECT a FROM t")
        assert s.shape == "plain"
        assert s.n_select == 1
        assert s.n_predicates == 0

    def test_predicate_kinds_sorted(self):
        s = sketch("SELECT a FROM t WHERE b > 1 AND c = 'x'")
        assert s.predicate_kinds == ("cmp", "eq")

    def test_or_flag(self):
        assert sketch("SELECT a FROM t WHERE b = 1 OR c = 2").has_or

    def test_setop_shape(self):
        s = sketch("SELECT a FROM t EXCEPT SELECT a FROM t WHERE b = 1")
        assert s.shape == "setop:except"

    def test_nested_shapes(self):
        assert sketch(
            "SELECT a FROM t WHERE b IN (SELECT c FROM u)"
        ).shape == "nested:in"
        assert sketch(
            "SELECT a FROM t WHERE b NOT IN (SELECT c FROM u)"
        ).shape == "nested:not_in"
        assert sketch(
            "SELECT a FROM t WHERE b > (SELECT avg(b) FROM t)"
        ).shape == "nested:scalar"

    def test_from_subquery_shape(self):
        s = sketch("SELECT count(*) FROM (SELECT a FROM t GROUP BY a)")
        assert s.shape == "from_subquery"

    def test_group_order_limit_facets(self):
        s = sketch(
            "SELECT a, count(*) FROM t GROUP BY a "
            "ORDER BY count(*) DESC LIMIT 1"
        )
        assert s.has_group
        assert s.order == "desc"
        assert s.limit == "one"
        assert s.order_on_agg
        assert s.count_star

    def test_select_aggs(self):
        s = sketch("SELECT min(a), max(b) FROM t")
        assert s.select_aggs == ("max", "min")


class TestOperatorTags:
    def test_plain_tags(self):
        assert sketch("SELECT a FROM t").operator_tags() == {"project"}

    def test_where_join_tags(self):
        tags = sketch(
            "SELECT t.a FROM t JOIN u ON t.id = u.tid WHERE u.b = 1"
        ).operator_tags()
        assert {"project", "join", "where"} <= tags

    def test_except_tags(self):
        tags = sketch(
            "SELECT a FROM t EXCEPT SELECT a FROM t WHERE b = 1"
        ).operator_tags()
        assert "except" in tags

    def test_subquery_tag(self):
        tags = sketch(
            "SELECT a FROM t WHERE b IN (SELECT c FROM u)"
        ).operator_tags()
        assert {"subquery", "where"} <= tags

    def test_agg_tag(self):
        assert "agg" in sketch("SELECT count(*) FROM t").operator_tags()


class TestSketchModel:
    @pytest.fixture(scope="class")
    def model(self, tiny_benchmark):
        return SketchModel().fit(tiny_benchmark.train)

    def test_signatures_nonempty(self, model):
        assert len(model.signatures) > 10

    def test_scores_sorted(self, model):
        scored = model.score_sketches("how many students are there")
        values = [s for s, __ in scored]
        assert values == sorted(values, reverse=True)

    def test_count_question_prefers_count_sketch(self, model):
        # The NB posterior alone should surface a counting sketch near the
        # top; exact top-1 needs the cue blending (tested below).
        scored = model.score_sketches("How many pets are there?")
        assert any(sk.count_star for __, sk in scored[:10])

    def test_cue_blending_changes_ranking(self, model, tiny_benchmark):
        from repro.models.cues import extract_cues

        db = tiny_benchmark.train.database("pets")
        question = "How many students have a dog?"
        plain = model.score_sketches(question)[0][1]
        with_cues = model.score_sketches(
            question, cues=extract_cues(question, db)
        )[0][1]
        assert with_cues.count_star


class TestSignatureTable:
    """The sketch model's lazily built signature table follows its counts."""

    def test_second_fit_rebuilds_the_table(self, tiny_benchmark):
        from repro.data.dataset import Dataset
        from repro.models.sketch import SketchModel

        train = tiny_benchmark.train
        head = Dataset(train.name, train.examples[:20], train.databases)
        question = "How many pets are there?"
        scored_between = SketchModel().fit(head)
        first = scored_between.score_sketches(question)  # builds the table
        scored_between.fit(train)
        # The same two fits with no scoring in between never saw a table.
        unscored = SketchModel().fit(head).fit(train)
        rebuilt = scored_between.score_sketches(question)
        assert rebuilt != first
        assert rebuilt == unscored.score_sketches(question)
        assert scored_between.signatures == unscored.signatures
