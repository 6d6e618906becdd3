"""Surface-cue extraction tests."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models.cues import (
    CueEvidence,
    cue_bonus,
    extract_cues,
    find_mentioned_values,
)
from repro.models.sketch import Sketch, SketchColumns, extract_sketch
from repro.sqlkit.parser import parse_sql


class TestValueGrounding:
    def test_finds_db_value(self, world_db):
        hits = find_mentioned_values("countries that speak Dutch", world_db)
        assert any(v == "Dutch" for __, __, v, __ in hits)

    def test_multiword_value(self, world_db):
        hits = find_mentioned_values(
            "countries in North America", world_db
        )
        assert any(v == "North America" for __, __, v, __ in hits)

    def test_absent_value(self, world_db):
        assert find_mentioned_values("quantum flux", world_db) == []


class TestCueExtraction:
    def test_eq_predicate_counted(self, world_db):
        cues = extract_cues("countries whose name is Aruba", world_db)
        assert cues.kind_counts["eq"] == 1

    def test_negation_detected(self, world_db):
        cues = extract_cues(
            "countries that do not have the name Aruba", world_db
        )
        assert cues.kind_counts["neq"] == 1

    def test_cmp_mentions_counted(self, world_db):
        cues = extract_cues(
            "countries with population above 5000 and percentage below 3",
            world_db,
        )
        assert cues.kind_counts["cmp"] == 2

    def test_except_cue(self, world_db):
        cues = extract_cues(
            "Show codes but not those whose language is English", world_db
        )
        assert cues.setop == "except"

    def test_nested_scalar_cue(self, world_db):
        cues = extract_cues(
            "countries with population above the average population", world_db
        )
        assert cues.nested == "scalar"

    def test_group_cue(self, world_db):
        cues = extract_cues(
            "count of countries for each continent", world_db
        )
        assert cues.group

    def test_having_cue(self, world_db):
        cues = extract_cues(
            "continents with more than 2 records", world_db
        )
        assert cues.having

    def test_superlative_requires_with_has(self, world_db):
        order = extract_cues(
            "the country with the highest population", world_db
        )
        agg = extract_cues("the highest population of countries", world_db)
        assert order.superlative == "high"
        assert agg.superlative == "none"
        assert agg.agg_counts["max"] == 1

    def test_count_question(self, world_db):
        assert extract_cues("How many countries are there", world_db).count_question

    def test_n_select_hint(self, world_db):
        cues = extract_cues(
            "Show the name and population of countries", world_db
        )
        assert cues.n_select_hint == 2

    def test_table_plural_hint(self, world_db):
        cues = extract_cues(
            "names of countrys with citys", world_db
        )
        assert cues.table_hints >= 1


class TestCueBonus:
    def test_matching_sketch_scores_higher(self, world_db):
        question = "countries whose name is Aruba"
        cues = extract_cues(question, world_db)
        good = extract_sketch(
            parse_sql("SELECT code FROM country WHERE name = 'Aruba'")
        )
        bad = extract_sketch(
            parse_sql("SELECT code, name FROM country GROUP BY code")
        )
        good_bonus, bad_bonus = cue_bonus(SketchColumns([good, bad]), cues)
        assert good_bonus > bad_bonus

    def test_setop_mismatch_penalised(self, world_db):
        cues = extract_cues(
            "codes excluding those whose language is English", world_db
        )
        setop = extract_sketch(
            parse_sql(
                "SELECT code FROM country EXCEPT "
                "SELECT code FROM country WHERE name = 'x'"
            )
        )
        plain = extract_sketch(parse_sql("SELECT code FROM country"))
        setop_bonus, plain_bonus = cue_bonus(SketchColumns([setop, plain]), cues)
        assert setop_bonus > plain_bonus


#: Predicate kinds and aggregate functions, as sketches and cues name them.
_KEYS = ("eq", "neq", "cmp", "like", "between", "avg", "sum", "min", "max")


class TestMultisetDistance:
    """The count-matrix difference ``cue_bonus`` uses matches Counter math."""

    @staticmethod
    def distance(items, counts):
        columns = SketchColumns([Sketch(predicate_kinds=items)])
        return int(columns.predicate_kinds.distance(counts)[0])

    @given(
        items=st.lists(st.sampled_from(_KEYS), max_size=6).map(tuple),
        counts=st.dictionaries(
            st.sampled_from(_KEYS), st.integers(-3, 5), max_size=6
        ).map(Counter),
    )
    def test_matches_counter_arithmetic(self, items, counts):
        own = Counter(items)
        expected = sum((own - counts).values()) + sum((counts - own).values())
        assert self.distance(items, counts) == expected

    def test_examples(self):
        assert self.distance((), Counter()) == 0
        assert self.distance(("eq", "eq"), Counter(eq=2)) == 0
        assert self.distance(("eq", "cmp"), Counter(eq=3)) == 3
