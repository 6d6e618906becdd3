"""Value-grounding tests."""

from repro.core.values import ground_values, question_values
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.printer import to_sql


class TestGrounding:
    def test_text_placeholder_filled_from_db(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE continent = 'value'"
        )
        grounded = ground_values(
            query, "Countries in North America please", world_db
        )
        assert grounded.where.predicates[0].right.value == "North America"

    def test_number_placeholder_filled_from_question(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE population > 'value'"
        )
        grounded = ground_values(
            query, "countries with population above 50000", world_db
        )
        assert grounded.where.predicates[0].right.value == 50000

    def test_two_numbers_assigned_in_order(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE population > 'value' "
            "AND percentage < 'value'"
        )
        grounded = ground_values(
            query,
            "population above 1000 and percentage below 55",
            world_db,
        )
        values = [p.right.value for p in grounded.where.predicates]
        assert set(values) == {1000, 55}

    def test_between_placeholders(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE population "
            "BETWEEN 'value' AND 'value'"
        )
        grounded = ground_values(
            query, "population between 100 and 900", world_db
        )
        predicate = grounded.where.predicates[0]
        assert {predicate.right.value, predicate.right2.value} == {100, 900}

    def test_nested_subquery_grounded(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE code IN "
            "(SELECT countrycode FROM countrylanguage "
            "WHERE language = 'value')"
        )
        grounded = ground_values(
            query, "countries where Dutch is spoken", world_db
        )
        inner = grounded.where.predicates[0].right
        assert inner.where.predicates[0].right.value == "Dutch"

    def test_real_values_untouched(self, world_db):
        query = parse_sql("SELECT name FROM country WHERE code = 'ABW'")
        grounded = ground_values(query, "anything", world_db)
        assert to_sql(grounded) == to_sql(query)

    def test_unmatchable_placeholder_left_alone(self, world_db):
        query = parse_sql("SELECT name FROM country WHERE name = 'value'")
        grounded = ground_values(
            query, "question mentioning nothing in the db", world_db
        )
        assert grounded.where.predicates[0].right.value == "value"

    def test_like_placeholder(self, world_db):
        query = parse_sql(
            "SELECT name FROM country WHERE name LIKE 'value'"
        )
        grounded = ground_values(
            query, "names that contain Aruba", world_db
        )
        assert "%" in str(grounded.where.predicates[0].right.value)

    def test_shared_question_values_ground_each_query_afresh(self, world_db):
        # One QuestionValues serves every candidate of a question; the
        # numbers a query used do not carry over to the next one.
        question = "population above 1000 and percentage below 55 in Aruba"
        values = question_values(question)
        sqls = [
            "SELECT name FROM country WHERE population > 'value' "
            "AND percentage < 'value'",
            "SELECT name FROM country WHERE population > 'value'",
            "SELECT name FROM country WHERE name LIKE 'value'",
            "SELECT name FROM country WHERE population BETWEEN 'value' AND 'value'",
        ]
        for sql in sqls * 2:
            query = parse_sql(sql)
            assert to_sql(ground_values(query, question, world_db, values)) == (
                to_sql(ground_values(query, question, world_db))
            )
