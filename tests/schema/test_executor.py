"""SQL executor tests over the world fixture, plus execution properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.domains import SPIDER_DOMAINS, build_domain
from repro.data.generator import QuerySampler
from repro.eval.metrics import execution_match
from repro.schema.executor import execute
from repro.sqlkit.ast import SelectQuery, SetQuery
from repro.sqlkit.errors import SqlError, SqlExecutionError
from repro.sqlkit.parser import parse_sql


def run(sql: str, db):
    return execute(parse_sql(sql), db)


class TestProjection:
    def test_simple(self, world_db):
        rows = run("SELECT name FROM country WHERE code = 'ABW'", world_db)
        assert rows == [("Aruba",)]

    def test_multiple_columns(self, world_db):
        rows = run(
            "SELECT name, population FROM country WHERE code = 'AIA'",
            world_db,
        )
        assert rows == [("Anguilla", 8000)]

    def test_star(self, world_db):
        rows = run("SELECT * FROM country WHERE code = 'ABW'", world_db)
        assert rows[0] == ("ABW", "Aruba", "North America", 103000)

    def test_distinct(self, world_db):
        rows = run("SELECT DISTINCT continent FROM country", world_db)
        assert len(rows) == 3

    def test_case_insensitive_string_compare(self, world_db):
        rows = run("SELECT name FROM country WHERE code = 'abw'", world_db)
        assert rows == [("Aruba",)]


class TestAggregates:
    def test_count_star(self, world_db):
        assert run("SELECT count(*) FROM country", world_db) == [(5,)]

    def test_avg(self, world_db):
        rows = run(
            "SELECT avg(percentage) FROM countrylanguage "
            "WHERE countrycode = 'ABW'",
            world_db,
        )
        assert rows[0][0] == pytest.approx(7.4)

    def test_min_max(self, world_db):
        rows = run(
            "SELECT min(population), max(population) FROM country", world_db
        )
        assert rows == [(8000, 22720000)]

    def test_sum(self, world_db):
        rows = run(
            "SELECT sum(population) FROM country WHERE continent = 'Europe'",
            world_db,
        )
        assert rows == [(7160400,)]

    def test_count_distinct(self, world_db):
        rows = run(
            "SELECT count(DISTINCT continent) FROM country", world_db
        )
        assert rows == [(3,)]

    def test_aggregate_empty_set(self, world_db):
        rows = run(
            "SELECT max(population) FROM country WHERE code = 'XXX'", world_db
        )
        assert rows == [(None,)]

    def test_count_empty_set_is_zero(self, world_db):
        rows = run(
            "SELECT count(*) FROM country WHERE code = 'XXX'", world_db
        )
        assert rows == [(0,)]

    @pytest.mark.parametrize("func", ["sum", "avg"])
    def test_sum_avg_over_text_raise_typed_error(self, world_db, func):
        # A bare TypeError would escape EX scoring and verify's per-candidate
        # handler; a text aggregate is an execution error like any other.
        with pytest.raises(SqlExecutionError):
            run(f"SELECT {func}(name) FROM country", world_db)
        assert not execution_match(
            parse_sql(f"SELECT {func}(name) FROM country"),
            parse_sql("SELECT name FROM country"),
            world_db,
        )


class TestJoins:
    def test_explicit_join(self, world_db):
        rows = run(
            "SELECT country.name FROM country JOIN countrylanguage "
            "ON country.code = countrylanguage.countrycode "
            "WHERE countrylanguage.language = 'English'",
            world_db,
        )
        assert sorted(rows) == [("Aruba",), ("Bermuda",)]

    def test_fk_inferred_join(self, world_db):
        rows = run(
            "SELECT country.name FROM country JOIN countrylanguage "
            "WHERE countrylanguage.language = 'Dari'",
            world_db,
        )
        assert rows == [("Afghanistan",)]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT count(*) FROM country AS T1 JOIN country AS T2 "
            "ON T1.code = T2.code",
            "SELECT T1.name FROM country AS T1 JOIN countrylanguage AS T2 "
            "JOIN country AS T3 WHERE T3.population > 0",
        ],
    )
    def test_self_join_is_refused(self, world_db, sql):
        # The alias-free AST cannot tell the two copies apart.
        with pytest.raises(SqlExecutionError, match="named twice"):
            run(sql, world_db)


class TestGrouping:
    def test_group_count(self, world_db):
        rows = run(
            "SELECT continent, count(*) FROM country GROUP BY continent",
            world_db,
        )
        assert ("North America", 3) in rows

    def test_having(self, world_db):
        rows = run(
            "SELECT continent FROM country GROUP BY continent "
            "HAVING count(*) > 1",
            world_db,
        )
        assert rows == [("North America",)]

    def test_group_order_limit(self, world_db):
        rows = run(
            "SELECT continent, count(*) FROM country GROUP BY continent "
            "ORDER BY count(*) DESC LIMIT 1",
            world_db,
        )
        assert rows == [("North America", 3)]


class TestOrdering:
    def test_order_asc(self, world_db):
        rows = run("SELECT name FROM country ORDER BY population", world_db)
        assert rows[0] == ("Anguilla",)

    def test_order_desc_limit(self, world_db):
        rows = run(
            "SELECT name FROM country ORDER BY population DESC LIMIT 2",
            world_db,
        )
        assert rows == [("Afghanistan",), ("Switzerland",)]

    def test_multi_key_order(self, world_db):
        rows = run(
            "SELECT name FROM country ORDER BY continent, population DESC",
            world_db,
        )
        assert rows[0] == ("Afghanistan",)


class TestSubqueries:
    def test_not_in(self, world_db):
        rows = run(
            "SELECT name FROM country WHERE code NOT IN "
            "(SELECT countrycode FROM countrylanguage)",
            world_db,
        )
        assert sorted(rows) == [("Anguilla",), ("Switzerland",)]

    def test_scalar_comparison(self, world_db):
        rows = run(
            "SELECT name FROM country WHERE population > "
            "(SELECT avg(population) FROM country)",
            world_db,
        )
        assert sorted(rows) == [("Afghanistan",), ("Switzerland",)]

    def test_from_subquery(self, world_db):
        rows = run(
            "SELECT count(*) FROM (SELECT countrycode FROM countrylanguage "
            "GROUP BY countrycode HAVING count(*) > 1)",
            world_db,
        )
        assert rows == [(2,)]

    def test_star_in_from_subquery_keeps_every_column(self, world_db):
        inner = run("SELECT * FROM country LIMIT 2", world_db)
        assert len(inner[0]) == 4
        assert run("SELECT * FROM (SELECT * FROM country) LIMIT 2", world_db) == inner
        rows = run(
            "SELECT name, population FROM (SELECT * FROM country) "
            "WHERE population > 10000000",
            world_db,
        )
        assert rows == [("Afghanistan", 22720000)]

    def test_table_star_in_from_subquery(self, world_db):
        rows = run(
            "SELECT * FROM (SELECT countrylanguage.* FROM country "
            "JOIN countrylanguage) WHERE language = 'Dari'",
            world_db,
        )
        assert rows == run(
            "SELECT * FROM countrylanguage WHERE language = 'Dari'", world_db
        )


class TestSetOps:
    def test_except_paper_example(self, world_db):
        rows = run(
            "SELECT countrycode FROM countrylanguage EXCEPT "
            "SELECT countrycode FROM countrylanguage "
            "WHERE language = 'English'",
            world_db,
        )
        assert rows == [("AFG",)]

    def test_union_dedupes(self, world_db):
        rows = run(
            "SELECT countrycode FROM countrylanguage UNION "
            "SELECT countrycode FROM countrylanguage",
            world_db,
        )
        assert len(rows) == 3

    def test_intersect(self, world_db):
        rows = run(
            "SELECT countrycode FROM countrylanguage WHERE isofficial = 'T' "
            "INTERSECT SELECT countrycode FROM countrylanguage "
            "WHERE language = 'English'",
            world_db,
        )
        assert sorted(rows) == [("ABW",), ("BMU",)]


class TestPredicates:
    def test_between(self, world_db):
        rows = run(
            "SELECT name FROM country WHERE population "
            "BETWEEN 50000 AND 200000",
            world_db,
        )
        assert sorted(rows) == [("Aruba",), ("Bermuda",)]

    def test_like(self, world_db):
        rows = run(
            "SELECT name FROM country WHERE name LIKE '%land%'", world_db
        )
        assert rows == [("Switzerland",)]

    def test_or(self, world_db):
        rows = run(
            "SELECT name FROM country WHERE code = 'ABW' OR code = 'CHE'",
            world_db,
        )
        assert len(rows) == 2

    def test_in_literal_list(self, world_db):
        rows = run(
            "SELECT name FROM country WHERE code IN ('ABW', 'AIA')", world_db
        )
        assert len(rows) == 2

    def test_null_comparisons_false(self, db_with_nulls):
        rows = execute(
            parse_sql("SELECT name FROM t WHERE age > 0"), db_with_nulls
        )
        assert rows == [("has-age",)]


@pytest.fixture()
def db_with_nulls():
    from repro.schema.database import Database
    from repro.schema.schema import NUMBER, Column, Schema, Table

    schema = Schema(
        db_id="nulls",
        tables=(Table("t", (Column("name"), Column("age", NUMBER))),),
    )
    db = Database(schema)
    db.insert("t", {"name": "has-age", "age": 5})
    db.insert("t", {"name": "no-age"})
    return db


class TestExecutionProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_queries_execute(self, seed):
        domain = sorted(SPIDER_DOMAINS)[seed % len(SPIDER_DOMAINS)]
        db = build_domain(SPIDER_DOMAINS[domain], seed=6)
        sampler = QuerySampler(db, np.random.default_rng(seed))
        query = sampler.sample()
        rows = execute(query, db)  # must not raise
        if isinstance(query, SelectQuery) and query.limit is not None:
            assert len(rows) <= query.limit

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_except_subset_of_left(self, seed):
        db = build_domain(SPIDER_DOMAINS["pets"], seed=6)
        sampler = QuerySampler(db, np.random.default_rng(seed))
        query = sampler.sample()
        if not isinstance(query, SetQuery) or query.op != "except":
            return
        left_rows = set(execute(query.left, db))
        result = set(execute(query, db))
        assert result <= left_rows


class TestArithmetic:
    def test_select_arith_over_aggregates(self, world_db):
        rows = run(
            "SELECT max(population) - min(population) FROM country", world_db
        )
        assert rows == [(22720000 - 8000,)]

    def test_having_on_avg(self, world_db):
        rows = run(
            "SELECT continent FROM country GROUP BY continent "
            "HAVING avg(population) > 10000000",
            world_db,
        )
        assert rows == [("Asia",)]

    def test_row_arithmetic(self, world_db):
        rows = run(
            "SELECT population + 1 FROM country WHERE code = 'AIA'", world_db
        )
        assert rows == [(8001,)]
