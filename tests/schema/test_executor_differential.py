"""Differential tests: the compiled executor against the reference interpreter.

``executor_reference.py`` is the row-dict interpreter the compiled executor
replaced.  For every query both must return the same rows in the same
order, charge the same budget steps when execution completes, and raise the
same exception class when it does not.  The one deliberate departure is a
self-join (:data:`SELF_JOINS`): the reference answers it with the second
copy's columns shadowing the first, the compiled executor refuses it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.domains import SPIDER_DOMAINS, build_domain
from repro.data.generator import DEFAULT_WEIGHTS, QuerySampler, SamplerConfig
from repro.schema import executor
from repro.schema.database import Database
from repro.schema.schema import NUMBER, Column, Schema, Table
from repro.sqlkit.parser import parse_sql
from tests.schema import executor_reference as reference

DOMAINS = ("pets", "world", "concert_singer", "college", "flights", "dorm")

#: Hand-written cases over the ``pets`` domain (30 students, 26 pets).
PETS_CASES = [
    # self-joins: the reference's second copy of each column shadows the
    # first; the compiled executor refuses them (see SELF_JOINS)
    "SELECT T1.fname, T2.lname FROM student AS T1 JOIN student AS T2 "
    "ON T1.stuid = T2.stuid",
    "SELECT * FROM student AS T1 JOIN student AS T2 WHERE T1.age > 20",
    "SELECT T1.fname FROM student AS T1 JOIN student AS T2 ON T1.age = T2.age",
    # FROM-subqueries: grouped, duplicated names, rows of mixed arity
    "SELECT count(*) FROM (SELECT major FROM student GROUP BY major "
    "HAVING count(*) > 1)",
    "SELECT * FROM (SELECT fname, fname FROM student)",
    "SELECT fname FROM (SELECT fname, age FROM student UNION "
    "SELECT lname FROM student)",
    "SELECT age FROM (SELECT fname, age FROM student UNION "
    "SELECT lname FROM student)",
    "SELECT * FROM (SELECT fname, age FROM student UNION "
    "SELECT lname FROM student) ORDER BY fname",
    # nested IN and scalar subqueries evaluated for many outer rows
    "SELECT fname FROM student WHERE stuid IN (SELECT stuid FROM has_pet "
    "WHERE petid IN (SELECT petid FROM pets WHERE weight > "
    "(SELECT avg(weight) FROM pets)))",
    "SELECT fname FROM student WHERE age > (SELECT avg(age) FROM student) "
    "AND stuid NOT IN (SELECT stuid FROM has_pet)",
    "SELECT major, count(*) FROM student GROUP BY major "
    "HAVING count(*) > (SELECT count(*) FROM pets WHERE pet_age > 13)",
    "SELECT T1.fname, T3.pettype FROM student AS T1 JOIN has_pet AS T2 "
    "ON T1.stuid = T2.stuid JOIN pets AS T3 ON T2.petid = T3.petid "
    "WHERE T3.weight < (SELECT max(weight) FROM pets) ORDER BY T1.fname",
    "SELECT fname FROM student WHERE age > (SELECT age FROM student "
    "WHERE stuid = -1)",
    # set operations
    "SELECT stuid FROM student UNION SELECT stuid FROM has_pet",
    "SELECT stuid FROM student INTERSECT SELECT stuid FROM has_pet",
    "SELECT stuid FROM student EXCEPT SELECT stuid FROM has_pet",
    "SELECT major FROM student EXCEPT SELECT major FROM student WHERE age > 19",
    # lazy errors, grouping scopes and SELECT * variants
    "SELECT fname FROM student WHERE age > 100 OR nosuch = 1",
    "SELECT fname FROM student WHERE age > 1 OR nosuch = 1",
    "SELECT fname, count(*) FROM student",
    "SELECT *, count(*) FROM student",
    "SELECT fname FROM student ORDER BY count(*)",
    "SELECT has_pet.* FROM student JOIN has_pet",
    "SELECT major, fname, avg(age) FROM student GROUP BY major ORDER BY fname",
    "SELECT fname + 1 FROM student",
    "SELECT sum(fname) FROM student",
    "SELECT count(DISTINCT major), max(fname), min(age) FROM student",
    "SELECT fname FROM student WHERE fname LIKE '%a%' AND age BETWEEN 18 AND 20",
    "SELECT fname FROM student WHERE city_code IN ('salem', 'DOVER', 'nyc')",
    "SELECT fname FROM nosuch",
]


#: The alias-free AST cannot tell a self-join's two copies apart, so the
#: compiled executor raises ``SqlExecutionError`` where the reference
#: returns rows that mix up the copies.
SELF_JOINS = PETS_CASES[:3]


def outcome(module, query, db, max_steps=None, max_rows=None):
    """``("rows", rows, steps)`` or ``("raised", exception class name)``."""
    budget = module.ExecutionBudget(max_steps=max_steps, max_rows=max_rows)
    try:
        rows = module.execute(query, db, budget)
    except Exception as exc:  # the class is what is compared
        return ("raised", type(exc).__name__)
    return ("rows", rows, budget.steps)


def assert_same(query, db, max_steps=None, max_rows=None):
    expected = outcome(reference, query, db, max_steps, max_rows)
    assert outcome(executor, query, db, max_steps, max_rows) == expected
    return expected


def sampled_queries(domain, count, seed):
    db = build_domain(SPIDER_DOMAINS[domain], seed=6)
    # Weigh subqueries, joins and set operations up: they differ most.
    weights = dict(DEFAULT_WEIGHTS)
    for template in ("nested_in", "scalar_subquery", "set_op", "from_subquery"):
        weights[template] *= 4
    sampler = QuerySampler(
        db, np.random.default_rng(seed), SamplerConfig(weights=weights)
    )
    return db, sampler.sample_many(count)


@pytest.fixture(scope="module")
def pets_db():
    return build_domain(SPIDER_DOMAINS["pets"], seed=6)


@pytest.fixture(scope="module")
def corpus(pets_db):
    cases = [
        (parse_sql(sql), pets_db) for sql in PETS_CASES if sql not in SELF_JOINS
    ]
    for index, domain in enumerate(DOMAINS):
        db, queries = sampled_queries(domain, 25, seed=index)
        cases.extend((query, db) for query in queries)
    return cases


@pytest.mark.parametrize("domain", DOMAINS)
def test_sampled_queries_agree(domain):
    db, queries = sampled_queries(domain, 60, seed=7)
    for query in queries:
        assert_same(query, db)


@pytest.mark.parametrize("sql", PETS_CASES)
def test_hand_written_cases_agree(sql, pets_db):
    query = parse_sql(sql)
    if sql in SELF_JOINS:
        assert outcome(reference, query, pets_db)[0] == "rows"
        assert outcome(executor, query, pets_db) == ("raised", "SqlExecutionError")
        return
    assert_same(query, pets_db)


def test_cases_cover_rows_and_errors(pets_db):
    results = [outcome(reference, parse_sql(sql), pets_db) for sql in PETS_CASES]
    raised = {result[1] for result in results if result[0] == "raised"}
    assert raised == {"SqlExecutionError", "SchemaError"}
    assert sum(result[0] == "rows" and bool(result[1]) for result in results) >= 20


def test_subquery_reuse_charges_like_a_rerun(pets_db):
    # 30 outer rows each test one scalar and one IN subquery.
    query = parse_sql(PETS_CASES[9])
    kind, rows, steps = assert_same(query, pets_db)
    inner = outcome(reference, parse_sql("SELECT avg(age) FROM student"), pets_db)
    assert kind == "rows" and rows and steps > 30 * inner[2]


@pytest.fixture(scope="module")
def empty_db():
    schema = Schema(
        db_id="empty",
        tables=(Table("t", (Column("name"), Column("age", NUMBER))),),
    )
    return Database(schema)


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT nosuch FROM t", []),
        ("SELECT name FROM t WHERE nosuch = 1", []),
        ("SELECT name FROM t ORDER BY nosuch", []),
        ("SELECT count(*) FROM t WHERE nosuch = 1", [(0,)]),
        ("SELECT name FROM t WHERE name IN (SELECT nosuch FROM nosuch)", []),
    ],
)
def test_unknown_names_on_an_empty_table_stay_lazy(sql, expected, empty_db):
    assert assert_same(parse_sql(sql), empty_db)[1] == expected


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=10_000),
    max_steps=st.integers(min_value=0, max_value=3000),
    max_rows=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
)
def test_tight_budgets_agree(corpus, case, max_steps, max_rows):
    query, db = corpus[case % len(corpus)]
    assert_same(query, db, max_steps=max_steps, max_rows=max_rows)


KEY_VALUES = st.one_of(
    st.none(),
    st.sampled_from(["x", "X", "1", "1.0", "nan", "True", "a"]),
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([1.0, 0.5, -0.0, math.nan]),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(KEY_VALUES, max_size=8),
    right=st.lists(KEY_VALUES, max_size=8),
)
def test_mixed_type_keys_agree(left, right):
    # Case-insensitive text, text against numbers and NaN: join and IN
    # look partners up through an index that must match the scan.
    schema = Schema(
        db_id="mixed",
        tables=(
            Table("a", (Column("id", NUMBER), Column("k"))),
            Table("b", (Column("id", NUMBER), Column("k"))),
        ),
    )
    db = Database(schema)
    for table, values in (("a", left), ("b", right)):
        db.insert_many(table, [{"id": i, "k": v} for i, v in enumerate(values)])
    for sql in (
        "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k",
        "SELECT a.id, b.id FROM a JOIN b ON b.k = a.k AND a.id = b.id",
        "SELECT id FROM a WHERE k IN (SELECT k FROM b)",
        "SELECT id FROM a WHERE k NOT IN (SELECT k FROM b)",
        "SELECT id FROM a WHERE k IN ('x', 1, 0.5)",
    ):
        assert_same(parse_sql(sql), db)
