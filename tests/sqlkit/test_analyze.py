"""Semantic analyzer: seeded invalid corpus, gold sweep, golden rendering.

Three layers of coverage:

1. A hand-seeded corpus of invalid queries, one (or more) per diagnostic
   code, asserting the analyzer flags each with exactly the expected code.
2. A zero-false-positive sweep: every query the synthetic generators can
   produce is valid by construction, so the analyzer must emit no
   error-severity diagnostic for any of them.
3. A golden rendering file freezing codes, messages and AST paths, plus a
   hypothesis property that analysis is total and deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.domains import SPIDER_DOMAINS, build_domain
from repro.data.generator import QuerySampler
from repro.sqlkit.analyze import SemanticAnalyzer, analyze, walk
from repro.sqlkit.ast import (
    ColumnRef,
    Condition,
    FromClause,
    Literal,
    Predicate,
    SelectQuery,
)
from repro.sqlkit.diagnostics import (
    DIAGNOSTIC_CODES,
    ERROR_CODES,
    Diagnostic,
    error_codes,
    has_errors,
    make_diagnostic,
    render_diagnostics,
)
from repro.sqlkit.parser import parse_sql
from repro.sqlkit.printer import to_sql

pytestmark = pytest.mark.lint

GOLDEN = "tests/golden/diagnostics.txt"

#: Invalid-SQL corpus: (expected code, SQL text).  Every error code the
#: analyzer can emit appears at least once; queries are minimal.
INVALID_CORPUS = [
    ("SQL001", "SELECT name FROM starport"),
    ("SQL001", "SELECT city.name FROM country"),
    ("SQL002", "SELECT flavour FROM country"),
    ("SQL002", "SELECT country.flavour FROM country"),
    # Self-join without aliases: every unqualified column is ambiguous.
    ("SQL003", "SELECT name FROM country, country"),
    ("SQL004", "SELECT name FROM country WHERE population > 'x'"),
    ("SQL004", "SELECT name FROM country WHERE name LIKE 5"),
    ("SQL004", "SELECT sum(name) FROM country"),
    ("SQL004", "SELECT name FROM country WHERE continent IN (1, 2)"),
    (
        "SQL005",
        "SELECT country.name FROM country JOIN countrylanguage "
        "ON country.population = countrylanguage.language",
    ),
    ("SQL006", "SELECT name, count(*) FROM country"),
    (
        "SQL006",
        "SELECT continent, name FROM country GROUP BY continent",
    ),
    ("SQL006", "SELECT *, count(*) FROM country"),
    (
        "SQL008",
        "SELECT name FROM country UNION "
        "SELECT name, code FROM country",
    ),
    (
        "SQL009",
        "SELECT name FROM country WHERE code IN "
        "(SELECT countrycode, language FROM countrylanguage)",
    ),
    (
        "SQL010",
        "SELECT continent, count(*) FROM country "
        "GROUP BY continent ORDER BY population",
    ),
    (
        "SQL010",
        "SELECT name FROM country ORDER BY count(*) DESC",
    ),
    ("SQL011", "SELECT max(count(*)) FROM country"),
    ("SQL012", "SELECT name FROM country WHERE count(*) > 3"),
]

#: Warning corpus: (expected code, SQL text) — legal but suspicious.
WARNING_CORPUS = [
    ("SQL101", "SELECT name FROM country LIMIT 3"),
    ("SQL102", "SELECT name, name FROM country"),
    (
        "SQL103",
        "SELECT name FROM country WHERE population = population",
    ),
]

#: Valid queries the analyzer must stay silent on (regression guards for
#: the trickier resolution paths: joins, subqueries, grouping).
VALID_CORPUS = [
    "SELECT name FROM country",
    "SELECT country.name FROM country WHERE country.population > 1000",
    (
        "SELECT country.name FROM country JOIN countrylanguage "
        "ON country.code = countrylanguage.countrycode "
        "WHERE countrylanguage.language = 'Dutch'"
    ),
    (
        "SELECT continent, count(*) FROM country "
        "GROUP BY continent HAVING count(*) > 2"
    ),
    (
        "SELECT name FROM country WHERE population > "
        "(SELECT avg(population) FROM country)"
    ),
    (
        "SELECT name FROM country WHERE code IN "
        "(SELECT countrycode FROM countrylanguage)"
    ),
    "SELECT name FROM country ORDER BY population DESC LIMIT 3",
    "SELECT count(*) FROM country ORDER BY count(*)",
]


@pytest.fixture(scope="module")
def analyzer(world_db):
    return SemanticAnalyzer(world_db.schema)


# ----------------------------------------------------------------------
# Seeded invalid corpus.


@pytest.mark.parametrize(("code", "sql"), INVALID_CORPUS)
def test_invalid_corpus_flagged(analyzer, code, sql):
    diagnostics = analyzer.analyze(parse_sql(sql))
    assert code in error_codes(diagnostics), render_diagnostics(diagnostics)


@pytest.mark.parametrize(("code", "sql"), WARNING_CORPUS)
def test_warning_corpus_flagged(analyzer, code, sql):
    diagnostics = analyzer.analyze(parse_sql(sql))
    assert not has_errors(diagnostics), render_diagnostics(diagnostics)
    assert code in [d.code for d in diagnostics]


def test_having_without_group_by(analyzer):
    # The repo's own parser rejects this syntactically, so the analyzer's
    # SQL007 path is reachable only through a hand-built AST (generated
    # candidates come from models that build ASTs directly).
    query = SelectQuery(
        select=(ColumnRef("name"),),
        from_=FromClause(tables=("country",)),
        having=Condition(
            predicates=(
                Predicate(ColumnRef("population"), ">", Literal(2)),
            )
        ),
    )
    assert "SQL007" in error_codes(analyzer.analyze(query))


def test_every_error_code_covered_by_corpus():
    covered = {code for code, __ in INVALID_CORPUS} | {"SQL007"}
    assert covered == set(ERROR_CODES)


def test_every_warning_code_covered_by_corpus():
    covered = {code for code, __ in WARNING_CORPUS}
    expected = set(DIAGNOSTIC_CODES) - set(ERROR_CODES)
    assert covered == expected


@pytest.mark.parametrize("sql", VALID_CORPUS)
def test_valid_corpus_clean(analyzer, sql):
    diagnostics = analyzer.analyze(parse_sql(sql))
    assert diagnostics == [], render_diagnostics(diagnostics)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT floors FROM building WHERE floors = 'value'",
        "SELECT name FROM building WHERE floors BETWEEN 'value' AND 'value'",
        "SELECT name FROM building WHERE floors IN ('value', 'value')",
        "SELECT name FROM building WHERE floors > 'value' AND name = 'value'",
    ],
)
def test_ungrounded_placeholder_fits_any_column(sql):
    # Models that predict no values emit the 'value' placeholder for every
    # literal; until grounding fills it, it has no type, so a number column
    # compared with it is not a type mismatch.
    schema = build_domain(SPIDER_DOMAINS["apartments"], seed=6).schema
    diagnostics = analyze(parse_sql(sql), schema)
    assert diagnostics == [], render_diagnostics(diagnostics)


def test_placeholder_is_typed_only_when_grounded(world_db):
    diagnostics = analyze(
        parse_sql("SELECT name FROM country WHERE population = 'values'"),
        world_db.schema,
    )
    assert "SQL004" in error_codes(diagnostics)


def test_unknown_table_does_not_cascade(analyzer):
    # One unknown FROM table yields exactly one SQL001, not a wall of
    # unknown-column follow-ons for every reference into it.
    query = parse_sql(
        "SELECT starport.name FROM starport WHERE starport.dock > 3"
    )
    diagnostics = analyzer.analyze(query)
    assert [d.code for d in diagnostics] == ["SQL001"]


# ----------------------------------------------------------------------
# Zero-false-positive sweep over the synthetic gold generators.


@pytest.mark.parametrize("domain", sorted(SPIDER_DOMAINS))
def test_gold_queries_have_no_errors(domain):
    db = build_domain(SPIDER_DOMAINS[domain], seed=7)
    checker = SemanticAnalyzer(db.schema)
    sampler = QuerySampler(db, np.random.default_rng(11))
    for query in sampler.sample_many(40):
        diagnostics = checker.analyze(query)
        assert not has_errors(diagnostics), (
            to_sql(query) + "\n" + render_diagnostics(diagnostics)
        )


# ----------------------------------------------------------------------
# Golden rendering: freezes codes, messages and AST paths.


def test_golden_diagnostics_rendering(analyzer):
    sections = []
    for code, sql in INVALID_CORPUS + WARNING_CORPUS:
        diagnostics = analyzer.analyze(parse_sql(sql))
        sections.append(f"-- [{code}] {sql}\n{render_diagnostics(diagnostics)}")
    rendered = "\n\n".join(sections) + "\n"
    with open(GOLDEN) as handle:
        assert rendered == handle.read()


# ----------------------------------------------------------------------
# Diagnostics plumbing.


def test_diagnostic_registry_is_partitioned():
    for code, spec in DIAGNOSTIC_CODES.items():
        assert code == spec.code
        expected = "error" if code.startswith("SQL0") else "warning"
        assert spec.severity == expected


def test_unregistered_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic(code="SQL999", severity="error", message="nope")


def test_make_diagnostic_uses_registered_severity():
    assert make_diagnostic("SQL101", "m").severity == "warning"
    assert make_diagnostic("SQL002", "m").is_error


def test_render_empty():
    assert render_diagnostics([]) == "no diagnostics"


def test_walk_paths_are_deterministic(world_db):
    query = parse_sql(
        "SELECT name FROM country WHERE population > 10 ORDER BY name"
    )
    first = [(path, type(node).__name__) for path, node in walk(query)]
    second = [(path, type(node).__name__) for path, node in walk(query)]
    assert first == second
    paths = [path for path, __ in first]
    assert "where.predicates[0].left" in paths
    assert "order_by[0].expr" in paths


# ----------------------------------------------------------------------
# Totality and determinism over the whole generatable query space.


DOMAINS = sorted(SPIDER_DOMAINS)


def _sample(seed: int):
    domain = DOMAINS[seed % len(DOMAINS)]
    db = build_domain(SPIDER_DOMAINS[domain], seed=7)
    sampler = QuerySampler(db, np.random.default_rng(seed))
    return db, sampler.sample()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_analysis_total_and_deterministic(seed):
    db, query = _sample(seed)
    round_tripped = parse_sql(to_sql(query))
    first = analyze(round_tripped, db.schema)
    second = analyze(round_tripped, db.schema)
    assert first == second
    assert all(isinstance(d, Diagnostic) for d in first)
