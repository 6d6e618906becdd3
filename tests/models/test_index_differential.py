"""The lookup tables against the per-call scans they replaced.

Every question of the end-to-end benchmark's measured pool (SpiderSim,
``build_spider(seed=11, train_per_domain=30, dev_per_domain=48)``, as in
``benchmarks/e2e/workload.py``) is run against its database through the
table-reading forms and through :mod:`tests.models.scan_reference`: the
value matches of cue extraction, decoding and grounding, the lexicon's
table and column scores, the column mention positions and the sketch
model's facet log-posteriors.  Floats are compared by ``float.hex``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import _Grounder, question_values
from repro.data.spider import build_spider
from repro.models.cues import find_mentioned_values
from repro.models.lexicon import content_tokens
from repro.models.question_context import QuestionContext
from repro.models.registry import create_model
from repro.schema.database import Database
from repro.schema.schema import NUMBER, TEXT, Column, Schema, Table
from repro.sqlkit.ast import ColumnRef
from tests.models import scan_reference as reference


@pytest.fixture(scope="module")
def pool():
    spider = build_spider(seed=11, train_per_domain=30, dev_per_domain=48)
    model = create_model("lgesql").fit(spider.train)
    questions = [
        (example.question, spider.dev.database(example.db_id))
        for example in spider.dev.examples
    ]
    return model, questions


def _refs(db, ctype=None):
    return [
        ColumnRef(column=column.name.lower(), table=table.name.lower())
        for table in db.schema.tables
        for column in table.columns
        if ctype is None or column.ctype == ctype
    ]


def _hexed(found):
    return None if found is None else (found[0], found[1].hex())


def test_find_mentioned_values(pool):
    __, questions = pool
    matched = 0
    for question, db in questions:
        got = find_mentioned_values(question, db)
        assert got == reference.find_mentioned_values(question, db), question
        matched += bool(got)
    assert matched > len(questions) // 4


def test_best_text_value(pool):
    __, questions = pool
    grounded = 0
    for question, db in questions:
        values = question_values(question)
        grounder = _Grounder(values, db)
        for ref in _refs(db, TEXT):
            got = grounder._best_text_value(ref)
            assert got == reference.best_text_value(db, values.tokens, ref)
            grounded += got is not None
    assert grounded > len(questions) // 4


def test_lexicon_scores(pool):
    model, questions = pool
    lexicon = model.lexicon
    for question, db in questions:
        tokens = content_tokens(question)
        db_id = db.schema.db_id
        for table in db.schema.tables:
            assert lexicon.score_table(tokens, db, table.name).hex() == (
                reference.score_table(lexicon, question, db_id, table).hex()
            )
            for column in table.columns:
                got = lexicon.score_column(tokens, db, table.name, column.name)
                want = reference.score_column(
                    lexicon, question, db_id, table, column.name
                )
                assert got.hex() == want.hex(), (question, column.name)


def test_question_context(pool):
    model, questions = pool
    mentioned = found = 0
    for question, db in questions:
        ctx = QuestionContext(model, question, db, cues=None, sketches=[])
        for ref in _refs(db):
            positions = ctx.column_positions(ref)
            assert positions == reference.column_positions(ctx, ref), (
                question,
                ref,
            )
            mentioned += bool(positions)
        for ref in _refs(db, TEXT):
            got = ctx.text_value(ref)
            assert _hexed(got) == _hexed(reference.text_value(ctx, ref))
            found += got is not None
    assert mentioned > len(questions)
    assert found > len(questions) // 4


def test_facet_log_posteriors(pool):
    model, questions = pool
    sketch_model = model.sketch_model

    def hexed(posteriors):
        return [
            (facet, [(value, lp.hex()) for value, lp in values.items()])
            for facet, values in posteriors.items()
        ]

    for question, __ in questions:
        assert hexed(sketch_model.facet_log_posteriors(question)) == hexed(
            reference.facet_log_posteriors(sketch_model, question)
        ), question


# ----------------------------------------------------------------------
# Schemas and values the pool does not have: decimals, underscores,
# repeated words, phrases and values with no word, non-string values.

WORDS = ("age", "pet", "2.5", "dog_id", "dog", "id", "Big", "!!", "")
phrases = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)
stored = st.one_of(phrases, st.integers(0, 3), st.none())


@st.composite
def databases(draw):
    columns = tuple(
        Column(
            f"{name}{position}",
            draw(st.sampled_from((TEXT, NUMBER))),
            phrase=draw(st.none() | phrases),
            synonyms=tuple(draw(st.lists(phrases, max_size=2))),
        )
        for position, name in enumerate(draw(st.lists(phrases, min_size=1, max_size=3)))
    )
    table = Table(
        draw(st.sampled_from(("pet", "dog_owner", "Big_Pet"))),
        columns,
        phrase=draw(st.none() | phrases),
        synonyms=tuple(draw(st.lists(phrases, max_size=2))),
    )
    db = Database(Schema("generated", (table,)))
    for values in draw(st.lists(st.lists(stored, min_size=3, max_size=3), max_size=5)):
        row = {}
        for column, value in zip(columns, values):
            if column.ctype == TEXT or not isinstance(value, str):
                row[column.name] = value
        db.insert(table.name, row)
    return db


@settings(max_examples=150, deadline=None)
@given(db=databases(), question=phrases)
def test_generated_schemas(pool, db, question):
    model, __ = pool
    assert find_mentioned_values(question, db) == reference.find_mentioned_values(
        question, db
    )
    tokens = content_tokens(question)
    table = db.schema.tables[0]
    assert model.lexicon.score_table(tokens, db, table.name).hex() == (
        reference.score_table(model.lexicon, question, "generated", table).hex()
    )
    ctx = QuestionContext(model, question, db, cues=None, sketches=[])
    values = question_values(question)
    grounder = _Grounder(values, db)
    for column in table.columns:
        got = model.lexicon.score_column(tokens, db, table.name, column.name)
        want = reference.score_column(
            model.lexicon, question, "generated", table, column.name
        )
        assert got.hex() == want.hex()
    for ref in _refs(db):
        assert ctx.column_positions(ref) == reference.column_positions(ctx, ref)
    for ref in _refs(db, TEXT):
        assert _hexed(ctx.text_value(ref)) == _hexed(reference.text_value(ctx, ref))
        assert grounder._best_text_value(ref) == reference.best_text_value(
            db, values.tokens, ref
        )
