"""Differential tests: array sketch scoring against the scalar reference.

``cue_reference.py`` scores one sketch at a time in Python floats.  The
array form must give every row the same float, bit for bit, and the same
order, ties included.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.cues import CueEvidence, cue_bonus
from repro.models.sketch import FACET_NAMES, Sketch, SketchColumns, SketchModel
from tests.models import cue_reference as reference

SHAPES = (
    "plain",
    "setop:union",
    "setop:intersect",
    "setop:except",
    "nested:in",
    "nested:not_in",
    "nested:scalar",
    "from_subquery",
)
#: ``in``, ``other`` and ``subquery`` are kinds no cue ever counts.
PREDICATE_KINDS = ("eq", "neq", "cmp", "like", "between", "in", "other", "subquery")
AGGREGATES = ("avg", "sum", "min", "max", "count")
#: Cue keys include names no sketch in a table may hold.
CUE_KINDS = ("eq", "neq", "cmp", "like", "between", "regexp")
CUE_AGGREGATES = ("avg", "sum", "min", "max", "median")
WORDS = ("how", "many", "students", "pets", "average", "age", "oldest", "name")

sketches = st.builds(
    Sketch,
    shape=st.sampled_from(SHAPES),
    n_tables=st.integers(1, 3),
    n_select=st.integers(1, 3),
    select_aggs=st.lists(st.sampled_from(AGGREGATES), max_size=3).map(
        lambda items: tuple(sorted(items))
    ),
    count_star=st.booleans(),
    distinct=st.booleans(),
    n_predicates=st.integers(0, 3),
    predicate_kinds=st.lists(st.sampled_from(PREDICATE_KINDS), max_size=3).map(
        lambda items: tuple(sorted(items))
    ),
    has_or=st.booleans(),
    has_group=st.booleans(),
    has_having=st.booleans(),
    order=st.sampled_from(("none", "asc", "desc")),
    limit=st.sampled_from(("none", "one", "k")),
    order_on_agg=st.booleans(),
    has_arith=st.booleans(),
)


def counters(keys):
    return st.dictionaries(st.sampled_from(keys), st.integers(0, 3), max_size=4).map(
        Counter
    )


cue_evidence = st.builds(
    CueEvidence,
    kind_counts=counters(CUE_KINDS),
    has_or=st.booleans(),
    nested=st.sampled_from((None, "in", "not_in", "scalar")),
    setop=st.sampled_from((None, "union", "intersect", "except")),
    from_subquery=st.booleans(),
    group=st.booleans(),
    having=st.booleans(),
    order=st.sampled_from(("none", "asc", "desc")),
    superlative=st.sampled_from(("none", "high", "low")),
    limit_k=st.one_of(st.none(), st.integers(1, 10)),
    count_question=st.booleans(),
    agg_counts=counters(CUE_AGGREGATES),
    distinct=st.booleans(),
    n_select_hint=st.integers(1, 3),
    table_hints=st.integers(1, 4),
    arith=st.booleans(),
)


@st.composite
def tables_with_duplicates(draw):
    """Sketch rows where some rows repeat an earlier one (forced ties)."""
    rows = draw(st.lists(sketches, max_size=10))
    if rows:
        repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
        for index in repeats:
            rows.insert(draw(st.integers(0, len(rows))), rows[index])
    return rows


def assert_same_scores(array_scores, scalar_scores):
    assert [s.hex() for s in array_scores] == [float(s).hex() for s in scalar_scores]
    stable = sorted(range(len(scalar_scores)), key=lambda i: -scalar_scores[i])
    assert np.argsort(-np.array(array_scores), kind="stable").tolist() == stable


@settings(max_examples=300, deadline=None)
@given(rows=tables_with_duplicates(), cues=cue_evidence)
def test_cue_bonus_matches_scalar(rows, cues):
    bonus = cue_bonus(SketchColumns(rows), cues).tolist()
    assert_same_scores(bonus, [reference.cue_bonus(sketch, cues) for sketch in rows])


@pytest.mark.parametrize(
    "order, superlative, limit_k",
    list(itertools.product(("none", "asc", "desc"), ("none", "high", "low"), (None, 3))),
)
def test_every_order_branch_matches_scalar(order, superlative, limit_k):
    rows = [
        Sketch(order=o, limit=lim, predicate_kinds=(), select_aggs=())
        for o in ("none", "asc", "desc")
        for lim in ("none", "one", "k")
    ]
    cues = CueEvidence(order=order, superlative=superlative, limit_k=limit_k)
    bonus = cue_bonus(SketchColumns(rows), cues).tolist()
    assert_same_scores(bonus, [reference.cue_bonus(sketch, cues) for sketch in rows])


def test_empty_table():
    assert cue_bonus(SketchColumns([]), CueEvidence()).tolist() == []


# ----------------------------------------------------------------------
# Whole signature scores.


def fit_rows(rows) -> SketchModel:
    """A sketch model counted from ``(sketch, question tokens)`` rows, as
    ``SketchModel.fit`` counts training examples."""
    model = SketchModel()
    for sketch, tokens in rows:
        model._signatures[sketch] += 1
        model._total += 1
        model._vocab.update(tokens)
        for facet, value in sketch.facets().items():
            model._facet_value_counts[facet][value] += 1
            counter = model._facet_token_counts[(facet, value)]
            for token in tokens:
                counter[token] += 1
            model._facet_token_totals[(facet, value)] += len(tokens)
    return model


def scalar_scores(model, question, cues):
    """The per-signature loop the array scoring replaced."""
    posteriors = model.facet_log_posteriors(question)
    facet_posts = [posteriors.get(facet, {}) for facet in FACET_NAMES]
    scored = []
    for sketch, count in model._signatures.most_common():
        score = 0.0
        for facet_post, value in zip(facet_posts, sketch.facets().values()):
            score += 0.15 * facet_post.get(value, -8.0)
        score += 0.35 * math.log(count + 1.0)
        if cues is not None:
            score += reference.cue_bonus(sketch, cues)
        scored.append((score, sketch))
    scored.sort(key=lambda item: -item[0])
    return scored


training_rows = st.lists(
    st.tuples(sketches, st.frozensets(st.sampled_from(WORDS), max_size=4)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    rows=training_rows,
    twins=st.booleans(),
    words=st.lists(st.sampled_from(WORDS), max_size=5),
    cues=st.one_of(st.none(), cue_evidence),
)
def test_score_sketches_matches_scalar(rows, twins, words, cues):
    if twins:
        # Every row twice, differing only in the one facet the cues never
        # read: each pair scores alike, and the stable order must hold.
        rows = [
            (replace(sketch, order_on_agg=flag), tokens)
            for sketch, tokens in rows
            for flag in (True, False)
        ]
    model = fit_rows(rows)
    question = " ".join(words)
    got = model.score_sketches(question, cues=cues)
    want = scalar_scores(model, question, cues)
    assert [(score.hex(), sketch) for score, sketch in got] == [
        (float(score).hex(), sketch) for score, sketch in want
    ]
    if twins:
        assert len({score for score, __ in got}) <= len(got) // 2
