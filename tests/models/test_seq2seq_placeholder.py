"""The placeholder decode against the literal decode plus the old rewrite.

``gap`` and ``lgesql`` leave values to grounding: they build the
``'value'`` placeholder wherever a literal is made.  Each preset is
decoded beside a twin whose profile keeps values, on every dev question
of the tiny benchmark, with no metadata and with its gold metadata under
each correctness indicator.  Every final beam state of the placeholder
decode, finished, must equal the twin's finished state rewritten by
:func:`tests.models.seq2seq_reference.replace_literals`, with the same
score to the bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.metadata import extract_metadata
from repro.models import beam as beamlib
from repro.models.registry import create_model
from repro.models.seq2seq import GrammarSeq2Seq
from tests.models.seq2seq_reference import replace_literals


def _conditions(benchmark):
    """``(question, db, metadata)`` of every dev question and condition."""
    dev = benchmark.dev
    for example in dev.examples:
        db = dev.database(example.db_id)
        gold = extract_metadata(example.sql)
        for metadata in [None] + [
            gold.with_correctness(indicator)
            for indicator in ("correct", "incorrect", "none")
        ]:
            yield example.question, db, metadata


def _final_states(model, conditions, monkeypatch):
    """Per condition, the decode's final beam as ``(score.hex(), query)``
    pairs, each state finished by its own decode (None: no beam ran)."""
    run = beamlib.run
    finals = []

    def recording(initial, stages, width):
        final = run(initial, stages, width)
        context = stages[0].__self__  # the stages are the decode's methods
        finals[-1] = [
            (float(item.score).hex(), context.finalize(item.state))
            for item in final
        ]
        return final

    with monkeypatch.context() as patch:
        patch.setattr(beamlib, "run", recording)
        for question, db, metadata in conditions:
            finals.append(None)
            model.translate(question, db, metadata)
    return finals


@pytest.mark.parametrize("name", ["gap", "lgesql"])
def test_placeholder_decode_is_the_rewritten_literal_decode(
    name, tiny_benchmark, monkeypatch
):
    model = create_model(name)
    assert not model.predicts_values
    twin = GrammarSeq2Seq(dataclasses.replace(model.profile, predicts_values=True))
    for fitted in (model, twin):
        fitted.fit(tiny_benchmark.train, with_metadata=True)
    conditions = list(_conditions(tiny_benchmark))
    placeholder = _final_states(model, conditions, monkeypatch)
    literal = _final_states(twin, conditions, monkeypatch)
    assert len(placeholder) == len(literal) == len(conditions)
    states = rewritten = 0
    for got, want in zip(placeholder, literal):
        assert (got is None) == (want is None)
        if want is None:
            continue
        expected = [
            (score, None if query is None else replace_literals(query))
            for score, query in want
        ]
        assert got == expected
        states += len(want)
        rewritten += sum(
            query is not None and query != replaced
            for (__, query), (__, replaced) in zip(want, expected)
        )
    # The comparison is not vacuous: most decodes carry a literal.
    assert states > 0 and rewritten > states // 4
