"""The per-request decode tables against the per-state stages they replace.

Every dev question of the tiny pipeline is translated with each decode's
``_Context`` swapped for one that, at every call of ``stage_select`` and
of the predicate builders, runs the old form
(:mod:`tests.models.seq2seq_reference`) on a twin of its noise stream
first and records any difference: in a score's ``float.hex``, in a state
(built from a choice's ``parent._replace(**changes)``) or predicate, or in
where the stream stands afterwards.  Generation
isolates each decode's exceptions, so differences are collected, not
raised.
"""

from __future__ import annotations

import copy
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.models import beam as beamlib
from repro.models import seq2seq
from tests.models import seq2seq_reference as reference


def _twin(ctx):
    """A context over the same prepared question at the same stream point."""
    twin = seq2seq._Context(ctx.prepared, rng=copy.deepcopy(ctx.rng), noise=ctx.noise)
    twin._raw, twin._noisy, twin._drawn = list(ctx._raw), list(ctx._noisy), ctx._drawn
    return twin


def _stream(ctx):
    return ctx._drawn, ctx._raw, ctx.rng.bit_generator.state


def _hexed(choices):
    return [(score.hex(), state) for score, state in choices]


def _built(choices):
    """``(score, parent, changes)`` choices as ``(hex, built state)`` pairs."""
    return [
        (score.hex(), parent._replace(**changes)) for score, parent, changes in choices
    ]


def _predicates(choices):
    """``(score, predicate, slot)`` triples as ``(hex, predicate)`` pairs,
    or None when a slot is not the predicate's ``(key, op)``."""
    if any(slot != (p.left.key(), p.op) for __, p, slot in choices):
        return None
    return [(score.hex(), p) for score, p, __ in choices]


def _checked_context(calls: Counter, mismatches: list):
    class Checked(seq2seq._Context):
        def _compare(self, name, twin, want, got, same):
            calls[name] += 1
            if not same or _stream(twin) != _stream(self):
                mismatches.append((self.question, name, want, got))

        def stage_select(self, state):
            twin = _twin(self)
            want = reference.stage_select(twin, state)
            got = super().stage_select(state)
            same = type(got) is beamlib.LogNormalized and _built(got) == _hexed(want)
            self._compare("stage_select", twin, want, got, same)
            return got

        def _predicate_candidates(self, tables, kinds):
            twin = _twin(self)
            want = reference.predicate_candidates(twin, tables, kinds)
            got = super()._predicate_candidates(tables, kinds)
            same = _predicates(got) == _hexed(want)
            self._compare("predicate_candidates", twin, want, got, same)
            return got

        def _text_predicates(self, tables, kind):
            twin = _twin(self)
            want = reference.text_predicates(twin, tables, kind)
            got = super()._text_predicates(tables, kind)
            same = _predicates(got) == _hexed(want)
            self._compare("text_predicates", twin, want, got, same)
            return got

        def _number_predicates(self, tables, kind):
            twin = _twin(self)
            want = reference.number_predicates(twin, tables, kind)
            got = super()._number_predicates(tables, kind)
            same = _predicates(got) == _hexed(want)
            self._compare("number_predicates", twin, want, got, same)
            return got

    return Checked


def test_stages_match_per_state_reference(
    trained_pipeline, tiny_benchmark, monkeypatch
):
    calls: Counter = Counter()
    mismatches: list = []
    monkeypatch.setattr(seq2seq, "_Context", _checked_context(calls, mismatches))
    dev = tiny_benchmark.dev
    for example in dev.examples:
        out = trained_pipeline.translate_ranked_report(
            example.question, dev.database(example.db_id)
        )
        assert not out.report.fallbacks()
    assert mismatches == []
    for name in (
        "stage_select",
        "predicate_candidates",
        "text_predicates",
        "number_predicates",
    ):
        assert calls[name] > 0, name


def test_question_context_is_request_local(
    trained_pipeline, tiny_benchmark, monkeypatch
):
    """No table outlives its request: the context is freed on return."""
    model = trained_pipeline.generator.model
    prepare = model.prepare
    contexts = []

    def watched(*args, **kwargs):
        prepared = prepare(*args, **kwargs)
        contexts.append(weakref.ref(prepared))
        return prepared

    monkeypatch.setattr(model, "prepare", watched)
    dev = tiny_benchmark.dev
    for example in dev.examples[:10]:
        out = trained_pipeline.translate_ranked_report(
            example.question, dev.database(example.db_id)
        )
        assert out.translations
        assert contexts and contexts[-1]() is None
    assert len(contexts) == 10


@pytest.mark.parametrize("warm", [0, 10])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_gumbels_equal_gumbel_calls(trained_pipeline, tiny_benchmark, n, warm):
    """``_gumbels(n, s)`` is *n* ``_gumbel(s)`` calls, from the block start
    and from mid-block, and leaves the stream where they leave it."""
    db = tiny_benchmark.dev.database("pets")
    prepared = trained_pipeline.generator.model.prepare("How many pets are there?", db)
    sliced, single = (
        seq2seq._Context(prepared, rng=np.random.default_rng(7), noise=1.3)
        for __ in range(2)
    )
    for ctx in (sliced, single):
        for __ in range(warm):
            ctx._draw()
    got = [g.hex() for g in sliced._gumbels(n, 0.6)]
    assert got == [single._gumbel(0.6).hex() for __ in range(n)]
    assert _stream(sliced) == _stream(single)
    assert sliced._gumbel(0.4).hex() == single._gumbel(0.4).hex()
