"""Generic beam search over staged decisions.

The decoder expands partial states stage by stage: each stage maps a state
to scored choices; the beam keeps the top ``width`` states by cumulative
score.  This is the auto-regressive skeleton shared by the Seq2seq and LLM
sims — decisions are local and made left-to-right, which is exactly the
failure mode MetaSQL targets (Section I).

A choice is ``(score, parent, changes)``: the state it leads to is
``parent._replace(**changes)``, built only if the choice survives the
step's pruning.  A stage may return its choices as a
:class:`LogNormalized` list: ``expand`` then rescales them to
log-probabilities, every marked list of one step with a single ``np.exp``
and a single ``np.log``.  Inside a step beams are plain ``(score, state)``
tuples; :class:`Beam` is the same tuple with names, at the boundary.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

_by_score = itemgetter(0)

#: A stage: a state to its ``[(score, parent, changes), ...]`` choices.
Stage = Callable[[object], list[tuple[float, object, dict]]]


class Beam(NamedTuple):
    """A scored partial state."""

    score: float
    state: object


class LogNormalized(list):
    """Stage choices whose raw scores ``expand`` turns into log-probabilities.

    Each ``(score, parent, changes)`` becomes ``(score - logsumexp(scores),
    parent, changes)``: a stage offering more choices gains no length bias.
    """


def _log_partitions(marked: list[list[tuple]]) -> list[float]:
    """``logsumexp`` of each marked list's scores, one numpy call per ufunc.

    Equals the per-list ``peak + np.log(np.exp(s - peak).sum())`` bit for
    bit: ``np.exp`` and ``np.log`` give each element the value they give
    it in a one-list array, and below 8 items ``ndarray.sum()`` is the
    running sum taken here (it sums pairwise from 8 on; no decode stage
    returns more than 6 choices).  ``math.exp`` and ``np.add.reduceat``
    would not match.
    """
    peaks = []
    shifted: list[float] = []
    for choices in marked:
        peak = max([choice[0] for choice in choices])
        peaks.append(peak)
        shifted.extend([choice[0] - peak for choice in choices])
    exps = np.exp(shifted).tolist()
    totals = []
    start = 0
    for choices in marked:
        end = start + len(choices)
        total = exps[start]
        for index in range(start + 1, end):
            total += exps[index]
        totals.append(total)
        start = end
    return [peak + log for peak, log in zip(peaks, np.log(totals).tolist())]


def _step(
    beams: list[tuple[float, object]], expander: Stage, width: int
) -> list[tuple[float, object]]:
    """:func:`expand` over plain ``(score, state)`` tuples."""
    expansions = []
    marked = []
    for beam in beams:
        choices = expander(beam[1])
        expansions.append(choices)
        if choices and type(choices) is LogNormalized:
            marked.append(choices)
    if not any(expansions):
        return beams
    partitions = iter(_log_partitions(marked) if marked else ())
    # ``(score, parent, changes)``; ``changes`` is None for a kept state.
    pending: list[tuple[float, object, dict | None]] = []
    append = pending.append
    for (score, state), choices in zip(beams, expansions):
        if not choices:
            append((score, state, None))
        elif type(choices) is LogNormalized:
            lse = next(partitions)
            for logprob, parent, changes in choices:
                append((score + (logprob - lse), parent, changes))
        else:
            for logprob, parent, changes in choices:
                append((score + logprob, parent, changes))
    pending.sort(key=_by_score, reverse=True)
    return [
        (score, parent if changes is None else parent._replace(**changes))
        for score, parent, changes in pending[:width]
    ]


def expand(beams: list[Beam], expander: Stage, width: int) -> list[Beam]:
    """One beam-search step: expand every state, keep the best *width*.

    *beams* are as :func:`run` keeps them between steps: best first, at
    most *width*.  *expander* maps a state to ``[(choice_logprob, parent,
    changes), ...]``; a surviving choice becomes the state
    ``parent._replace(**changes)``, a pruned one is never built.  An
    empty expansion keeps the state as-is (the stage does not apply), and
    a step in which every expansion is empty returns *beams* unchanged.
    A :class:`LogNormalized` expansion is rescaled to log-probabilities
    first.  The sort is stable: equal scores keep expansion order.
    """
    return [Beam(*beam) for beam in _step(beams, expander, width)]


def run(initial: list[Beam], stages: list[Stage], width: int) -> list[Beam]:
    """Run all *stages* in order, returning the final beam (best first)."""
    beams = sorted(initial, key=_by_score, reverse=True)[:width]
    for stage in stages:
        beams = _step(beams, stage, width)
    return [Beam(*beam) for beam in beams]
