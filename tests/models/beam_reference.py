"""The per-list forms the batched beam step is checked against.

``log_normalize`` is the stage-side rescaling each decode stage applied to
its own choices, with one small numpy array per list; ``expand`` and
``run`` are the plain beam step over frozen-dataclass beams, sorted by
``-score``, which builds every choice's state
``parent._replace(**changes)`` before pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Beam:
    score: float
    state: object


def log_normalize(choices):
    """Rescale stage choices to log-probabilities (length-bias free)."""
    if not choices:
        return choices
    scores = np.array([score for score, __, __ in choices])
    peak = scores.max()
    lse = peak + np.log(np.exp(scores - peak).sum())
    return [
        (float(score - lse), parent, changes) for score, parent, changes in choices
    ]


def expand(beams, expander, width):
    next_beams = []
    for beam in beams:
        choices = expander(beam.state)
        if not choices:
            next_beams.append(beam)
            continue
        for logprob, parent, changes in choices:
            next_beams.append(
                Beam(score=beam.score + logprob, state=parent._replace(**changes))
            )
    next_beams.sort(key=lambda b: -b.score)
    return next_beams[:width]


def run(initial, stages, width):
    beams = sorted(initial, key=lambda b: -b.score)[:width]
    for stage in stages:
        beams = expand(beams, stage, width)
    return beams
