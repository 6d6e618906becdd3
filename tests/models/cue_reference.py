"""Scalar reference for :func:`repro.models.cues.cue_bonus`.

The per-sketch form the array scoring replaced: one Python float per
sketch, its terms added one by one.  ``test_cue_scoring_differential.py``
checks the array form against it bit for bit.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.models.cues import CueEvidence


def multiset_distance(items: tuple, counts: Mapping) -> int:
    """Size of the symmetric difference of *items* (a multiset) and *counts*.

    Equals ``sum((a - b).values()) + sum((b - a).values())`` for
    ``a = Counter(items)`` and ``b = Counter(counts)`` -- the sum of
    ``|a[k] - b[k]|`` over every key -- without building either Counter.
    """
    own: dict = {}
    for item in items:
        own[item] = own.get(item, 0) + 1
    distance = 0
    for key, count in counts.items():
        distance += abs(own.pop(key, 0) - count)
    return distance + sum(own.values())


def cue_bonus(sketch, cues: CueEvidence) -> float:
    """Log-score agreement between a sketch and the surface evidence."""
    bonus = 0.0

    # Shape agreement.
    if cues.setop is not None:
        bonus += 4.0 if sketch.shape == f"setop:{cues.setop}" else -4.0
    elif sketch.shape.startswith("setop:"):
        bonus -= 4.0
    if cues.nested is not None:
        bonus += 3.5 if sketch.shape == f"nested:{cues.nested}" else -3.0
    elif sketch.shape.startswith("nested:"):
        bonus -= 3.0
    if cues.from_subquery:
        bonus += 3.0 if sketch.shape == "from_subquery" else -2.0
    elif sketch.shape == "from_subquery":
        bonus -= 3.0

    # Predicates.
    expected = cues.expected_predicates
    if sketch.shape.startswith("nested:"):
        # One predicate (grounded value or number mention) typically lives
        # inside the nested query, not in the outer WHERE.
        expected = max(expected - 1, 0)
    bonus -= 2.6 * abs(sketch.n_predicates - min(expected, 3))
    diff = multiset_distance(sketch.predicate_kinds, cues.kind_counts)
    if not sketch.shape.startswith("nested:"):
        bonus -= 1.5 * diff
    bonus += 1.2 if sketch.has_or == cues.has_or else -1.2

    # Projection count and join hints.
    if not cues.count_question:
        bonus -= 2.0 * abs(sketch.n_select - cues.n_select_hint)
    bonus -= 1.5 * abs(sketch.n_tables - min(cues.table_hints, 2))

    # Group / having.
    bonus += 2.2 if sketch.has_group == cues.group else -2.2
    bonus += 1.8 if sketch.has_having == cues.having else -1.8

    # Order / limit.
    wants_order = cues.order != "none" or cues.superlative != "none"
    if wants_order:
        desired_desc = cues.order == "desc" or cues.superlative == "high"
        desired = "desc" if desired_desc else "asc"
        bonus += 2.0 if sketch.order == desired else -1.6
        if cues.superlative != "none":
            bonus += 1.4 if sketch.limit == "one" else -1.0
        if cues.limit_k is not None:
            bonus += 1.4 if sketch.limit == "k" else -1.0
    else:
        bonus += 1.2 if sketch.order == "none" else -1.8

    # Counting.
    if cues.count_question:
        bonus += 1.8 if sketch.count_star else -1.8
    elif sketch.count_star and not sketch.has_group:
        bonus -= 1.4

    # Aggregate projections.
    bonus -= 3.5 * multiset_distance(sketch.select_aggs, cues.agg_counts)

    # Distinct.
    bonus += 0.8 if sketch.distinct == cues.distinct else -0.8

    # Arithmetic projections.
    bonus += 2.2 if sketch.has_arith == cues.arith else -2.2
    return bonus
