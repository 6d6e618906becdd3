"""Evaluation metrics (Section IV-A4).

- **Translation accuracy (EM)** — Spider exact-set-match, via
  :func:`repro.sqlkit.compare.exact_match`.
- **Execution accuracy (EX)** — result-multiset equality after executing
  both queries (order-sensitive only when the gold query has ORDER BY).
- **Precision@K** — gold query present in the top-K ranked translations.
- **Translation MRR** — mean reciprocal rank of the gold query within the
  top-5 ranked list (reciprocal rank 0 when absent, as in the paper).
"""

from __future__ import annotations

from collections import Counter

from repro.schema.database import Database
from repro.schema.executor import ExecutionBudget, execute
from repro.sqlkit.ast import Query, SetQuery
from repro.sqlkit.errors import SqlError

#: Default per-query step allowance for the EX metric.  Generous for any
#: legitimate benchmark query, but bounds a pathological candidate (e.g.
#: a huge accidental cartesian product) so evaluation cannot hang.
EX_BUDGET_STEPS = 2_000_000


def _has_order(query: Query) -> bool:
    if isinstance(query, SetQuery):
        return _has_order(query.left) or _has_order(query.right)
    return bool(query.order_by)


def _normalise_row(row: tuple) -> tuple:
    out = []
    for value in row:
        if isinstance(value, str):
            out.append(value.lower())
        elif isinstance(value, float) and value.is_integer():
            out.append(int(value))
        elif isinstance(value, float):
            out.append(round(value, 6))
        else:
            out.append(value)
    return tuple(out)


def execution_match(
    predicted: Query,
    gold: Query,
    db: Database,
    budget_steps: int | None = EX_BUDGET_STEPS,
    report=None,
) -> bool:
    """EX: do both queries produce the same results on *db*?

    Each execution runs under a fresh step budget (*budget_steps*; None
    disables it); a candidate that exhausts it counts as a non-match,
    exactly like any other execution error.  When *report* (a
    :class:`~repro.core.resilience.TranslationReport`) is given, absorbed
    execution faults are recorded on it.
    """
    try:
        predicted_rows = execute(
            predicted, db, budget=ExecutionBudget(max_steps=budget_steps)
        )
        gold_rows = execute(
            gold, db, budget=ExecutionBudget(max_steps=budget_steps)
        )
    except SqlError as exc:
        if report is not None:
            report.record_exception("execute", exc, fallback="no-execution")
        return False
    predicted_rows = [_normalise_row(r) for r in predicted_rows]
    gold_rows = [_normalise_row(r) for r in gold_rows]
    if _has_order(gold):
        return predicted_rows == gold_rows
    return Counter(predicted_rows) == Counter(gold_rows)


def precision_at_k(ranked_hits: list[list[bool]], k: int) -> float:
    """Fraction of questions whose top-k ranked list contains the gold query.

    ``ranked_hits[i][j]`` indicates whether the j-th ranked candidate for
    question i exactly matches its gold query.
    """
    if not ranked_hits:
        return 0.0
    hits = sum(1 for flags in ranked_hits if any(flags[:k]))
    return hits / len(ranked_hits)


def mrr(ranked_hits: list[list[bool]], cutoff: int = 5) -> float:
    """Mean reciprocal rank within the top *cutoff* (0 when absent)."""
    if not ranked_hits:
        return 0.0
    total = 0.0
    for flags in ranked_hits:
        for rank, hit in enumerate(flags[:cutoff], start=1):
            if hit:
                total += 1.0 / rank
                break
    return total / len(ranked_hits)
