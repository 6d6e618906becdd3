"""Surface-cue evidence extraction for sketch prediction.

The real baselines' decoders consume rich contextual encodings; our sketch
NB over bag-of-words alone underuses the question's surface structure.  This
module extracts the schema-grounded evidence a trained decoder would pick
up: which DB values are literally mentioned (text predicates), number
mentions with comparison cues, clause keywords (group/order/superlatives/
set-operation connectives), producing a :class:`CueEvidence` whose agreement
with each of many candidate sketches is scored by :func:`cue_bonus`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.models.mentions import extract_mentions, question_tokens
from repro.nn.text import tokenize_text
from repro.schema.database import Database

if TYPE_CHECKING:
    from repro.models.sketch import SketchColumns

_EXCEPT_CUES = ("but not", "excluding", "that are not the ones", "except")
_INTERSECT_CUES = (
    "also the ones",
    "and also those",
    "at the same time",
    "that are also",
)
_UNION_CUES = ("or those", "together with those", "plus those")

_NOT_IN_CUES = (
    "that do not have a",
    "that do not have an",
    "without a",
    "without an",
    "are not among those",
)
_IN_CUES = ("that have a", "that have an", "are among those", "that are among")
_SCALAR_CUES = (
    "above the average",
    "below the average",
    "above the mean",
    "below the mean",
    "above the total",
    "below the total",
)

_GROUP_CUES = ("for each", "per ", "grouped by")
_ORDER_CUES = ("sorted by", "ordered by")
_DESC_CUES = ("descending", "most first")
_ASC_CUES = ("ascending", "least first")
# Superlative *ordering* phrasing is "with the highest X" / "that has the
# lowest X"; a bare "the largest X" is an aggregate projection instead.
_SUPERLATIVE_RE = re.compile(
    r"(?:with|has) the (highest|largest|most|lowest|smallest|least)"
)
_DISTINCT_CUES = ("different", "distinct", "unique")
# The projection is phrased before the first of/from/for.
_PROJECTION_END_RE = re.compile(r"\s(?:of|from|for)\s")

_COUNT_OPENERS = (
    "how many",
    "count the number",
    "find the number of",
    "total number of",
    "the number of records",
)

_AGG_WORDS = {
    "average": "avg",
    "mean": "avg",
    "total": "sum",
    "sum": "sum",
    "minimum": "min",
    "smallest": "min",
    "lowest": "min",
    "maximum": "max",
    "largest": "max",
    "highest": "max",
}


@dataclass
class CueEvidence:
    """Schema-grounded surface evidence about a question's structure."""

    kind_counts: Counter = field(default_factory=Counter)
    has_or: bool = False
    nested: str | None = None  # in | not_in | scalar
    setop: str | None = None  # union | intersect | except
    from_subquery: bool = False
    group: bool = False
    having: bool = False
    order: str = "none"  # none | asc | desc (explicit sort phrasing)
    superlative: str = "none"  # none | high | low (order+limit-1 phrasing)
    limit_k: int | None = None
    count_question: bool = False
    agg_counts: Counter = field(default_factory=Counter)
    distinct: bool = False
    matched_values: list[tuple[str, str, str]] = field(default_factory=list)
    # (table, column, value) for DB values literally present in the question
    n_select_hint: int = 1  # projections separated by " and " before of/from
    table_hints: int = 1  # distinct table phrases mentioned in plural form
    arith: bool = False  # "difference between" / "range of" phrasing

    @property
    def expected_predicates(self) -> int:
        return sum(self.kind_counts.values())


def _contains_any(text: str, cues: tuple[str, ...]) -> bool:
    return any(cue in text for cue in cues)


def find_mentioned_values(
    question: str, db: Database, max_values: int = 4
) -> list[tuple[str, str, str, float]]:
    """DB text values whose tokens all appear in the question.

    Returns (table, column, value, coverage) tuples sorted by coverage and
    value length (longer, fully-covered values first).
    """
    tokens = set(question_tokens(question))
    hits: list[tuple[str, str, str, float]] = []
    for (table, column), values in db.index.text_values.items():
        seen: set[str] = set()
        for value, lower, words in values:
            if not tokens.issuperset(words) or lower in seen:
                continue
            seen.add(lower)
            hits.append((table, column, value, float(len(words))))
    hits.sort(key=lambda h: -h[3])
    # Keep at most one hit per (token-coverage) value string: prefer longest.
    deduped: list[tuple[str, str, str, float]] = []
    used_values: set[str] = set()
    for hit in hits:
        if hit[2].lower() in used_values:
            continue
        used_values.add(hit[2].lower())
        deduped.append(hit)
    return deduped[:max_values]


def extract_cues(question: str, db: Database) -> CueEvidence:
    """Compute all surface evidence for *question* against *db*."""
    text = question.lower()
    evidence = CueEvidence()
    mentions = extract_mentions(question)

    # Set operations.
    if _contains_any(text, _EXCEPT_CUES):
        evidence.setop = "except"
    elif _contains_any(text, _INTERSECT_CUES):
        evidence.setop = "intersect"
    elif _contains_any(text, _UNION_CUES):
        evidence.setop = "union"

    # Nested subqueries.
    if _contains_any(text, _SCALAR_CUES):
        evidence.nested = "scalar"
    elif _contains_any(text, _NOT_IN_CUES):
        evidence.nested = "not_in"
    elif _contains_any(text, _IN_CUES):
        evidence.nested = "in"

    # Grouping / having.
    evidence.group = _contains_any(text, _GROUP_CUES)
    evidence.having = any(m.is_count_threshold for m in mentions)

    # Ordering.
    if _contains_any(text, _ORDER_CUES):
        evidence.order = "desc" if _contains_any(text, _DESC_CUES) else "asc"
    superlative_match = _SUPERLATIVE_RE.search(text)
    if superlative_match is not None:
        word = superlative_match.group(1)
        evidence.superlative = (
            "high" if word in ("highest", "largest", "most") else "low"
        )
    for mention in mentions:
        if mention.is_limit:
            evidence.limit_k = int(mention.value)
            evidence.order = (
                "desc" if "most first" in text or "descending" in text else
                ("asc" if "least first" in text or "ascending" in text
                 else evidence.order)
            )

    # Count questions / FROM subquery.
    evidence.count_question = _contains_any(text, _COUNT_OPENERS)
    evidence.from_subquery = evidence.count_question and " values of " in text

    # Aggregates in the projection.
    for word, func in _AGG_WORDS.items():
        occurrences = text.count(word)
        if occurrences == 0:
            continue
        if word in ("highest", "largest", "most", "lowest", "smallest", "least"):
            # Superlative words next to "with the"/"has the" signal ORDER BY,
            # not an aggregate projection.
            order_uses = len(re.findall(rf"(?:with|has) the {word}", text))
            occurrences -= order_uses
        if word == "total" and "total number of" in text:
            occurrences -= text.count("total number of")
        if occurrences > 0:
            evidence.agg_counts[func] += occurrences

    evidence.distinct = _contains_any(text, _DISTINCT_CUES)
    evidence.arith = (
        "difference between" in text or "range of" in text
    )
    if evidence.arith:
        # The superlative words belong to the arithmetic phrase, not to
        # aggregate projections or ordering.
        evidence.agg_counts.clear()
        evidence.superlative = "none"

    # Grounded text predicates.
    values = find_mentioned_values(question, db)
    tokens = question_tokens(question)
    for table, column, value, __ in values:
        evidence.matched_values.append((table, column, value))
        position = _value_position(tokens, value)
        window = tokens[max(position - 5, 0) : position] if position >= 0 else []
        if "not" in window or "without" in window:
            evidence.kind_counts["neq"] += 1
        elif "contains" in window or "includes" in window:
            evidence.kind_counts["like"] += 1
        else:
            evidence.kind_counts["eq"] += 1

    # Numeric comparison predicates (mentions not otherwise spoken for).
    between_seen = False
    for mention in mentions:
        if mention.is_limit or mention.is_count_threshold:
            continue
        if mention.is_between_bound:
            if not between_seen:
                evidence.kind_counts["between"] += 1
                between_seen = True
            continue
        if mention.op != "=" and evidence.nested != "scalar":
            evidence.kind_counts["cmp"] += 1

    evidence.has_or = " or " in text and evidence.setop != "union"

    # Projection count: " and "-separated heads before the table mention.
    projection_region = _PROJECTION_END_RE.split(text, maxsplit=1)[0]
    evidence.n_select_hint = min(projection_region.count(" and ") + 1, 3)

    # Join hint: distinct tables mentioned in plural form (the renderer says
    # "of <table>s with <other>s" for joins).
    plural_tables = 0
    for table in db.schema.tables:
        for phrase in (table.nl, table.name, *table.synonyms):
            plural = phrase if phrase.endswith("s") else phrase + "s"
            if plural.lower() in text:
                plural_tables += 1
                break
    evidence.table_hints = max(plural_tables, 1)
    return evidence


def _value_position(tokens: list[str], value: str) -> int:
    """Start position of the contiguous occurrence of *value* in *tokens*."""
    words = tokenize_text(value)
    if not words:
        return -1
    for start in range(len(tokens) - len(words) + 1):
        if tokens[start : start + len(words)] == words:
            return start
    return -1


def cue_bonus(columns: SketchColumns, cues: CueEvidence) -> np.ndarray:
    """Log-score agreement between each sketch of *columns* and the evidence.

    One float64 per row.  Each term is one array operation applied in a
    fixed order, so a row's bonus equals the same terms added one by one
    in Python floats; a term that does not apply to a row subtracts 0.0.
    """
    shape = columns.shape
    bonus = np.zeros(len(columns))

    # Shape agreement.
    if cues.setop is not None:
        bonus += np.where(shape == f"setop:{cues.setop}", 4.0, -4.0)
    else:
        bonus -= np.where(columns.is_setop, 4.0, 0.0)
    if cues.nested is not None:
        bonus += np.where(shape == f"nested:{cues.nested}", 3.5, -3.0)
    else:
        bonus -= np.where(columns.is_nested, 3.0, 0.0)
    if cues.from_subquery:
        bonus += np.where(shape == "from_subquery", 3.0, -2.0)
    else:
        bonus -= np.where(shape == "from_subquery", 3.0, 0.0)

    # Predicates.  One predicate (grounded value or number mention) of a
    # nested sketch typically lives inside the nested query, not in the
    # outer WHERE.
    expected = cues.expected_predicates
    outer = np.where(
        columns.is_nested, min(max(expected - 1, 0), 3), min(expected, 3)
    )
    bonus -= 2.6 * np.abs(columns.n_predicates - outer)
    diff = columns.predicate_kinds.distance(cues.kind_counts)
    bonus -= np.where(columns.is_nested, 0.0, 1.5 * diff)
    bonus += np.where(columns.has_or == cues.has_or, 1.2, -1.2)

    # Projection count and join hints.
    if not cues.count_question:
        bonus -= 2.0 * np.abs(columns.n_select - cues.n_select_hint)
    bonus -= 1.5 * np.abs(columns.n_tables - min(cues.table_hints, 2))

    # Group / having.
    bonus += np.where(columns.has_group == cues.group, 2.2, -2.2)
    bonus += np.where(columns.has_having == cues.having, 1.8, -1.8)

    # Order / limit.
    wants_order = cues.order != "none" or cues.superlative != "none"
    if wants_order:
        desired_desc = cues.order == "desc" or cues.superlative == "high"
        desired = "desc" if desired_desc else "asc"
        bonus += np.where(columns.order == desired, 2.0, -1.6)
        if cues.superlative != "none":
            bonus += np.where(columns.limit == "one", 1.4, -1.0)
        if cues.limit_k is not None:
            bonus += np.where(columns.limit == "k", 1.4, -1.0)
    else:
        bonus += np.where(columns.order == "none", 1.2, -1.8)

    # Counting.
    if cues.count_question:
        bonus += np.where(columns.count_star, 1.8, -1.8)
    else:
        bonus -= np.where(columns.count_star & ~columns.has_group, 1.4, 0.0)

    # Aggregate projections.
    bonus -= 3.5 * columns.select_aggs.distance(cues.agg_counts)

    # Distinct.
    bonus += np.where(columns.distinct == cues.distinct, 0.8, -0.8)

    # Arithmetic projections.
    bonus += np.where(columns.has_arith == cues.arith, 2.2, -2.2)
    return bonus
