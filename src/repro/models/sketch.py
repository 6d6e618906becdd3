"""Query sketches: structural signatures and their learned prediction.

A :class:`Sketch` captures the clause structure of a query without naming
columns or values — the decoding grammar's first, most consequential
decisions.  :class:`SketchModel` is a facet-factored naive-Bayes classifier
over question tokens; candidate sketches are restricted to signatures
observed in training (the same train-composition assumption MetaSQL makes
for metadata compositions).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cached_property

from repro.data.dataset import Dataset
from repro.models.lexicon import content_tokens
from repro.sqlkit.ast import (
    AggExpr,
    Arith,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
)


@dataclass(frozen=True)
class Sketch:
    """Structural signature of a query."""

    shape: str = "plain"  # plain | setop:* | nested:in | nested:not_in |
    #                       nested:scalar | from_subquery
    n_tables: int = 1
    n_select: int = 1
    select_aggs: tuple[str, ...] = ()  # agg funcs among select items
    count_star: bool = False
    distinct: bool = False
    n_predicates: int = 0
    predicate_kinds: tuple[str, ...] = ()  # sorted kinds: eq neq cmp like between
    has_or: bool = False
    has_group: bool = False
    has_having: bool = False
    order: str = "none"  # none | asc | desc
    limit: str = "none"  # none | one | k
    order_on_agg: bool = False
    has_arith: bool = False  # arithmetic over aggregates in SELECT

    def facets(self) -> dict[str, object]:
        """Facet name -> value mapping used by the factored classifier."""
        return {
            "shape": self.shape,
            "n_tables": self.n_tables,
            "n_select": self.n_select,
            "select_aggs": self.select_aggs,
            "count_star": self.count_star,
            "distinct": self.distinct,
            "n_predicates": self.n_predicates,
            "predicate_kinds": self.predicate_kinds,
            "has_or": self.has_or,
            "has_group": self.has_group,
            "has_having": self.has_having,
            "order": self.order,
            "limit": self.limit,
            "order_on_agg": self.order_on_agg,
            "has_arith": self.has_arith,
        }

    # ------------------------------------------------------------------
    # Operator tags (the paper's tag-type metadata, Section III-A1).

    def operator_tags(self) -> frozenset[str]:
        """The metadata operator tags implied by this structure."""
        return self._operator_tags

    @cached_property
    def _operator_tags(self) -> frozenset[str]:
        # Computed once per sketch: metadata filters ask for it per decode.
        tags = {"project"}
        if self.shape.startswith("setop:"):
            tags.add(self.shape.split(":", 1)[1])
        if self.shape.startswith("nested:") or self.shape == "from_subquery":
            tags.add("subquery")
        if self.n_tables > 1:
            tags.add("join")
        if self.n_predicates > 0 or self.shape.startswith("nested:"):
            tags.add("where")
        if self.has_group:
            tags.add("group")
        if self.has_having:
            tags.add("having")
        if self.order != "none":
            tags.add("order")
        if self.limit != "none":
            tags.add("limit")
        if (
            self.select_aggs
            or self.count_star
            or self.order_on_agg
            or self.has_arith
        ):
            tags.add("agg")
        return frozenset(tags)


FACET_NAMES = tuple(Sketch().facets().keys())


def _predicate_kind(predicate: Predicate) -> str:
    if isinstance(predicate.right, (SelectQuery, SetQuery)):
        return "subquery"
    if predicate.op == "=":
        return "neq" if predicate.negated else "eq"
    if predicate.op == "!=":
        return "neq"
    if predicate.op in ("<", ">", "<=", ">="):
        return "cmp"
    if predicate.op == "like":
        return "like"
    if predicate.op == "between":
        return "between"
    if predicate.op == "in":
        return "in"
    return "other"


def extract_sketch(query: Query) -> Sketch:
    """Compute the structural signature of *query*."""
    if isinstance(query, SetQuery):
        base = extract_sketch(query.left)
        return replace(base, shape=f"setop:{query.op}")

    shape = "plain"
    if query.from_.subquery is not None:
        shape = "from_subquery"
    predicates: list[Predicate] = []
    if query.where is not None:
        predicates.extend(query.where.predicates)
    nested = [p for p in predicates if isinstance(p.right, (SelectQuery, SetQuery))]
    plain = [p for p in predicates if not isinstance(p.right, (SelectQuery, SetQuery))]
    if nested:
        first = nested[0]
        if first.op == "in":
            shape = "nested:not_in" if first.negated else "nested:in"
        else:
            shape = "nested:scalar"

    select_aggs = tuple(
        sorted(
            e.func
            for e in query.select
            if isinstance(e, AggExpr) and not isinstance(e.arg, Star)
        )
    )
    has_arith = any(isinstance(e, Arith) for e in query.select)
    count_star = any(
        isinstance(e, AggExpr) and isinstance(e.arg, Star) for e in query.select
    )
    order = "none"
    order_on_agg = False
    if query.order_by:
        order = "desc" if query.order_by[0].desc else "asc"
        order_on_agg = isinstance(query.order_by[0].expr, (AggExpr, Arith))
    limit = "none"
    if query.limit is not None:
        limit = "one" if query.limit == 1 else "k"

    return Sketch(
        shape=shape,
        n_tables=min(len(query.from_.tables), 3) or 1,
        n_select=min(len(query.select), 3),
        select_aggs=select_aggs,
        count_star=count_star,
        distinct=query.distinct,
        n_predicates=min(len(plain), 3),
        predicate_kinds=tuple(sorted(_predicate_kind(p) for p in plain)),
        has_or=query.where.has_or if query.where is not None else False,
        has_group=bool(query.group_by),
        has_having=query.having is not None,
        order=order,
        limit=limit,
        order_on_agg=order_on_agg,
        has_arith=has_arith,
    )


class SketchModel:
    """Facet-factored naive-Bayes sketch classifier.

    For each facet, Bernoulli NB over question tokens gives a log-posterior
    per facet value; a full sketch signature scores the sum of its facet
    log-posteriors plus a signature prior.  Only signatures observed in
    training are considered.

    The per-signature part of that score (facet values and prior term)
    lives in a signature table built on first use and dropped by ``fit``:
    :mod:`repro.core.persist` restores the counts without calling ``fit``.
    """

    def __init__(self, smoothing: float = 0.3) -> None:
        self.smoothing = smoothing
        self._signatures: Counter[Sketch] = Counter()
        self._facet_value_counts: dict[str, Counter] = defaultdict(Counter)
        self._facet_token_counts: dict[tuple[str, object], Counter] = defaultdict(
            Counter
        )
        self._facet_token_totals: dict[tuple[str, object], int] = defaultdict(int)
        self._vocab: set[str] = set()
        self._total = 0
        self._table: list[tuple[Sketch, tuple, float]] | None = None

    def fit(self, train: Dataset) -> "SketchModel":
        """Count sketch signatures and facet/token statistics."""
        for example in train.examples:
            sketch = extract_sketch(example.sql)
            tokens = set(content_tokens(example.question))
            self._signatures[sketch] += 1
            self._total += 1
            self._vocab.update(tokens)
            for facet, value in sketch.facets().items():
                self._facet_value_counts[facet][value] += 1
                counter = self._facet_token_counts[(facet, value)]
                for token in tokens:
                    counter[token] += 1
                self._facet_token_totals[(facet, value)] += len(tokens)
        self._table = None
        return self

    def _signature_table(self) -> list[tuple[Sketch, tuple, float]]:
        """``(sketch, facet values in FACET_NAMES order, prior term)``, most
        frequent first."""
        if self._table is None:
            self._table = [
                self._table_row(sketch, count)
                for sketch, count in self._signatures.most_common()
            ]
        return self._table

    @staticmethod
    def _table_row(sketch: Sketch, count: int) -> tuple[Sketch, tuple, float]:
        values = tuple(sketch.facets().values())
        return sketch, values, 0.35 * math.log(count + 1.0)

    @property
    def signatures(self) -> list[Sketch]:
        """All training signatures, most frequent first."""
        return [row[0] for row in self._signature_table()]

    def facet_log_posteriors(
        self, question: str
    ) -> dict[str, dict[object, float]]:
        """Per-facet normalised log-posteriors given *question*."""
        tokens = [t for t in set(content_tokens(question)) if t in self._vocab]
        vocab_size = max(len(self._vocab), 1)
        result: dict[str, dict[object, float]] = {}
        for facet, value_counts in self._facet_value_counts.items():
            logps: dict[object, float] = {}
            for value, count in value_counts.items():
                logp = math.log(count / self._total)
                token_counter = self._facet_token_counts[(facet, value)]
                denominator = (
                    self._facet_token_totals[(facet, value)]
                    + self.smoothing * vocab_size
                )
                for token in tokens:
                    # Multinomial smoothing: rare classes do not win on
                    # unseen tokens (their denominator shrinks too).
                    p = (token_counter.get(token, 0) + self.smoothing) / denominator
                    logp += math.log(p)
                logps[value] = logp
            # Normalise within the facet.
            peak = max(logps.values())
            total = sum(math.exp(v - peak) for v in logps.values())
            log_norm = peak + math.log(total)
            result[facet] = {v: lp - log_norm for v, lp in logps.items()}
        return result

    def score_sketches(
        self,
        question: str,
        candidates: list[Sketch] | None = None,
        cues=None,
    ) -> list[tuple[float, Sketch]]:
        """Score candidate signatures, best first.

        When *cues* (a :class:`repro.models.cues.CueEvidence`) is given,
        surface-evidence agreement is blended into the NB posterior.
        """
        from repro.models.cues import cue_bonus

        posteriors = self.facet_log_posteriors(question)
        facet_posts = [posteriors.get(facet, {}) for facet in FACET_NAMES]
        if candidates is None:
            rows = self._signature_table()
        else:
            rows = [
                self._table_row(sketch, self._signatures.get(sketch, 0))
                for sketch in candidates
            ]
        scored = []
        for sketch, values, prior_term in rows:
            score = 0.0
            for facet_post, value in zip(facet_posts, values):
                score += 0.15 * facet_post.get(value, -8.0)
            score += prior_term
            if cues is not None:
                score += cue_bonus(sketch, cues)
            scored.append((score, sketch))
        scored.sort(key=lambda item: -item[0])
        return scored
