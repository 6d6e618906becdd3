"""Query sketches: structural signatures and their learned prediction.

A :class:`Sketch` captures the clause structure of a query without naming
columns or values — the decoding grammar's first, most consequential
decisions.  :class:`SketchModel` is a facet-factored naive-Bayes classifier
over question tokens; candidate sketches are restricted to signatures
observed in training (the same train-composition assumption MetaSQL makes
for metadata compositions).  :class:`SketchColumns` holds many sketches'
fields as arrays so that every signature is scored in one pass.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.data.dataset import Dataset
from repro.models.cues import CueEvidence, cue_bonus
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
from repro.sqlkit.hardness import RATING_BASE, RATING_SCORES


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

    def estimated_rating(self) -> int:
        """Approximate hardness rating implied by this structure."""
        return self._estimated_rating

    @cached_property
    def _estimated_rating(self) -> int:
        # Computed once per sketch: a rating filter asks for it per decode.
        rating = RATING_BASE
        if self.n_tables > 1:
            rating += RATING_SCORES["join"] * (self.n_tables - 1)
        if self.n_predicates > 0:
            rating += RATING_SCORES["where"]
            rating += RATING_SCORES["extra_predicate"] * (self.n_predicates - 1)
        if self.shape.startswith("nested:"):
            rating += RATING_SCORES["subquery"] + RATING_SCORES["where"]
        if self.shape == "from_subquery":
            rating += RATING_SCORES["subquery"] + RATING_SCORES["group"]
            rating += RATING_SCORES["having"]
        if self.shape.startswith("setop:"):
            rating += RATING_SCORES["setop"] + RATING_SCORES["where"]
        if self.has_group:
            rating += RATING_SCORES["group"]
        if self.has_having:
            rating += RATING_SCORES["having"]
        if self.order != "none":
            rating += RATING_SCORES["order"]
        if self.limit != "none":
            rating += RATING_SCORES["limit"]
        n_aggs = len(self.select_aggs) + (1 if self.count_star else 0)
        if self.order_on_agg:
            n_aggs += 1
        if n_aggs > 1:
            rating += RATING_SCORES["agg"] * (n_aggs - 1)
        return rating


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


class _MultisetColumn:
    """A multiset field of many sketches as a row-per-sketch count matrix."""

    def __init__(self, multisets: Sequence[tuple]) -> None:
        names = dict.fromkeys(name for items in multisets for name in items)
        self.index = {name: slot for slot, name in enumerate(names)}
        self.counts = np.zeros((len(multisets), len(self.index)), dtype=np.int64)
        for row, items in enumerate(multisets):
            for name in items:
                self.counts[row, self.index[name]] += 1

    def distance(self, counts: Mapping) -> np.ndarray:
        """Per row, the size of the symmetric difference with *counts*.

        That is the sum of ``|own[k] - counts[k]|`` over every key of
        either side; a key of *counts* no row holds adds ``|counts[k]|``.
        """
        wanted = np.zeros(len(self.index), dtype=np.int64)
        absent = 0
        for name, count in counts.items():
            slot = self.index.get(name)
            if slot is None:
                absent += abs(count)
            else:
                wanted[slot] = count
        return np.abs(self.counts - wanted).sum(axis=1) + absent


class SketchColumns:
    """The fields of many sketches as arrays, one row per sketch.

    :func:`repro.models.cues.cue_bonus` reads these columns to score
    every row at once.
    """

    def __init__(self, sketches: Sequence[Sketch]) -> None:
        self.sketches = list(sketches)
        rows = self.sketches
        shapes = [s.shape for s in rows]
        self.shape = np.array(shapes, dtype=str)
        self.is_setop = np.array([s.startswith("setop:") for s in shapes], dtype=bool)
        self.is_nested = np.array(
            [s.startswith("nested:") for s in shapes], dtype=bool
        )
        self.n_tables = np.array([s.n_tables for s in rows], dtype=np.int64)
        self.n_select = np.array([s.n_select for s in rows], dtype=np.int64)
        self.n_predicates = np.array([s.n_predicates for s in rows], dtype=np.int64)
        self.predicate_kinds = _MultisetColumn([s.predicate_kinds for s in rows])
        self.select_aggs = _MultisetColumn([s.select_aggs for s in rows])
        self.has_or = np.array([s.has_or for s in rows], dtype=bool)
        self.has_group = np.array([s.has_group for s in rows], dtype=bool)
        self.has_having = np.array([s.has_having for s in rows], dtype=bool)
        self.count_star = np.array([s.count_star for s in rows], dtype=bool)
        self.distinct = np.array([s.distinct for s in rows], dtype=bool)
        self.has_arith = np.array([s.has_arith for s in rows], dtype=bool)
        self.order = np.array([s.order for s in rows], dtype=str)
        self.limit = np.array([s.limit for s in rows], dtype=str)

    def __len__(self) -> int:
        return len(self.sketches)


class _SignatureTable(NamedTuple):
    """The question-independent parts of a sketch score.

    The per-signature part, most frequent signature first, and the
    naive-Bayes terms of every facet value, in the order of
    ``_facet_value_counts`` (facet, then value).
    """

    columns: SketchColumns
    facet_keys: list[tuple[int, object]]  # (FACET_NAMES position, value)
    facet_codes: np.ndarray  # (facet, row) -> index into facet_keys
    prior: np.ndarray
    facet_values: list[tuple[str, list]]  # each facet's values, in row order
    token_columns: dict[str, int]  # vocabulary token -> column of log_terms
    log_base: np.ndarray  # per facet value: log of its training frequency
    #: (facet value, token): log of the token's smoothed probability.
    log_terms: np.ndarray


class SketchModel:
    """Facet-factored naive-Bayes sketch classifier.

    For each facet, Bernoulli NB over question tokens gives a log-posterior
    per facet value; a full sketch signature scores the sum of its facet
    log-posteriors plus a signature prior.  Only signatures observed in
    training are considered.

    The question-independent part of that score (facet-value codes,
    prior term and the sketch columns the cue bonus reads, and each facet
    value's log terms) lives in a signature table built on first use and
    dropped by ``fit``, so a refit scores with the new counts.  It stays
    lazy because :class:`~repro.models.llm.FewShotLLM` proposes sketches
    from its retrieved demonstrations and reads :attr:`signatures` only
    on its tag-filter fallback, so a model that bypasses sketch scoring
    never builds it.
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
        self._table: _SignatureTable | None = None

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

    def _signature_table(self) -> _SignatureTable:
        if self._table is None:
            counted = self._signatures.most_common()
            keys: dict[tuple[int, object], int] = {}
            codes = np.array(
                [
                    [
                        keys.setdefault((facet, value), len(keys))
                        for facet, value in enumerate(sketch.facets().values())
                    ]
                    for sketch, __ in counted
                ],
                dtype=np.intp,
            ).reshape(len(counted), len(FACET_NAMES))
            self._table = _SignatureTable(
                columns=SketchColumns([sketch for sketch, __ in counted]),
                facet_keys=list(keys),
                facet_codes=codes.T.copy(),
                prior=np.array(
                    [0.35 * math.log(count + 1.0) for __, count in counted]
                ),
                **self._log_table(),
            )
        return self._table

    def _log_table(self) -> dict:
        """Each facet value's naive-Bayes terms, by ``math.log``.

        One row per facet value: the log of its frequency, and per
        vocabulary token the log of ``(count + smoothing) / denominator``;
        a token the value never saw has the row's default, the log of
        ``smoothing / denominator``.
        """
        token_columns = {t: i for i, t in enumerate(sorted(self._vocab))}
        vocab_size = max(len(self._vocab), 1)
        rows = sum(map(len, self._facet_value_counts.values()))
        log_base = np.empty(rows)
        log_terms = np.empty((rows, len(token_columns)))
        facet_values = []
        row = 0
        for facet, value_counts in self._facet_value_counts.items():
            facet_values.append((facet, list(value_counts)))
            for value, count in value_counts.items():
                log_base[row] = math.log(count / self._total)
                denominator = (
                    self._facet_token_totals[(facet, value)]
                    + self.smoothing * vocab_size
                )
                # Multinomial smoothing: rare classes do not win on unseen
                # tokens (their denominator shrinks too).
                log_terms[row] = math.log(self.smoothing / denominator)
                for token, n in self._facet_token_counts[(facet, value)].items():
                    column = token_columns.get(token)
                    if column is not None:
                        log_terms[row, column] = math.log(
                            (n + self.smoothing) / denominator
                        )
                row += 1
        return {
            "facet_values": facet_values,
            "token_columns": token_columns,
            "log_base": log_base,
            "log_terms": log_terms,
        }

    @property
    def signatures(self) -> list[Sketch]:
        """All training signatures, most frequent first."""
        return list(self._signature_table().columns.sketches)

    def facet_log_posteriors(
        self, question: str
    ) -> dict[str, dict[object, float]]:
        """Per-facet normalised log-posteriors given *question*.

        Each facet value's log-posterior is its base term plus the log
        term of every question token in the vocabulary: one gathered
        column of the table per token, added in the order of the
        question's token set, so every sum is the scalar loop's float.
        """
        table = self._signature_table()
        columns = table.token_columns
        # Iterated as a set, so the order of the additions, and with it the
        # last bits of each sum, follows the string hash seed.
        tokens = [columns[t] for t in set(content_tokens(question)) if t in columns]
        logps = table.log_base.copy()
        for terms in table.log_terms[:, tokens].T:
            logps += terms
        values = logps.tolist()
        result: dict[str, dict[object, float]] = {}
        start = 0
        for facet, facet_values in table.facet_values:
            logp = values[start : start + len(facet_values)]
            start += len(facet_values)
            # Normalise within the facet.
            peak = max(logp)
            total = sum(math.exp(v - peak) for v in logp)
            log_norm = peak + math.log(total)
            result[facet] = {
                value: lp - log_norm for value, lp in zip(facet_values, logp)
            }
        return result

    def score_sketches(
        self, question: str, cues: CueEvidence | None = None
    ) -> list[tuple[float, Sketch]]:
        """Score every training signature, best first.

        When *cues* is given, surface-evidence agreement is blended into
        the NB posterior.

        A row's score adds its facet terms in ``FACET_NAMES`` order, then
        its prior, then its cue bonus: element-wise float64 adds in the
        order of a scalar loop, so each score is that loop's float.  Equal
        scores keep the table's order (a stable sort).
        """
        table = self._signature_table()
        posteriors = self.facet_log_posteriors(question)
        facet_posts = [posteriors.get(facet, {}) for facet in FACET_NAMES]
        terms = np.array(
            [
                0.15 * facet_posts[facet].get(value, -8.0)
                for facet, value in table.facet_keys
            ],
            dtype=np.float64,
        )
        scores = np.zeros(len(table.columns))
        for codes in table.facet_codes:
            scores += terms[codes]
        scores += table.prior
        if cues is not None:
            scores += cue_bonus(table.columns, cues)
        order = np.argsort(-scores, kind="stable")
        sketches = table.columns.sketches
        return [
            (score, sketches[row])
            for score, row in zip(scores[order].tolist(), order.tolist())
        ]
