"""FewShotLLM: the simulated LLM baseline (ChatGPT / GPT-4 stand-ins).

An LLM queried with few-shot prompts behaves differently from a fine-tuned
Seq2seq parser: it is *not* trained on the benchmark (retrieval over
demonstrations replaces fine-tuning), it predicts literal values well, its
outputs are diverse but drift from the benchmark's canonical SQL style
(semantically equivalent rewrites that fail exact-match), and it tends to
under-produce rare clause structures.  All four properties are modelled
here:

- sketch proposals come from k-NN retrieval over the demonstration pool,
  with a bias toward simplified structures (``simplify_bias``);
- decoded candidates are augmented with semantically-equivalent *style
  variants* (``style_shift``): ``BETWEEN`` -> two comparisons,
  ``count(*)`` -> ``count(pk)``, ``ORDER BY c LIMIT 1`` -> ``max(c)`` —
  execution-equivalent on our databases but exact-match-different, which
  reproduces the paper's EX > EM gap for LLMs;
- metadata arrives through the prompt (Table 3), so conditioning needs no
  fine-tuning: ``metadata_trained`` is always True.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro.data.dataset import Dataset, Example
from repro.models.base import Candidate
from repro.models.cues import cue_bonus
from repro.models.seq2seq import GrammarSeq2Seq, ModelProfile, estimate_rating
from repro.models.sketch import Sketch, SketchColumns, extract_sketch
from repro.nn.text import TextFeaturizer
from repro.schema.database import Database
from repro.sqlkit.ast import (
    AggExpr,
    ColumnRef,
    Condition,
    Literal,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
)
from repro.sqlkit.errors import SqlError
from repro.sqlkit.printer import to_sql


@dataclass(frozen=True)
class LLMProfile(ModelProfile):
    """LLM-specific knobs on top of the shared decode profile."""

    n_demonstrations: int = 9
    style_shift: float = 0.3  # probability a candidate is style-rewritten
    simplify_bias: float = 0.2  # bonus mass on simplified sketch proposals


class _DemoTable(NamedTuple):
    """Every sketch a demonstration proposes, as columns.

    ``rows`` maps each pool example, by identity (``retrieve`` returns the
    pool's own objects), to the rows of its sketch and of its simplified
    sketch.
    """

    columns: SketchColumns
    rows: dict[int, tuple[int, int]]


class FewShotLLM(GrammarSeq2Seq):
    """Retrieval-prompted translator; no benchmark fine-tuning."""

    def __init__(self, profile: LLMProfile) -> None:
        super().__init__(profile)
        self.llm_profile = profile
        self.metadata_trained = True  # prompts carry metadata (Table 3)
        self._pool: list[Example] = []
        self._pool_matrix: np.ndarray | None = None
        self._featurizer = TextFeaturizer(buckets=1024)
        self._demo_table: _DemoTable | None = None

    # ------------------------------------------------------------------
    # "Training" = demonstration indexing.

    def fit(self, train: Dataset, with_metadata: bool = False) -> "FewShotLLM":
        """Index the demonstration pool (LLMs are not fine-tuned)."""
        super().fit(train, with_metadata=True)
        self.metadata_trained = True
        self._pool = list(train.examples)
        questions = [e.question for e in self._pool]
        self._featurizer.fit(questions)
        self._pool_matrix = self._featurizer.transform_many(questions)
        self._demo_table = None
        return self

    def retrieve(self, question: str, k: int | None = None) -> list[Example]:
        """k-NN demonstrations for the prompt."""
        if self._pool_matrix is None:
            raise RuntimeError("FewShotLLM is not fitted")
        k = k or self.llm_profile.n_demonstrations
        query_vec = self._featurizer.transform(question)
        similarities = self._pool_matrix @ query_vec
        order = np.argsort(-similarities)[:k]
        return [self._pool[int(i)] for i in order]

    # ------------------------------------------------------------------
    # Sketch proposals from retrieval instead of the NB classifier.

    def _demo_sketches(self) -> _DemoTable:
        """The pool's sketch table, built on first use and dropped by ``fit``
        (:mod:`repro.core.persist` restores the pool without calling it)."""
        if self._demo_table is None:
            index: dict[Sketch, int] = {}
            rows = {}
            for demo in self._pool:
                sketch = extract_sketch(demo.sql)
                rows[id(demo)] = tuple(
                    index.setdefault(s, len(index))
                    for s in (sketch, _simplify_sketch(sketch))
                )
            self._demo_table = _DemoTable(SketchColumns(list(index)), rows)
        return self._demo_table

    def _question_sketches(self, question: str, cues):
        """Retrieved demonstrations' sketches, weighted by rank and cues."""
        demos = self.retrieve(question)
        table = self._demo_sketches()
        weights: dict[int, float] = {}
        for rank, demo in enumerate(demos):
            row, simplified = table.rows[id(demo)]
            weights[row] = weights.get(row, 0.0) + 1.0 / (rank + 1.0)
            if simplified != row:
                weights[simplified] = (
                    weights.get(simplified, 0.0)
                    + self.llm_profile.simplify_bias / (rank + 1.0)
                )
        bonus = cue_bonus(table.columns, cues).tolist()
        sketches = table.columns.sketches
        return sorted(
            (
                (float(np.log(w + 1e-9)) + 0.6 * bonus[row], sketches[row])
                for row, w in weights.items()
            ),
            key=lambda item: -item[0],
        )

    def _candidate_sketches(self, prepared, metadata):
        scored = prepared.sketches
        if metadata is not None:
            tags = frozenset(getattr(metadata, "tags", frozenset()))
            if tags:
                # The prompt states the allowed keywords: the LLM reliably
                # honours them, falling back to the classifier signatures
                # when no retrieved sketch matches.
                matching = prepared.sketches_tagged(tags)
                if not matching:
                    matching = [
                        (0.0, sk)
                        for sk in self.sketch_model.signatures
                        if sk.operator_tags() == tags
                    ]
                if matching:
                    scored = matching
            rating = getattr(metadata, "rating", None)
            if rating is not None:
                scored = [
                    (s - abs(estimate_rating(sk) - rating) / 300.0, sk)
                    for s, sk in scored
                ]
                scored.sort(key=lambda item: -item[0])
        return list(scored[: self.profile.sketch_top])

    # ------------------------------------------------------------------
    # Decoding with style variants.

    def translate(
        self,
        question: str,
        db: Database,
        metadata=None,
        beam_size: int = 5,
        prepared=None,
    ) -> list[Candidate]:
        """Decode candidates and append execution-equivalent style variants."""
        base = super().translate(
            question, db, metadata=metadata, beam_size=beam_size,
            prepared=prepared,
        )
        rng = self._decode_rng(question, metadata)
        augmented: list[Candidate] = []
        seen: set[str] = set()
        for candidate in base:
            variant = _style_variant(candidate.query, db, rng)
            shifted = (
                variant is not None
                and rng.random() < self.llm_profile.style_shift
            )
            ordered = (
                [(variant, candidate.score + 0.01), (candidate.query, candidate.score)]
                if shifted
                else [(candidate.query, candidate.score)]
                + ([(variant, candidate.score - 0.5)] if variant is not None else [])
            )
            for query, score in ordered:
                key = to_sql(query)
                if key in seen:
                    continue
                seen.add(key)
                augmented.append(Candidate(query=query, score=score))
        augmented.sort(key=lambda c: -c.score)
        return augmented[: max(beam_size, len(base))]


# ----------------------------------------------------------------------
# Style rewrites: execution-equivalent, exact-match-different.


def _simplify_sketch(sketch: Sketch) -> Sketch:
    """Drop the least salient clause (LLMs under-produce rare structure)."""
    if sketch.shape.startswith("setop:") or sketch.shape.startswith("nested:"):
        return replace(sketch, shape="plain", n_predicates=max(sketch.n_predicates, 1), predicate_kinds=sketch.predicate_kinds or ("eq",))
    if sketch.has_having:
        return replace(sketch, has_having=False)
    if sketch.order != "none" and sketch.limit == "none":
        return replace(sketch, order="none", order_on_agg=False)
    if sketch.n_predicates > 1:
        return replace(
            sketch,
            n_predicates=1,
            predicate_kinds=sketch.predicate_kinds[:1],
        )
    return sketch


def _style_variant(query: Query, db: Database, rng: np.random.Generator) -> Query | None:
    """One semantically-equivalent rewrite of *query*, or None."""
    if isinstance(query, SetQuery):
        return None
    rewrites = []
    if _can_rewrite_between(query):
        rewrites.append(_rewrite_between)
    if _can_rewrite_count_star(query, db):
        rewrites.append(_rewrite_count_star)
    if _can_rewrite_superlative(query):
        rewrites.append(_rewrite_superlative)
    if _can_rewrite_int_cmp(query, db):
        rewrites.append(_rewrite_int_cmp)
    if not rewrites:
        return None
    rewrite = rewrites[int(rng.integers(len(rewrites)))]
    return rewrite(query, db)


def _can_rewrite_between(query: SelectQuery) -> bool:
    return query.where is not None and any(
        p.op == "between" for p in query.where.predicates
    )


def _rewrite_between(query: SelectQuery, db: Database) -> Query:
    predicates: list[Predicate] = []
    connectors: list[str] = []
    where = query.where
    assert where is not None
    for index, predicate in enumerate(where.predicates):
        if index > 0:
            connectors.append(where.connectors[index - 1])
        if predicate.op == "between" and predicate.right2 is not None:
            predicates.append(
                Predicate(left=predicate.left, op=">=", right=predicate.right)
            )
            connectors.append("and")
            predicates.append(
                Predicate(left=predicate.left, op="<=", right=predicate.right2)
            )
        else:
            predicates.append(predicate)
    return replace(
        query,
        where=Condition(
            predicates=tuple(predicates), connectors=tuple(connectors)
        ),
    )


def _can_rewrite_count_star(query: SelectQuery, db: Database) -> bool:
    has_count_star = any(
        isinstance(e, AggExpr) and isinstance(e.arg, Star)
        for e in query.select
    )
    return has_count_star and bool(query.from_.tables)


def _rewrite_count_star(query: SelectQuery, db: Database) -> Query:
    table = db.schema.table(query.from_.tables[0])
    column = table.columns[0]
    new_select = tuple(
        AggExpr(
            func="count",
            arg=ColumnRef(column=column.name.lower(), table=table.name.lower()),
        )
        if isinstance(e, AggExpr) and isinstance(e.arg, Star)
        else e
        for e in query.select
    )
    return replace(query, select=new_select)


def _int_cmp_targets(query: SelectQuery, db: Database) -> list[int]:
    """Indices of WHERE predicates rewritable as off-by-one comparisons.

    ``x >= 5`` equals ``x > 4`` (and ``<= 5`` equals ``< 6``) whenever the
    column holds integers only.
    """
    if query.where is None:
        return []
    targets = []
    for index, predicate in enumerate(query.where.predicates):
        if predicate.op not in (">=", "<="):
            continue
        if not isinstance(predicate.right, Literal):
            continue
        if not isinstance(predicate.right.value, int):
            continue
        left = predicate.left
        if not isinstance(left, ColumnRef) or left.table is None:
            continue
        try:
            values = db.column_values(left.table, left.column)
        except SqlError:  # unknown table/column: not rewritable, skip
            continue
        if values and all(isinstance(v, int) for v in values):
            targets.append(index)
    return targets


def _can_rewrite_int_cmp(query: SelectQuery, db: Database) -> bool:
    return bool(_int_cmp_targets(query, db))


def _rewrite_int_cmp(query: SelectQuery, db: Database) -> Query:
    targets = set(_int_cmp_targets(query, db))
    where = query.where
    assert where is not None
    predicates = []
    for index, predicate in enumerate(where.predicates):
        if index in targets:
            literal = predicate.right
            assert isinstance(literal, Literal)
            if predicate.op == ">=":
                predicates.append(
                    replace(
                        predicate, op=">", right=Literal(literal.value - 1)
                    )
                )
            else:
                predicates.append(
                    replace(
                        predicate, op="<", right=Literal(literal.value + 1)
                    )
                )
        else:
            predicates.append(predicate)
    return replace(
        query,
        where=Condition(
            predicates=tuple(predicates), connectors=where.connectors
        ),
    )


def _can_rewrite_superlative(query: SelectQuery) -> bool:
    return (
        query.limit == 1
        and len(query.order_by) == 1
        and len(query.select) == 1
        and isinstance(query.select[0], ColumnRef)
        and isinstance(query.order_by[0].expr, ColumnRef)
        and query.select[0] == query.order_by[0].expr
        and not query.group_by
        and query.where is None
    )


def _rewrite_superlative(query: SelectQuery, db: Database) -> Query:
    func = "max" if query.order_by[0].desc else "min"
    return replace(
        query,
        select=(AggExpr(func=func, arg=query.select[0]),),
        order_by=(),
        limit=None,
    )
