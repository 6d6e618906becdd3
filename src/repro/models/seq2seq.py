"""GrammarSeq2Seq: the simulated Seq2seq NL2SQL translation model.

A sketch-then-fill semantic parser with genuinely auto-regressive decoding:
a learned sketch classifier proposes clause structures, then beam search
fills tables, columns, predicates and values left-to-right, scored by the
learned lexicon plus per-question deterministic decision noise.  Four
presets (:mod:`repro.models.registry`) mirror BRIDGE/GAP/LGESQL/RESDSQL
capability profiles.

Metadata conditioning (Section III-B2): when the model was trained with
metadata prefixes (``metadata_trained``), a supplied
:class:`~repro.core.metadata.QueryMetadata` constrains the sketch stage —
operator tags select compatible structures, the hardness value biases the
structural size, and the correctness indicator modulates decode fidelity.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro.data.dataset import Dataset
from repro.models import beam as beamlib
from repro.models.base import Candidate, TranslationModel
from repro.models.cues import CueEvidence
from repro.models.lexicon import Lexicon, content_tokens
from repro.models.mentions import (
    NumberMention,
    extract_mentions,
    question_tokens,
)
from repro.models.sketch import Sketch, SketchModel
from repro.schema.database import Database
from repro.schema.schema import NUMBER, TEXT, Schema
from repro.sqlkit.ast import (
    PLACEHOLDER,
    AggExpr,
    Arith,
    ColumnRef,
    Condition,
    FromClause,
    JoinCond,
    Literal,
    OrderItem,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
)
from repro.sqlkit.hardness import RATING_BASE, RATING_SCORES
from repro.sqlkit.printer import to_sql

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")

#: Operator tags a metadata filter may relax when no sketch matches exactly.
_SOFT_TAGS = frozenset({"agg", "limit", "having"})

#: ``COUNT(*)``; the AST is immutable, so every decode shares it.
_COUNT_STAR = AggExpr(func="count", arg=Star())

#: Sort key of ``(score, ...)`` choices.  ``sort(key=_by_score,
#: reverse=True)`` is stable, so equal scores keep their order, as they do
#: under ``key=lambda item: -item[0]``.
_by_score = itemgetter(0)


@dataclass(frozen=True)
class ModelProfile:
    """Capability knobs distinguishing the simulated baselines."""

    name: str
    temperature: float = 0.7  # scale of per-decision Gumbel noise
    sketch_top: int = 4  # how many sketch structures enter the beam
    column_noise: float = 0.4  # extra noise on column-choice scores
    value_skill: float = 1.0  # weight on value-evidence in predicate scores
    predicts_values: bool = True
    seed: int = 0


class _State(NamedTuple):
    """Partial decode state for one sketch (stages derive it by ``_replace``)."""

    sketch: Sketch
    tables: tuple[str, ...] = ()
    joins: tuple[JoinCond, ...] = ()
    select: tuple = ()
    where_predicates: tuple[Predicate, ...] = ()
    connectors: tuple[str, ...] = ()
    group_by: tuple[ColumnRef, ...] = ()
    having: Condition | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    setop_right: Query | None = None
    from_inner: Query | None = None


def estimate_rating(sketch: Sketch) -> int:
    """Approximate hardness rating implied by a sketch's structure."""
    rating = RATING_BASE
    if sketch.n_tables > 1:
        rating += RATING_SCORES["join"] * (sketch.n_tables - 1)
    if sketch.n_predicates > 0:
        rating += RATING_SCORES["where"]
        rating += RATING_SCORES["extra_predicate"] * (sketch.n_predicates - 1)
    if sketch.shape.startswith("nested:"):
        rating += RATING_SCORES["subquery"] + RATING_SCORES["where"]
    if sketch.shape == "from_subquery":
        rating += RATING_SCORES["subquery"] + RATING_SCORES["group"]
        rating += RATING_SCORES["having"]
    if sketch.shape.startswith("setop:"):
        rating += RATING_SCORES["setop"] + RATING_SCORES["where"]
    if sketch.has_group:
        rating += RATING_SCORES["group"]
    if sketch.has_having:
        rating += RATING_SCORES["having"]
    if sketch.order != "none":
        rating += RATING_SCORES["order"]
    if sketch.limit != "none":
        rating += RATING_SCORES["limit"]
    n_aggs = len(sketch.select_aggs) + (1 if sketch.count_star else 0)
    if sketch.order_on_agg:
        n_aggs += 1
    if n_aggs > 1:
        rating += RATING_SCORES["agg"] * (n_aggs - 1)
    return rating


class GrammarSeq2Seq(TranslationModel):
    """Sketch-then-fill grammar parser with beam-search decoding."""

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self.name = profile.name
        self.predicts_values = profile.predicts_values
        self.metadata_trained = False
        self.lexicon = Lexicon()
        self.sketch_model = SketchModel()
        self._fitted = False

    # ------------------------------------------------------------------
    # Training.

    def fit(self, train: Dataset, with_metadata: bool = False) -> "GrammarSeq2Seq":
        """Learn lexicon + sketch statistics; optionally metadata-augmented.

        ``with_metadata=True`` corresponds to the paper's augmented training
        (metadata prefixes + negative samples): the model then honours
        metadata conditions at decode time.
        """
        self.lexicon = Lexicon().fit(train)
        self.sketch_model = SketchModel().fit(train)
        self.metadata_trained = with_metadata
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Decoding entry point.

    def prepare(
        self, question: str, db: Database, cues: CueEvidence | None = None
    ) -> "QuestionContext":
        """The decode work shared by every conditioning of *question*.

        *cues* is the question's cue evidence when the caller already
        extracted it; otherwise it is extracted here.
        """
        if not self._fitted:
            raise RuntimeError(f"model {self.name} is not fitted")
        if cues is None:
            from repro.models.cues import extract_cues

            cues = extract_cues(question, db)
        return QuestionContext(
            self, question, db, cues, self._question_sketches(question, cues)
        )

    def translate(
        self,
        question: str,
        db: Database,
        metadata=None,
        beam_size: int = 5,
        prepared: "QuestionContext | None" = None,
    ) -> list[Candidate]:
        """Decode up to *beam_size* candidates via staged beam search."""
        if not self._fitted:
            raise RuntimeError(f"model {self.name} is not fitted")
        if prepared is None:
            prepared = self.prepare(question, db)
        elif prepared.question != question or prepared.db is not db:
            raise ValueError("prepared context belongs to another question or db")
        if not self.metadata_trained:
            # Models not trained with metadata prefixes ignore the condition
            # entirely (Section III-B1).
            metadata = None
        rng = self._decode_rng(question, metadata)
        noise_scale = self.profile.temperature
        if metadata is not None and self.metadata_trained:
            indicator = getattr(metadata, "correctness", "correct")
            if indicator == "incorrect":
                # Trained to avoid the gold parse under the incorrect tag:
                # decoding becomes adversarially noisy.
                noise_scale = noise_scale * 3.0 + 1.5
            elif indicator is None or indicator == "none":
                noise_scale = noise_scale * 1.4 + 0.2

        sketches = self._candidate_sketches(prepared, metadata)
        if not sketches:
            return []

        context = _Context(prepared, rng=rng, noise=noise_scale)
        initial = [
            beamlib.Beam(score=score, state=_State(sketch=sk))
            for score, sk in sketches
        ]
        stages = [
            context.stage_tables,
            context.stage_select,
            context.stage_where,
            context.stage_group,
            context.stage_having,
            context.stage_order,
            context.stage_setop,
        ]
        width = max(beam_size * 3, 8)
        final = beamlib.run(initial, stages, width)

        candidates: list[Candidate] = []
        seen: set[str] = set()
        for item in final:
            query = context.finalize(item.state)
            if query is None:
                continue
            key = to_sql(query)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(Candidate(query=query, score=item.score))
            if len(candidates) >= beam_size:
                break
        return candidates

    # ------------------------------------------------------------------
    # Sketch stage.

    def _question_sketches(
        self, question: str, cues
    ) -> list[tuple[float, Sketch]]:
        """Every sketch scored for *question*, best first, before metadata."""
        return self.sketch_model.score_sketches(question, cues=cues)

    def _candidate_sketches(
        self, prepared: "QuestionContext", metadata
    ) -> list[tuple[float, Sketch]]:
        """The question's sketches filtered and re-weighted by *metadata*."""
        question = prepared.question
        scored = prepared.sketches
        if metadata is not None and self.metadata_trained:
            tags = frozenset(getattr(metadata, "tags", frozenset()))
            if tags:
                matching = prepared.sketches_tagged(tags)
                if not matching:
                    # Relax to supersets/subsets differing by soft tags only.
                    matching = prepared.sketches_tagged(tags, ignore=_SOFT_TAGS)
                if matching:
                    scored = matching
            rating = getattr(metadata, "rating", None)
            if rating is not None:
                scored = [
                    (score - abs(estimate_rating(sk) - rating) / 200.0, sk)
                    for score, sk in scored
                ]
                scored.sort(key=lambda item: -item[0])
            scored = self._apply_correctness(question, metadata, scored)
        return list(scored[: self.profile.sketch_top])

    def _apply_correctness(self, question, metadata, scored):
        """Honour the correctness indicator at the sketch stage.

        Trained with ``incorrect``-tagged negative samples, the model has
        learned to associate that indicator with structures that do *not*
        fit the question: conditioning on it inverts the sketch preference.
        A missing indicator (never seen during augmented training) leaves
        the model partially uncalibrated: sketch scores get jittered.
        """
        indicator = getattr(metadata, "correctness", "correct")
        if indicator == "incorrect":
            flipped = [(-score, sketch) for score, sketch in scored]
            flipped.sort(key=lambda item: -item[0])
            return flipped
        if indicator is None or indicator == "none":
            rng = self._decode_rng(question, metadata)
            jittered = [
                (score + float(rng.normal(0.0, 2.5)), sketch)
                for score, sketch in scored
            ]
            jittered.sort(key=lambda item: -item[0])
            return jittered
        return scored

    def _decode_rng(self, question: str, metadata) -> np.random.Generator:
        meta_part = "" if metadata is None else repr(metadata)
        digest = zlib.crc32(
            f"{self.profile.seed}:{self.name}:{question}:{meta_part}".encode()
        )
        return np.random.default_rng(digest)


class _Column(NamedTuple):
    """One column of a question's tables with the facts a decode reads."""

    score: float  # noise-free lexicon score
    ref: ColumnRef
    key: str  # ``ref.key()``
    ctype: str
    region: float  # SELECT-region bonus
    penalty: float  # key-column penalty


class _JoinOption(NamedTuple):
    """FK-linked tables a join sketch may read from."""

    bases: tuple[float, ...]  # each table's noise-free score
    tables: tuple[str, ...]
    joins: tuple[JoinCond, ...]


class QuestionContext:
    """Decode state that depends only on ``(question, db)``.

    Built once per question by :meth:`GrammarSeq2Seq.prepare` and shared by
    every decode of that question, one per metadata condition.  It holds
    the cue evidence, the scored sketch list (a tuple, so no decode can
    reorder it), the question's tokens, mentions and regions.

    Its tables are filled on first use, so a stage call only draws noise,
    sorts and combines:

    - table scores, and the table options of single-table, FK-pair and
      FK-chain sketches with their join conditions;
    - the ``_Column`` entries of each ``(tables, ctype)``: base score, ref,
      key string, SELECT region bonus and key penalty;
    - by key string: the ``AggExpr`` of each ``(func, key)``, the text
      predicate with its value evidence of each ``(key, kind)`` and the
      number predicate with its proximity of each ``(key, mention index,
      op)``;
    - the sketches grouped by operator tags.

    Metadata only filters and re-weights these.  The per-decision Gumbel
    draws stay with each decode's own ``_Context``, seeded per ``(question,
    metadata)``.  The context is request-local: nothing keeps it after the
    decodes it was built for.
    """

    def __init__(
        self,
        model: GrammarSeq2Seq,
        question: str,
        db: Database,
        cues,
        sketches: list[tuple[float, Sketch]],
    ) -> None:
        self.model = model
        self.question = question
        self.db = db
        self.cues = cues
        self.sketches = tuple(sketches)
        self.tokens = set(content_tokens(question))
        self.qtokens = question_tokens(question)
        self.mentions = extract_mentions(question)
        #: indices into ``mentions`` of those usable as WHERE comparison values.
        self.cmp_indices = [
            index
            for index, m in enumerate(self.mentions)
            if not (m.is_limit or m.is_count_threshold or m.is_between_bound)
        ]
        bounds = [
            index for index, m in enumerate(self.mentions) if m.is_between_bound
        ]
        #: index of the first BETWEEN bound, when the question has two.
        self.between_index = bounds[0] if len(bounds) >= 2 else None
        #: the BETWEEN literals, low first.
        self.between_values = (
            sorted(self.mentions[i].value for i in bounds[:2])
            if self.between_index is not None
            else None
        )
        #: question positions mentioning each column, by ``ColumnRef.key()``.
        self.phrase_positions: dict[str, list[int]] = {}
        # Question regions: projections are phrased before the first
        # table/filter marker, grouping after "for each"/"per", ordering
        # after sort/superlative markers.
        markers = {
            "of", "from", "for", "whose", "with", "that", "who", "which",
            "sorted", "ordered", "per", "grouped", "but", "excluding",
        }
        self.proj_end = next(
            (i for i, t in enumerate(self.qtokens) if t in markers and i > 0),
            len(self.qtokens),
        )
        self.group_pos = self.find_marker(("each", "per", "grouped"))
        self.order_pos = self.find_marker(
            ("sorted", "ordered", "highest", "lowest", "largest",
             "smallest", "top")
        )
        self._table_scores: dict[str, float] = {}
        self._single_tables: list[tuple[float, str]] | None = None
        self._join_options: dict[bool, list[_JoinOption]] = {}
        self._table_columns: dict[str, list[_Column]] = {}
        self._columns: dict[tuple, list[_Column]] = {}
        self._agg_exprs: dict[tuple[str, str], AggExpr] = {}
        self._spread_exprs: dict[str, Arith] = {}
        self._text_values: dict[ColumnRef, tuple[str, float] | None] = {}
        self._text_predicates: dict[tuple[str, str], tuple | None] = {}
        self._number_predicates: dict[tuple, tuple] = {}
        self._tag_groups: dict[frozenset[str], dict] = {}

    def sketches_tagged(
        self, tags: frozenset[str], ignore: frozenset[str] = frozenset()
    ) -> tuple[tuple[float, Sketch], ...]:
        """The scored sketches whose operator tags equal *tags*, both less
        *ignore*, best first.  The sketches are grouped by tags once per
        *ignore*, not filtered again for every decode."""
        groups = self._tag_groups.get(ignore)
        if groups is None:
            grouped: dict[frozenset[str], list] = {}
            for item in self.sketches:
                key = item[1].operator_tags() - ignore
                grouped.setdefault(key, []).append(item)
            groups = {key: tuple(items) for key, items in grouped.items()}
            self._tag_groups[ignore] = groups
        return groups.get(tags - ignore, ())

    def find_marker(self, words: tuple[str, ...]) -> int | None:
        """Position of the first question token in *words*, or None."""
        for index, token in enumerate(self.qtokens):
            if token in words:
                return index
        return None

    def table_score(self, table_name: str) -> float:
        """Noise-free lexicon score of one table."""
        score = self._table_scores.get(table_name)
        if score is None:
            schema = self.db.schema
            score = self.model.lexicon.score_table(
                self.question, schema.db_id, schema.table(table_name)
            )
            self._table_scores[table_name] = score
        return score

    def single_tables(self) -> list[tuple[float, str]]:
        """``(base score, lowercased name)`` of every table, schema order."""
        if self._single_tables is None:
            self._single_tables = [
                (self.table_score(t.name), t.name.lower())
                for t in self.db.schema.tables
            ]
        return self._single_tables

    def join_options(self, chain: bool) -> list[_JoinOption]:
        """Every FK-linked table pair, or with *chain* every three-table
        chain of two FKs, in the order a join stage draws their noise."""
        options = self._join_options.get(chain)
        if options is not None:
            return options
        fks = self.db.schema.foreign_keys
        joins = {id(fk): _fk_join(fk) for fk in fks}
        options = []
        if chain:
            for fk1 in fks:
                for fk2 in fks:
                    if fk1 is fk2:
                        continue
                    tables: list[str] = []
                    for name in (
                        fk1.child_table, fk1.parent_table,
                        fk2.child_table, fk2.parent_table,
                    ):
                        if name.lower() not in tables:
                            tables.append(name.lower())
                    if len(tables) != 3:
                        continue
                    options.append(
                        _JoinOption(
                            tuple(self.table_score(t) for t in tables),
                            tuple(tables),
                            (joins[id(fk1)], joins[id(fk2)]),
                        )
                    )
        else:
            for fk in fks:
                child = fk.child_table.lower()
                parent = fk.parent_table.lower()
                options.append(
                    _JoinOption(
                        (self.table_score(child), self.table_score(parent)),
                        (child, parent),
                        (joins[id(fk)],),
                    )
                )
        self._join_options[chain] = options
        return options

    def column_score(self, table_name: str, column_name: str) -> float:
        """Noise-free lexicon score of one column."""
        schema = self.db.schema
        return self.model.lexicon.score_column(
            self.question, schema.db_id, schema.table(table_name), column_name
        )

    def columns(
        self, tables: tuple[str, ...], ctype: str | None = None
    ) -> list[_Column]:
        """The ``_Column`` of every column of *tables*, in schema order,
        restricted to *ctype* when given."""
        key = (tables, ctype)
        columns = self._columns.get(key)
        if columns is None:
            columns = [
                column
                for table_name in tables
                for column in self._columns_of(table_name)
                if ctype is None or column.ctype == ctype
            ]
            self._columns[key] = columns
        return columns

    def _columns_of(self, table_name: str) -> list[_Column]:
        columns = self._table_columns.get(table_name)
        if columns is None:
            columns = []
            for column in self.db.schema.table(table_name).columns:
                ref = ColumnRef(
                    column=column.name.lower(), table=table_name.lower()
                )
                columns.append(
                    _Column(
                        self.column_score(table_name, column.name),
                        ref,
                        ref.key(),
                        column.ctype,
                        self.region_bonus(ref, 0, self.proj_end),
                        self.key_penalty(ref),
                    )
                )
            self._table_columns[table_name] = columns
        return columns

    def agg_expr(self, func: str, column: _Column) -> AggExpr:
        """``func(column)``, one object per request."""
        key = (func, column.key)
        expr = self._agg_exprs.get(key)
        if expr is None:
            expr = self._agg_exprs[key] = AggExpr(func=func, arg=column.ref)
        return expr

    def spread_expr(self, column: _Column) -> Arith:
        """``max(column) - min(column)``, one object per request."""
        expr = self._spread_exprs.get(column.key)
        if expr is None:
            expr = self._spread_exprs[column.key] = Arith(
                op="-",
                left=self.agg_expr("max", column),
                right=self.agg_expr("min", column),
            )
        return expr

    def text_value(self, ref: ColumnRef) -> tuple[str, float] | None:
        """The column's stored value best covered by the question, with its
        noise-free evidence; None when no value shares a token."""
        if ref in self._text_values:
            return self._text_values[ref]
        best_value, best_hit = None, 0.0
        seen_values = set()
        for value in self.db.column_values(ref.table, ref.column):
            if not isinstance(value, str) or value in seen_values:
                continue
            seen_values.add(value)
            value_tokens = set(re.findall(r"[a-z0-9]+", value.lower()))
            if not value_tokens:
                continue
            hit = len(value_tokens & self.tokens) / len(value_tokens)
            if hit > best_hit:
                best_hit, best_value = hit, value
        found = None
        if best_value is not None:
            evidence = self.model.profile.value_skill * 2.5 * best_hit
            evidence += self.value_proximity(ref, best_value)
            found = (best_value, evidence)
        self._text_values[ref] = found
        return found

    def text_predicate(
        self, column: _Column, kind: str
    ) -> tuple[Predicate, float, tuple[str, str]] | None:
        """The ``eq``/``neq``/``like`` predicate on the column's best value,
        its evidence and its ``(key, op)`` slot; None when the column has
        no such value."""
        key = (column.key, kind)
        if key in self._text_predicates:
            return self._text_predicates[key]
        found = self.text_value(column.ref)
        entry = None
        if found is not None:
            best_value, evidence = found
            if kind == "like":
                token = best_value.split()[0]
                right = Literal(f"%{token}%")
                op = "like"
            else:
                right = Literal(best_value)
                op = "=" if kind == "eq" else "!="
            entry = (
                Predicate(left=column.ref, op=op, right=right),
                evidence,
                (column.key, op),
            )
        self._text_predicates[key] = entry
        return entry

    def number_predicate(
        self, column: _Column, index: int, op: str
    ) -> tuple[float, Predicate, tuple[str, str]]:
        """The column's proximity to mention *index*, the predicate
        comparing it by *op* (``between`` spans both BETWEEN bounds) and
        its ``(key, op)`` slot."""
        key = (column.key, index, op)
        entry = self._number_predicates.get(key)
        if entry is None:
            mention = self.mentions[index]
            if op == "between":
                low, high = self.between_values
                predicate = Predicate(
                    left=column.ref,
                    op="between",
                    right=Literal(low),
                    right2=Literal(high),
                )
            else:
                predicate = Predicate(
                    left=column.ref, op=op, right=Literal(mention.value)
                )
            entry = (
                self.proximity(column.ref, mention),
                predicate,
                (column.key, op),
            )
            self._number_predicates[key] = entry
        return entry

    # -- column mention evidence -----------------------------------------

    def column_positions(self, ref: ColumnRef) -> list[int]:
        """Question positions where the column is mentioned.

        Contiguous full-phrase matches are preferred; otherwise tokens of
        the phrase that are *distinctive* (not part of the table's own
        phrase) are used, so "battle id" and "battle year" don't collide on
        the shared word "battle".
        """
        key = ref.key()
        if key in self.phrase_positions:
            return self.phrase_positions[key]
        schema = self.db.schema
        table = schema.table(ref.table) if ref.table else None
        phrases = [ref.column.replace("_", " ")]
        table_words: set[str] = set()
        if table is not None:
            table_words = set(question_tokens(table.nl)) | set(
                question_tokens(table.name.replace("_", " "))
            )
            if table.has_column(ref.column):
                column = table.column(ref.column)
                phrases.append(column.nl)
                phrases.extend(column.synonyms)
        exact: list[int] = []
        loose: list[int] = []
        for phrase in phrases:
            words = question_tokens(phrase)
            if not words:
                continue
            # Contiguous full-phrase match.
            for start in range(len(self.qtokens) - len(words) + 1):
                if self.qtokens[start : start + len(words)] == words:
                    exact.extend(range(start, start + len(words)))
            distinctive = [w for w in words if w not in table_words] or words
            loose.extend(
                i for i, t in enumerate(self.qtokens) if t in set(distinctive)
            )
        positions = sorted(set(exact)) if exact else sorted(set(loose))
        self.phrase_positions[key] = positions
        return positions

    def proximity(self, ref: ColumnRef, mention: NumberMention) -> float:
        """Affinity between a column mention and a number mention."""
        positions = self.column_positions(ref)
        if not positions:
            return 0.0
        distance = min(abs(p - mention.position) for p in positions)
        return max(0.0, 4.5 - 0.9 * distance)

    def value_proximity(self, ref: ColumnRef, value: str) -> float:
        """Affinity between a column mention and a literal value mention."""
        value_words = re.findall(r"[a-z0-9]+", value.lower())
        if not value_words:
            return 0.0
        value_positions = [
            i for i, t in enumerate(self.qtokens) if t == value_words[0]
        ]
        positions = self.column_positions(ref)
        if not value_positions or not positions:
            return 0.0
        distance = min(
            abs(p - v) for p in positions for v in value_positions
        )
        return max(0.0, 4.0 - 0.8 * distance)

    def region_bonus(
        self, ref: ColumnRef, start: int, end: int, weight: float = 3.0
    ) -> float:
        """Bipolar region evidence for a column mention.

        Mentioned inside the region: +weight.  Mentioned in the question but
        only *outside* the region (it plays some other role): -0.8*weight.
        Not mentioned at all: neutral.
        """
        positions = self.column_positions(ref)
        if not positions:
            return 0.0
        if any(start <= p < end for p in positions):
            return weight
        return -0.8 * weight

    def key_penalty(self, ref: ColumnRef) -> float:
        """Id/key columns are rarely projected or sorted on."""
        if ref.table is not None and self.db.schema.is_key_column(
            ref.table, ref.column
        ):
            return -3.0
        return 0.0

    def near_bonus(
        self, ref: ColumnRef, anchor: int | None, weight: float = 2.5
    ) -> float:
        """Bonus when the column is mentioned just after an anchor token."""
        if anchor is None:
            return 0.0
        positions = self.column_positions(ref)
        if not positions:
            return 0.0
        if any(anchor < p <= anchor + 6 for p in positions):
            return weight
        return 0.0


#: Gumbel draws made per ``rng.random`` call; a decode makes about 100.
_NOISE_BLOCK = 64


class _Context:
    """One decode of a prepared question: noise, stages and finalisation."""

    def __init__(
        self,
        prepared: QuestionContext,
        rng: np.random.Generator,
        noise: float,
    ) -> None:
        self.prepared = prepared
        self.profile = prepared.model.profile
        self.question = prepared.question
        self.schema: Schema = prepared.db.schema
        self.rng = rng
        self.noise = noise
        self.mentions = prepared.mentions
        self._group_pos = prepared.group_pos
        self._order_pos = prepared.order_pos
        self._raw: list[float] = []
        self._std: list[float] = []
        self._drawn = 0

    # -- noise ---------------------------------------------------------

    def _draw(self) -> int:
        """Index of the next raw double, drawing a new block when spent.

        ``rng.random(n)`` yields the doubles that *n* scalar draws would,
        so every decision sees the value it always did.  ``uniform(lo,
        hi)`` is ``lo + (hi - lo) * raw``; the standard Gumbel transform is
        applied to the whole block with ``np.log``, which matches the
        scalar calls bit for bit (``math.log`` does not).
        """
        if self._drawn == len(self._raw):
            self._refill()
        index = self._drawn
        self._drawn += 1
        return index

    def _refill(self) -> None:
        raw = self.rng.random(_NOISE_BLOCK)
        u = 1e-9 + ((1.0 - 1e-9) - 1e-9) * raw
        self._raw = raw.tolist()
        self._std = (-np.log(-np.log(u))).tolist()
        self._drawn = 0

    def _skip(self, n: int) -> None:
        """Advance the stream exactly as *n* calls to :meth:`_draw` would."""
        while n > 0:
            if self._drawn == len(self._raw):
                self._refill()
            step = min(n, len(self._raw) - self._drawn)
            self._drawn += step
            n -= step

    def _gumbel(self, scale: float = 1.0) -> float:
        index = self._draw()  # may replace the block: index it afterwards
        return self._std[index] * self.noise * scale

    def _gumbels(self, n: int, scale: float = 1.0) -> list[float]:
        """The next *n* draws, as *n* calls to :meth:`_gumbel` return them:
        sliced from the block, refilled only when a draw needs it."""
        noise = self.noise
        out: list[float] = []
        while n > 0:
            if self._drawn == len(self._raw):
                self._refill()
            start = self._drawn
            stop = min(start + n, len(self._std))
            out.extend([std * noise * scale for std in self._std[start:stop]])
            self._drawn = stop
            n -= stop - start
        return out

    def _random(self) -> float:
        """The next uniform double in ``[0, 1)``, from the same stream."""
        index = self._draw()
        return self._raw[index]

    # -- element scores --------------------------------------------------

    def _table_score(self, table_name: str) -> float:
        return self.prepared.table_score(table_name) + self._gumbel(0.6)

    def _ranked_columns(
        self, tables: tuple[str, ...], ctype: str | None = None
    ) -> list[tuple[float, _Column]]:
        """``(noisy score, column)`` best first: one draw per column."""
        columns = self.prepared.columns(tables, ctype)
        noise = self._gumbels(len(columns), self.profile.column_noise)
        scored = [
            (column.score + g, column) for column, g in zip(columns, noise)
        ]
        scored.sort(key=_by_score, reverse=True)
        return scored

    # -- stage 1: tables -------------------------------------------------

    def stage_tables(self, state: _State):
        """Stage 1: choose the FROM tables (single, FK pair, or chain)."""
        sketch = state.sketch
        choices = []
        if sketch.n_tables <= 1:
            tables = self.prepared.single_tables()
            noise = self._gumbels(len(tables), 0.6)
            scored = sorted(
                [(base + g, name) for (base, name), g in zip(tables, noise)],
                key=_by_score,
                reverse=True,
            )
            for score, name in scored[:3]:
                choices.append((score, state._replace(tables=(name,))))
            return beamlib.LogNormalized(choices)
        # Join: FK-linked pairs, or FK chains of three tables.
        chain = sketch.n_tables >= 3
        options = self.prepared.join_options(chain)
        noise = iter(self._gumbels(sum(len(o.bases) for o in options), 0.6))
        scored = []
        for bases, tables, joins in options:
            if chain:
                score = sum([base + next(noise) for base in bases])
            else:
                score = (bases[0] + next(noise)) + (bases[1] + next(noise))
            scored.append((score, tables, joins))
        scored.sort(key=_by_score, reverse=True)
        for score, tables, joins in scored[:4]:
            choices.append((score, state._replace(tables=tables, joins=joins)))
        return beamlib.LogNormalized(choices)

    # -- stage 2: select ---------------------------------------------------

    def stage_select(self, state: _State):
        """Stage 2: fill the SELECT slots dictated by the sketch."""
        sketch = state.sketch
        prepared = self.prepared
        slots: list[str] = []
        if sketch.count_star:
            slots.append("count_star")
        if sketch.has_arith:
            slots.append("arith")
        slots.extend(f"agg:{func}" for func in sketch.select_aggs)
        n_cols = max(sketch.n_select - len(slots), 0)
        slots.extend("col" for _ in range(n_cols))
        ranked_all = self._ranked_columns(state.tables)
        if sketch.has_arith or sketch.select_aggs:
            ranked_num = self._ranked_columns(state.tables, NUMBER)
        else:
            # No slot reads the NUMBER pool: spend its draws unranked.
            self._skip(len(prepared.columns(state.tables, NUMBER)))
            ranked_num = []
        # A projected column's score is the same in every combo: add its
        # bonuses once.  A col slot skips at most the earlier col slots'
        # columns, so it never reads past the first ``n_cols + 2``.
        col_pool = [
            (score + column.region + column.penalty, column.key, column.ref)
            for score, column in ranked_all[: n_cols + 2]
        ]
        # Each combo carries the keys of its projected columns.
        combos: list[tuple[float, tuple, tuple[str, ...]]] = [(0.0, (), ())]
        for slot in slots:
            expanded: list[tuple[float, tuple, tuple[str, ...]]] = []
            append = expanded.append
            if slot == "col":
                for combo_score, items, used in combos:
                    picked = 0
                    for score, key, ref in col_pool:
                        if key in used:
                            continue
                        append(
                            (combo_score + score, items + (ref,), used + (key,))
                        )
                        picked += 1
                        if picked >= 3:
                            break
                    if picked == 0:
                        append((combo_score - 2.0, items, used))
            elif slot == "count_star":
                for combo_score, items, used in combos:
                    append((combo_score, items + (_COUNT_STAR,), used))
            else:
                if slot == "arith":
                    picks = [
                        (score, prepared.spread_expr(column))
                        for score, column in ranked_num[:3]
                    ]
                else:
                    func = slot.split(":", 1)[1]
                    picks = [
                        (
                            score + column.region + column.penalty,
                            prepared.agg_expr(func, column),
                        )
                        for score, column in ranked_num[:3]
                    ]
                for combo_score, items, used in combos:
                    for score, expr in picks:
                        append((combo_score + score, items + (expr,), used))
                    if not picks:
                        append((combo_score - 2.0, items, used))
            expanded.sort(key=_by_score, reverse=True)
            combos = expanded[:6]
        choices = []
        for score, items, __ in combos:
            if not items:
                continue
            choices.append((score, state._replace(select=items)))
        return beamlib.LogNormalized(choices)

    # -- predicates --------------------------------------------------------

    def _predicate_candidates(
        self, tables: tuple[str, ...], kinds: tuple[str, ...]
    ) -> list[tuple[float, Predicate, tuple[str, str]]]:
        """Grounded ``(score, predicate, (key, op) slot)`` candidates over
        in-scope columns, best first."""
        candidates: list[tuple[float, Predicate, tuple[str, str]]] = []
        kind_pool = kinds if kinds else ("eq", "cmp")
        # Iterated as a set, so the draw order follows the hash seed
        # (ROADMAP item 2).
        for kind in set(kind_pool):
            if kind in ("eq", "neq", "like"):
                candidates.extend(self._text_predicates(tables, kind))
            elif kind in ("cmp", "between"):
                candidates.extend(self._number_predicates(tables, kind))
        candidates.sort(key=_by_score, reverse=True)
        return candidates

    def _text_predicates(self, tables, kind):
        found = []
        for score, column in self._ranked_columns(tables, TEXT)[:5]:
            entry = self.prepared.text_predicate(column, kind)
            if entry is not None:
                found.append((score, entry))
        noise = self._gumbels(len(found), 0.5)
        return [
            (score + evidence + g, predicate, slot)
            for (score, (predicate, evidence, slot)), g in zip(found, noise)
        ]

    def _number_predicates(self, tables, kind):
        prepared = self.prepared
        out = []
        ranked = self._ranked_columns(tables, NUMBER)[:5]
        if kind == "between":
            index = prepared.between_index
            if index is None:
                return out
            noise = self._gumbels(len(ranked), 0.5)
            for (score, column), g in zip(ranked, noise):
                affinity, predicate, slot = prepared.number_predicate(
                    column, index, "between"
                )
                out.append((score + affinity + 1.0 + g, predicate, slot))
            return out
        for index in prepared.cmp_indices:
            op = prepared.mentions[index].op
            if op == "=":
                # Numeric equality is rare; treat as a weak comparison guess.
                op = ">" if self._random() < 0.5 else "<"
            rows = [
                prepared.number_predicate(column, index, op)
                for __, column in ranked
            ]
            best_affinity = max((row[0] for row in rows), default=0.0)
            noise = self._gumbels(len(rows), 0.5)
            for (score, __), (affinity, predicate, slot), g in zip(
                ranked, rows, noise
            ):
                # The column mentioned closest to the number is almost
                # always the compared one; reward it ordinally.
                nearest = 3.0 if affinity == best_affinity and affinity > 0 else 0.0
                out.append(
                    (score + affinity + nearest + 0.8 + g, predicate, slot)
                )
        return out

    # -- stage 3: where (plain predicates + nested subqueries) -----------

    def stage_where(self, state: _State):
        """Stage 3: fill WHERE predicates or construct the nested subquery."""
        sketch = state.sketch
        if sketch.shape.startswith("nested:"):
            return self._stage_nested(state)
        if sketch.n_predicates == 0:
            return []
        kinds = sketch.predicate_kinds
        pool = self._predicate_candidates(state.tables, kinds)
        if not pool:
            return [(-3.0, state)]
        # Each combo carries the ``(key, op)`` slots of its predicates.
        combos: list[tuple[float, tuple[Predicate, ...], tuple]] = [
            (0.0, (), ())
        ]
        for __ in range(sketch.n_predicates):
            expanded = []
            append = expanded.append
            for combo_score, preds, used in combos:
                picked = 0
                for score, predicate, slot in pool:
                    if slot in used:
                        continue
                    append(
                        (combo_score + score, preds + (predicate,), used + (slot,))
                    )
                    picked += 1
                    if picked >= 3:
                        break
                if picked == 0:
                    append((combo_score, preds, used))
            expanded.sort(key=_by_score, reverse=True)
            combos = expanded[:5]
        connector = "or" if sketch.has_or else "and"
        choices = []
        for score, preds, __ in combos:
            if not preds:
                continue
            connectors = tuple(connector for __ in range(len(preds) - 1))
            choices.append(
                (
                    score,
                    state._replace(
                        where_predicates=preds, connectors=connectors
                    ),
                )
            )
        return beamlib.LogNormalized(choices)

    def _stage_nested(self, state: _State):
        sketch = state.sketch
        table = state.tables[0] if state.tables else None
        if table is None:
            return []
        if sketch.shape == "nested:scalar":
            anchor = self.prepared.find_marker(("average", "mean", "total"))
            choices = []
            for score, column in self._ranked_columns(state.tables, NUMBER)[:3]:
                ref = column.ref
                score = score + self.prepared.near_bonus(ref, anchor, weight=3.0)
                inner = SelectQuery(
                    select=(AggExpr(func="avg", arg=ref),),
                    from_=FromClause(tables=(ref.table,)),
                )
                direction_up = any(
                    w in self.question.lower() for w in ("above", "more", "greater", "over")
                )
                op = ">" if direction_up else "<"
                predicate = Predicate(left=ref, op=op, right=inner)
                choices.append(
                    (score, state._replace(where_predicates=(predicate,)))
                )
            return beamlib.LogNormalized(choices)
        # nested:in / nested:not_in over a foreign key.
        negated = sketch.shape == "nested:not_in"
        choices = []
        for fk in self.schema.foreign_keys:
            if fk.parent_table.lower() != table:
                continue
            child = fk.child_table.lower()
            link_score = self._table_score(child)
            inner_select = ColumnRef(
                column=fk.child_column.lower(), table=child
            )
            inner_pool = self._predicate_candidates((child,), ("eq", "cmp"))
            inner_options: list[tuple[float, Condition | None]] = [(0.0, None)]
            for score, predicate, __ in inner_pool[:2]:
                inner_options.append(
                    (score, Condition(predicates=(predicate,)))
                )
            for extra, inner_where in inner_options:
                inner = SelectQuery(
                    select=(inner_select,),
                    from_=FromClause(tables=(child,)),
                    where=inner_where,
                )
                predicate = Predicate(
                    left=ColumnRef(
                        column=fk.parent_column.lower(), table=table
                    ),
                    op="in",
                    right=inner,
                    negated=negated,
                )
                choices.append(
                    (
                        link_score + extra + self._gumbel(0.5),
                        state._replace(where_predicates=(predicate,)),
                    )
                )
        choices.sort(key=_by_score, reverse=True)
        return beamlib.LogNormalized(choices[:4])

    # -- stage 4/5: group + having ----------------------------------------

    def stage_group(self, state: _State):
        """Stage 4: choose the GROUP BY column."""
        if not state.sketch.has_group:
            return []
        choices = []
        for score, column in self._ranked_columns(state.tables, TEXT)[:3]:
            ref = column.ref
            score = score + self.prepared.near_bonus(ref, self._group_pos)
            choices.append((score, state._replace(group_by=(ref,))))
        if not choices:
            for score, column in self._ranked_columns(state.tables)[:2]:
                choices.append((score, state._replace(group_by=(column.ref,))))
        return beamlib.LogNormalized(choices)

    def _count_threshold(self) -> tuple[int, str]:
        """HAVING-count threshold and operator from the question."""
        for mention in self.mentions:
            if mention.is_count_threshold:
                op = ">=" if mention.op == ">=" else ">"
                return int(mention.value), op
        if self.mentions:
            mention = self.mentions[0]
            return int(mention.value), ">=" if mention.op == ">=" else ">"
        return 1, ">"

    def stage_having(self, state: _State):
        """Stage 5: build the HAVING count threshold."""
        if not state.sketch.has_having:
            return []
        threshold, op = self._count_threshold()
        having = Condition(
            predicates=(
                Predicate(
                    left=_COUNT_STAR,
                    op=op,
                    right=Literal(threshold),
                ),
            )
        )
        return [(0.0, state._replace(having=having))]

    # -- stage 6: order + limit ------------------------------------------

    def stage_order(self, state: _State):
        """Stage 6: choose the ORDER BY key, direction and LIMIT."""
        sketch = state.sketch
        if sketch.order == "none":
            return []
        desc = sketch.order == "desc"
        limit = None
        if sketch.limit == "one":
            limit = 1
        elif sketch.limit == "k":
            limits = [m for m in self.mentions if m.is_limit]
            if limits:
                limit = int(limits[0].value)
            else:
                ints = [
                    int(m.value)
                    for m in self.mentions
                    if float(m.value).is_integer()
                ]
                limit = ints[0] if ints else 3
        choices = []
        if sketch.order_on_agg:
            expr = _COUNT_STAR
            for existing in state.select:
                if isinstance(existing, AggExpr):
                    expr = existing
                    break
            choices.append(
                (
                    0.5,
                    state._replace(
                        order_by=(OrderItem(expr=expr, desc=desc),),
                        limit=limit,
                    ),
                )
            )
            return choices
        for score, column in self._ranked_columns(state.tables, NUMBER)[:3]:
            ref = column.ref
            score = (
                score
                + self.prepared.near_bonus(ref, self._order_pos)
                + column.penalty
            )
            choices.append(
                (
                    score,
                    state._replace(
                        order_by=(OrderItem(expr=ref, desc=desc),),
                        limit=limit,
                    ),
                )
            )
        return beamlib.LogNormalized(choices)

    # -- stage 7: set-operation right branch / FROM subquery ---------------

    def stage_setop(self, state: _State):
        """Stage 7: build the set-operation right branch or FROM subquery."""
        sketch = state.sketch
        if sketch.shape == "from_subquery":
            return self._stage_from_subquery(state)
        if not sketch.shape.startswith("setop:"):
            return []
        if not state.select or not state.tables:
            return []
        ref = None
        for expr in state.select:
            if isinstance(expr, ColumnRef):
                ref = expr
                break
        if ref is None:
            return []
        pool = self._predicate_candidates(state.tables, ("eq", "neq", "cmp"))
        choices = []
        for score, predicate, __ in pool[:3]:
            right = SelectQuery(
                select=(ref,),
                from_=FromClause(tables=state.tables, joins=state.joins),
                where=Condition(predicates=(predicate,)),
            )
            choices.append((score, state._replace(setop_right=right)))
        return beamlib.LogNormalized(choices)

    def _stage_from_subquery(self, state: _State):
        choices = []
        threshold, __ = self._count_threshold()
        for score, column in self._ranked_columns(state.tables, TEXT)[:3]:
            ref = column.ref
            inner = SelectQuery(
                select=(ref,),
                from_=FromClause(tables=(ref.table,)),
                group_by=(ref,),
                having=Condition(
                    predicates=(
                        Predicate(
                            left=_COUNT_STAR,
                            op=">",
                            right=Literal(threshold),
                        ),
                    )
                ),
            )
            choices.append((score, state._replace(from_inner=inner)))
        return beamlib.LogNormalized(choices)

    # -- finalisation -------------------------------------------------------

    def finalize(self, state: _State) -> Query | None:
        """Assemble the completed decode state into a Query (or None)."""
        sketch = state.sketch
        if not state.select:
            return None
        if sketch.shape == "from_subquery":
            if state.from_inner is None:
                return None
            query: Query = SelectQuery(
                select=(_COUNT_STAR,),
                from_=FromClause(subquery=state.from_inner),
            )
            return self._strip_values(query)
        if not state.tables:
            return None
        where = None
        if state.where_predicates:
            where = Condition(
                predicates=state.where_predicates, connectors=state.connectors
            )
        select = state.select
        if sketch.distinct and not any(
            isinstance(e, AggExpr) for e in select
        ):
            distinct = True
        else:
            distinct = sketch.distinct
        main = SelectQuery(
            select=select,
            from_=FromClause(tables=state.tables, joins=state.joins),
            distinct=distinct,
            where=where,
            group_by=state.group_by,
            having=state.having,
            order_by=state.order_by,
            limit=state.limit,
        )
        if sketch.shape.startswith("setop:"):
            if state.setop_right is None:
                return None
            op = sketch.shape.split(":", 1)[1]
            left = replace(main, where=None) if op == "except" and where is None else main
            query = SetQuery(op=op, left=left, right=state.setop_right)
        else:
            query = main
        return self._strip_values(query)

    def _strip_values(self, query: Query) -> Query:
        """Replace literal values with placeholders for non-value models."""
        if self.profile.predicts_values:
            return query
        return _replace_literals(query)


# ----------------------------------------------------------------------
# Helpers.


def _fk_join(fk) -> JoinCond:
    """The join condition of one foreign key, child side left."""
    return JoinCond(
        left=ColumnRef(column=fk.child_column.lower(), table=fk.child_table.lower()),
        right=ColumnRef(
            column=fk.parent_column.lower(), table=fk.parent_table.lower()
        ),
    )


def _replace_literals(query: Query) -> Query:
    """Rewrite every predicate literal to the 'value' placeholder."""
    if isinstance(query, SetQuery):
        return SetQuery(
            op=query.op,
            left=_replace_literals(query.left),
            right=_replace_literals(query.right),
        )

    def fix_condition(condition: Condition | None) -> Condition | None:
        if condition is None:
            return None
        fixed = []
        for predicate in condition.predicates:
            right = predicate.right
            if isinstance(right, Literal):
                right = Literal(PLACEHOLDER)
            elif isinstance(right, (SelectQuery, SetQuery)):
                right = _replace_literals(right)
            elif isinstance(right, tuple):
                right = tuple(Literal(PLACEHOLDER) for __ in right)
            right2 = predicate.right2
            if isinstance(right2, Literal):
                right2 = Literal(PLACEHOLDER)
            fixed.append(replace(predicate, right=right, right2=right2))
        return Condition(
            predicates=tuple(fixed), connectors=condition.connectors
        )

    from_ = query.from_
    if from_.subquery is not None:
        from_ = FromClause(subquery=_replace_literals(from_.subquery))
    return replace(
        query,
        from_=from_,
        where=fix_condition(query.where),
        having=fix_condition(query.having),
    )
