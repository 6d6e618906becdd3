"""Per-request decode tables of :class:`~repro.models.seq2seq.GrammarSeq2Seq`.

A :class:`QuestionContext` is built once per ``(question, db)`` by
:meth:`GrammarSeq2Seq.prepare <repro.models.seq2seq.GrammarSeq2Seq.prepare>`
and read by every decode of that question; the per-decode noise, stages
and finalisation stay in :mod:`repro.models.seq2seq`.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

from repro.models.lexicon import content_tokens
from repro.models.mentions import (
    NumberMention,
    extract_mentions,
    question_tokens,
)
from repro.models.sketch import Sketch
from repro.schema.database import Database
from repro.sqlkit.ast import (
    PLACEHOLDER,
    AggExpr,
    Arith,
    ColumnRef,
    JoinCond,
    Literal,
    Predicate,
)

if TYPE_CHECKING:
    from repro.models.seq2seq import GrammarSeq2Seq

#: The ``'value'`` placeholder; the AST is immutable, so every decode
#: shares it.
_PLACEHOLDER = Literal(PLACEHOLDER)


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

    Every literal of a decode is built by :attr:`literal`, decided once
    from ``model.predicts_values``: the question's value, or the
    ``'value'`` placeholder for a model that leaves values to grounding.

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
        #: ``literal(value)`` builds the literal a predicate compares with.
        self.literal = Literal if model.predicts_values else _placeholder
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
                right = self.literal(f"%{token}%")
                op = "like"
            else:
                right = self.literal(best_value)
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
                    right=self.literal(low),
                    right2=self.literal(high),
                )
            else:
                predicate = Predicate(
                    left=column.ref, op=op, right=self.literal(mention.value)
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


# ----------------------------------------------------------------------
# Helpers.


def _placeholder(value) -> Literal:
    """The placeholder, whatever the question's *value*."""
    return _PLACEHOLDER


def _fk_join(fk) -> JoinCond:
    """The join condition of one foreign key, child side left."""
    return JoinCond(
        left=ColumnRef(column=fk.child_column.lower(), table=fk.child_table.lower()),
        right=ColumnRef(
            column=fk.parent_column.lower(), table=fk.parent_table.lower()
        ),
    )
