"""Value grounding: fill literal placeholders before ranking.

Models that do not predict values (GAP, LGESQL) emit ``'value'``
placeholders.  The paper notes that MetaSQL "explicitly adds values before
the ranking procedure", which is why LGESQL+MetaSQL's execution accuracy
jumps.  This module implements that step: each placeholder is replaced by
the database value (picklist search) or question number that best matches
the NL question.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro.core.resilience import fire
from repro.models.mentions import NumberMention, extract_mentions, question_tokens
from repro.schema.database import Database
from repro.schema.schema import TEXT
from repro.sqlkit.ast import (
    PLACEHOLDER,
    ColumnRef,
    Condition,
    FromClause,
    Literal,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
)


class QuestionValues(NamedTuple):
    """What grounding reads from the question, computed once per question."""

    tokens: frozenset[str]
    #: number mentions other than LIMIT counts, in order of appearance.
    numbers: list[NumberMention]


def question_values(question: str) -> QuestionValues:
    """The question's tokens and groundable number mentions."""
    return QuestionValues(
        tokens=frozenset(question_tokens(question)),
        numbers=[m for m in extract_mentions(question) if not m.is_limit],
    )


def ground_values(
    query: Query,
    question: str,
    db: Database,
    values: QuestionValues | None = None,
) -> Query:
    """Replace ``'value'`` placeholders in *query* with grounded literals.

    *values* is ``question_values(question)`` when the caller grounds
    several candidates of one question and has computed it already.
    """
    fire("values.ground_values")
    if values is None:
        values = question_values(question)
    return _Grounder(values, db).rewrite(query)


class _Grounder:
    def __init__(self, values: QuestionValues, db: Database) -> None:
        self.db = db
        self.tokens = values.tokens
        self.numbers = values.numbers
        self._used_numbers: set[int] = set()

    # ------------------------------------------------------------------

    def rewrite(self, query: Query) -> Query:
        """Rewrite *query* with placeholders grounded (recursive)."""
        if isinstance(query, SetQuery):
            return SetQuery(
                op=query.op,
                left=self.rewrite(query.left),
                right=self.rewrite(query.right),
            )
        from_ = query.from_
        if from_.subquery is not None:
            from_ = FromClause(subquery=self.rewrite(from_.subquery))
        return replace(
            query,
            from_=from_,
            where=self._fix_condition(query.where),
            having=self._fix_condition(query.having),
        )

    def _fix_condition(self, condition: Condition | None) -> Condition | None:
        if condition is None:
            return None
        fixed = []
        for predicate in condition.predicates:
            fixed.append(self._fix_predicate(predicate))
        return Condition(
            predicates=tuple(fixed), connectors=condition.connectors
        )

    def _fix_predicate(self, predicate: Predicate) -> Predicate:
        right = predicate.right
        if isinstance(right, (SelectQuery, SetQuery)):
            return replace(predicate, right=self.rewrite(right))
        right2 = predicate.right2
        if self._is_placeholder(right):
            right = self._ground(predicate, first=True)
        if right2 is not None and self._is_placeholder(right2):
            right2 = self._ground(predicate, first=False)
        if isinstance(right, tuple):
            return replace(predicate, right=right)
        return replace(predicate, right=right, right2=right2)

    @staticmethod
    def _is_placeholder(value) -> bool:
        return isinstance(value, Literal) and value.value == PLACEHOLDER

    # ------------------------------------------------------------------

    def _ground(self, predicate: Predicate, first: bool) -> Literal:
        left = predicate.left
        column_is_text = False
        resolved = left
        if isinstance(left, ColumnRef):
            schema = self.db.schema
            table_name = left.table
            if table_name is None or not schema.has_table(table_name):
                # Unqualified column: resolve through any owning table.
                owners = schema.tables_of_column(left.column)
                table_name = owners[0].name if owners else None
            if table_name is not None and schema.has_table(table_name):
                table = schema.table(table_name)
                if table.has_column(left.column):
                    column_is_text = table.column(left.column).ctype == TEXT
                    resolved = ColumnRef(
                        column=left.column, table=table_name.lower()
                    )
        if column_is_text and predicate.op in ("=", "!=", "like", "in"):
            value = self._best_text_value(resolved)
            if value is not None:
                if predicate.op == "like":
                    return Literal(f"%{str(value).split()[0]}%")
                return Literal(value)
            return Literal(PLACEHOLDER)
        return self._best_number(first)

    def _best_text_value(self, ref: ColumnRef) -> str | None:
        """Picklist search: the column value best covered by the question."""
        token_set = self.tokens
        best_value, best_score = None, 0.0
        for value, __, words in self.db.index.values(ref.table, ref.column):
            coverage = len(token_set.intersection(words)) / len(words)
            score = coverage * (1.0 + 0.1 * len(words))
            if coverage == 1.0 and score > best_score:
                best_score, best_value = score, value
        return best_value

    def _best_number(self, first: bool) -> Literal:
        available = [
            m
            for i, m in enumerate(self.numbers)
            if i not in self._used_numbers
        ]
        pool = available or self.numbers
        if not pool:
            return Literal(PLACEHOLDER)
        mention = pool[0] if first else pool[-1]
        index = self.numbers.index(mention)
        self._used_numbers.add(index)
        return Literal(mention.value)
