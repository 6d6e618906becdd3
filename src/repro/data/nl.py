"""NL question rendering from SQL ASTs.

Given a sampled SQL query and its schema, produces an English question the
way Spider annotators would phrase it, with seeded paraphrase noise:
multiple question frames, column/table synonym substitution, occasional
implicit table mentions.  The noise level controls how hard the corpus is
for the learned parsers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.schema.schema import Schema
from repro.sqlkit.ast import (
    AggExpr,
    Arith,
    ColumnRef,
    Condition,
    Literal,
    OrderItem,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
)


@dataclass
class NoiseConfig:
    """Paraphrase-noise knobs for question rendering."""

    synonym_prob: float = 0.3
    drop_table_prob: float = 0.15
    casual_prob: float = 0.25


_AGG_WORDS = {
    "avg": ("the average", "the mean"),
    "sum": ("the total", "the sum of"),
    "min": ("the minimum", "the smallest", "the lowest"),
    "max": ("the maximum", "the largest", "the highest"),
}

_OPENERS = (
    "What is {body}?",
    "What are {body}?",
    "Find {body}.",
    "List {body}.",
    "Show {body}.",
    "Give me {body}.",
    "Return {body}.",
    "Show me {body}.",
    "Tell me {body}.",
)

_COUNT_OPENERS = (
    "How many {body}?",
    "Count the number of {body}.",
    "Find the number of {body}.",
    "What is the total number of {body}?",
)


class QuestionRenderer:
    """Renders NL questions for queries over one schema."""

    def __init__(
        self,
        schema: Schema,
        rng: np.random.Generator,
        noise: NoiseConfig | None = None,
    ) -> None:
        self.schema = schema
        self.rng = rng
        self.noise = noise or NoiseConfig()

    # ------------------------------------------------------------------
    # Helpers.

    def _pick(self, items):
        return items[int(self.rng.integers(len(items)))]

    def _maybe(self, probability: float) -> bool:
        return bool(self.rng.random() < probability)

    def _column_phrase(self, ref: ColumnRef) -> str:
        column = None
        if ref.table is not None and self.schema.has_table(ref.table):
            table = self.schema.table(ref.table)
            if table.has_column(ref.column):
                column = table.column(ref.column)
        if column is None:
            # Unqualified reference: resolve through any owning table.
            for owner in self.schema.tables_of_column(ref.column):
                column = owner.column(ref.column)
                break
        if column is not None:
            options = (column.nl,) + column.synonyms
            if len(options) > 1 and self._maybe(self.noise.synonym_prob):
                return self._pick(options[1:])
            return column.nl
        return self.schema.column_phrase(ref.column, ref.table)

    def _table_phrase(self, name: str, plural: bool = False) -> str:
        if self.schema.has_table(name):
            table = self.schema.table(name)
            options = (table.nl,) + table.synonyms
            if len(options) > 1 and self._maybe(self.noise.synonym_prob):
                phrase = self._pick(options[1:])
            else:
                phrase = table.nl
        else:
            phrase = name.replace("_", " ").lower()
        if plural and not phrase.endswith("s"):
            return phrase + "s"
        return phrase

    # ------------------------------------------------------------------
    # Expression phrases.

    def _expr_phrase(self, expr) -> str:
        if isinstance(expr, ColumnRef):
            return self._column_phrase(expr)
        if isinstance(expr, Star):
            return "records"
        if isinstance(expr, AggExpr):
            if expr.func == "count":
                if isinstance(expr.arg, Star):
                    return "the number of records"
                inner = self._expr_phrase(expr.arg)
                if expr.distinct:
                    return f"the number of different {inner}"
                return f"the number of {inner}"
            head = self._pick(_AGG_WORDS[expr.func])
            return f"{head} {self._expr_phrase(expr.arg)}"
        if isinstance(expr, Arith):
            if (
                expr.op == "-"
                and isinstance(expr.left, AggExpr)
                and isinstance(expr.right, AggExpr)
                and expr.left.func == "max"
                and expr.right.func == "min"
                and expr.left.arg == expr.right.arg
            ):
                column = self._expr_phrase(expr.left.arg)
                return self._pick(
                    (
                        f"the difference between the highest and lowest {column}",
                        f"the range of {column} values",
                    )
                )
            words = {"+": "plus", "-": "minus", "*": "times", "/": "over"}
            return (
                f"{self._expr_phrase(expr.left)} {words[expr.op]} "
                f"{self._expr_phrase(expr.right)}"
            )
        if isinstance(expr, Literal):
            return str(expr.value)
        raise TypeError(f"cannot phrase {type(expr).__name__}")

    # ------------------------------------------------------------------
    # Predicate phrases.

    def _predicate_phrase(self, predicate: Predicate) -> str:
        left = predicate.left
        if isinstance(left, AggExpr):
            # HAVING-style predicate.
            value = self._value_text(predicate.right)
            if predicate.op == ">":
                return self._pick(
                    (
                        f"with more than {value} records",
                        f"appearing more than {value} times",
                        f"having over {value} entries",
                    )
                )
            if predicate.op == ">=":
                return self._pick(
                    (
                        f"with at least {value} records",
                        f"appearing at least {value} times",
                    )
                )
            if predicate.op in ("<", "<="):
                return f"with fewer than {value} records"
            return f"with exactly {value} records"

        column = self._expr_phrase(left)
        if isinstance(predicate.right, (SelectQuery, SetQuery)):
            return self._subquery_phrase(predicate, column)
        if predicate.op == "between":
            low = self._value_text(predicate.right)
            high = self._value_text(predicate.right2)
            return f"whose {column} is between {low} and {high}"
        value = self._value_text(predicate.right)
        negated = predicate.negated
        if predicate.op == "=" and not negated:
            return self._pick(
                (
                    f"whose {column} is {value}",
                    f"with {column} {value}",
                    f"whose {column} equals {value}",
                    f"with a {column} of {value}",
                )
            )
        if predicate.op == "!=" or (predicate.op == "=" and negated):
            return self._pick(
                (
                    f"whose {column} is not {value}",
                    f"that do not have the {column} {value}",
                )
            )
        if predicate.op == "like":
            token = str(value).strip("%")
            return self._pick(
                (
                    f"whose {column} contains {token}",
                    f"whose {column} includes the word {token}",
                )
            )
        if predicate.op == ">":
            return self._pick(
                (
                    f"whose {column} is greater than {value}",
                    f"with {column} above {value}",
                    f"with more than {value} {column}",
                )
            )
        if predicate.op == ">=":
            return self._pick(
                (
                    f"whose {column} is at least {value}",
                    f"with no less than {value} {column}",
                )
            )
        if predicate.op == "<":
            return self._pick(
                (
                    f"whose {column} is less than {value}",
                    f"with {column} below {value}",
                    f"with fewer than {value} {column}",
                )
            )
        if predicate.op == "<=":
            return self._pick(
                (
                    f"whose {column} is at most {value}",
                    f"with no more than {value} {column}",
                )
            )
        return f"whose {column} {predicate.op} {value}"

    def _subquery_phrase(self, predicate: Predicate, column: str) -> str:
        sub = predicate.right
        assert isinstance(sub, (SelectQuery, SetQuery))
        if predicate.op == "in":
            inner = self._subquery_body(sub)
            if predicate.negated:
                return self._pick(
                    (
                        f"that do not have {inner}",
                        f"without {inner}",
                        f"that are not among those with {inner}",
                    )
                )
            return self._pick(
                (f"that have {inner}", f"that are among those with {inner}")
            )
        # Scalar comparison against an aggregate subquery.
        inner_select = sub if isinstance(sub, SelectQuery) else sub.left
        agg = inner_select.select[0]
        agg_phrase = self._expr_phrase(agg)
        direction = "above" if predicate.op in (">", ">=") else "below"
        return self._pick(
            (
                f"whose {column} is {direction} {agg_phrase}",
                f"with {column} {direction} {agg_phrase}",
            )
        )

    def _subquery_body(self, sub: Query) -> str:
        select = sub if isinstance(sub, SelectQuery) else sub.left
        table = select.from_.tables[0] if select.from_.tables else "record"
        table_phrase = self._table_phrase(table)
        if select.where is not None:
            conds = " and ".join(
                self._predicate_phrase(p) for p in select.where.predicates
            )
            return f"a {table_phrase} {conds}"
        return f"a {table_phrase}"

    def _value_text(self, value) -> str:
        if isinstance(value, Literal):
            if isinstance(value.value, float):
                return f"{value.value:g}"
            return str(value.value)
        return self._expr_phrase(value)

    # ------------------------------------------------------------------
    # Clause assembly.

    def _where_phrase(self, where: Condition) -> str:
        parts = [self._predicate_phrase(where.predicates[0])]
        for connector, predicate in zip(where.connectors, where.predicates[1:]):
            joiner = "and" if connector == "and" else "or"
            parts.append(joiner)
            parts.append(self._predicate_phrase(predicate))
        return " ".join(parts)

    def _order_phrase(self, order_by: tuple[OrderItem, ...], limit) -> str:
        item = order_by[0]
        column = self._expr_phrase(item.expr)
        if limit == 1:
            word = "highest" if item.desc else "lowest"
            return self._pick(
                (
                    f"with the {word} {column}",
                    f"that has the {word} {column}",
                )
            )
        if limit is not None:
            word = "most" if item.desc else "least"
            return f"for the top {limit} by {column} ({word} first)"
        direction = "descending" if item.desc else "ascending"
        return self._pick(
            (
                f"sorted by {column} in {direction} order",
                f"ordered by {column} {direction}",
            )
        )

    # ------------------------------------------------------------------
    # Entry points.

    def render(self, query: Query) -> str:
        """Render one NL question for *query*."""
        if isinstance(query, SetQuery):
            return self._render_set(query)
        return self._render_select(query)

    def _render_set(self, query: SetQuery) -> str:
        left = query.left if isinstance(query.left, SelectQuery) else None
        right = query.right if isinstance(query.right, SelectQuery) else None
        if left is None or right is None:
            # Nested set operations: fall back to a flat conjunction.
            return self.render(query.left)
        base = self._body_for_select(left, include_opener=False)
        right_where = (
            self._where_phrase(right.where) if right.where is not None else ""
        )
        if query.op == "except":
            connector = self._pick(
                ("but not those", "excluding those", "that are not the ones")
            )
        elif query.op == "intersect":
            connector = self._pick(
                ("that are also the ones", "and also those", "that at the same time are those")
            )
        else:
            connector = self._pick(("or those", "together with those", "plus those"))
        body = f"{base} {connector} {right_where}".strip()
        opener = self._pick(_OPENERS)
        return opener.format(body=body)

    def _render_select(self, query: SelectQuery) -> str:
        is_count = (
            len(query.select) == 1
            and isinstance(query.select[0], AggExpr)
            and query.select[0].func == "count"
            and not query.group_by
        )
        if is_count and query.from_.subquery is None:
            body = self._count_body(query)
            opener = self._pick(_COUNT_OPENERS)
            return opener.format(body=body)
        if is_count and query.from_.subquery is not None:
            inner = query.from_.subquery
            assert isinstance(inner, SelectQuery)
            group_col = self._expr_phrase(inner.group_by[0])
            having = (
                self._where_phrase(inner.having)
                if inner.having is not None
                else ""
            )
            table = inner.from_.tables[0]
            body = (
                f"{group_col} values of {self._table_phrase(table, plural=True)} "
                f"{having}"
            ).strip()
            opener = self._pick(_COUNT_OPENERS)
            return opener.format(body=body)
        body = self._body_for_select(query, include_opener=False)
        opener = self._pick(_OPENERS)
        return opener.format(body=body)

    def _count_body(self, query: SelectQuery) -> str:
        table = query.from_.tables[0]
        plural = self._table_phrase(table, plural=True)
        parts = [plural]
        if len(query.from_.tables) > 1:
            other = self._table_phrase(query.from_.tables[1], plural=True)
            parts.append(f"with {other}")
        if query.where is not None:
            parts.append(self._where_phrase(query.where))
        return " ".join(parts)

    def _body_for_select(
        self, query: SelectQuery, include_opener: bool
    ) -> str:
        projections = " and ".join(
            self._expr_phrase(expr) for expr in query.select
        )
        table = query.from_.tables[0] if query.from_.tables else "record"
        mention_table = not self._maybe(self.noise.drop_table_prob)
        parts = [projections]
        if mention_table:
            join_suffix = ""
            if len(query.from_.tables) > 1:
                others = ", ".join(
                    self._table_phrase(t, plural=True)
                    for t in query.from_.tables[1:]
                )
                join_suffix = f" with {others}"
            of_word = self._pick(("of", "for", "from"))
            parts.append(
                f"{of_word} {self._table_phrase(table, plural=True)}{join_suffix}"
            )
        if query.group_by:
            group_cols = " and ".join(
                self._column_phrase(c) for c in query.group_by
            )
            parts.append(self._pick((f"for each {group_cols}", f"per {group_cols}", f"grouped by {group_cols}")))
        if query.where is not None:
            parts.append(self._where_phrase(query.where))
        if query.having is not None:
            parts.append(self._where_phrase(query.having))
        if query.order_by:
            parts.append(self._order_phrase(query.order_by, query.limit))
        if query.distinct:
            parts[0] = f"the different {parts[0]}"
        return " ".join(parts)
