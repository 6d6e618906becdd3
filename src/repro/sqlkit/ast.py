"""SQL abstract syntax tree.

The AST models the Spider-compatible SQL subset: single SELECT statements
with joins, WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, nested subqueries in
predicates or FROM, and top-level set operations (UNION/INTERSECT/EXCEPT).

All nodes are frozen dataclasses so queries are hashable and structurally
comparable, which the candidate-deduplication and ranking stages rely on.

Boolean conditions follow Spider's flat shape: a sequence of predicates
joined by ``and``/``or`` connectors (no arbitrary nesting of boolean
operators).  Negation lives on the predicate (``NOT IN``, ``!=``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

AGG_FUNCS = ("count", "sum", "avg", "min", "max")
COMPARE_OPS = ("=", "!=", "<", ">", "<=", ">=", "like", "in", "between")
ARITH_OPS = ("+", "-", "*", "/")
SET_OPS = ("union", "intersect", "except")
#: The literal models that predict no values emit before grounding fills it.
PLACEHOLDER = "value"


@dataclass(frozen=True)
class Literal:
    """A constant value.  ``value`` keeps the python-typed representation."""

    value: Union[str, int, float]

    def render(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly table-qualified) column reference."""

    column: str
    table: str | None = None

    def key(self) -> str:
        """Canonical lowercase identity used for comparison."""
        if self.table is None:
            return self.column.lower()
        return f"{self.table.lower()}.{self.column.lower()}"


@dataclass(frozen=True)
class Star:
    """``*`` (optionally table-qualified)."""

    table: str | None = None


@dataclass(frozen=True)
class AggExpr:
    """An aggregate application, e.g. ``count(distinct name)``."""

    func: str
    arg: "ValueExpr"
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise ValueError(f"unknown aggregate function: {self.func}")


@dataclass(frozen=True)
class Arith:
    """A binary arithmetic expression over value expressions."""

    op: str
    left: "ValueExpr"
    right: "ValueExpr"

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator: {self.op}")


ValueExpr = Union[Literal, ColumnRef, Star, AggExpr, Arith]


@dataclass(frozen=True)
class Predicate:
    """A single comparison, e.g. ``age > 3`` or ``id NOT IN (SELECT ...)``.

    ``right`` may be a value expression, a nested :class:`Query` (for
    comparison against subqueries / IN-subqueries), or a tuple of literals
    (for ``IN (v1, v2, ...)``).  ``right2`` is only used by BETWEEN.
    """

    left: ValueExpr
    op: str
    right: Union[ValueExpr, "Query", tuple[Literal, ...]]
    right2: ValueExpr | None = None
    negated: bool = False

    def __post_init__(self) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator: {self.op}")

    @property
    def has_subquery(self) -> bool:
        return isinstance(self.right, (SelectQuery, SetQuery))


@dataclass(frozen=True)
class Condition:
    """A flat boolean combination: predicates joined by and/or connectors.

    ``len(connectors) == len(predicates) - 1``.
    """

    predicates: tuple[Predicate, ...]
    connectors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.connectors) != max(len(self.predicates) - 1, 0):
            raise ValueError("connector count must be predicate count - 1")
        for connector in self.connectors:
            if connector not in ("and", "or"):
                raise ValueError(f"unknown connector: {connector}")

    @property
    def has_or(self) -> bool:
        return "or" in self.connectors


@dataclass(frozen=True)
class JoinCond:
    """An equi-join condition between two columns."""

    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class FromClause:
    """FROM clause: base tables with optional join conditions, or a subquery.

    Exactly one of ``tables``/``subquery`` is populated.  Join conditions may
    be empty even with multiple tables (Spider frequently omits ON clauses;
    the executor then infers the join path from schema foreign keys).
    """

    tables: tuple[str, ...] = ()
    joins: tuple[JoinCond, ...] = ()
    subquery: "Query | None" = None

    def __post_init__(self) -> None:
        if bool(self.tables) == (self.subquery is not None):
            raise ValueError("FROM needs either tables or a subquery")


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key with direction."""

    expr: ValueExpr
    desc: bool = False


@dataclass(frozen=True)
class SelectQuery:
    """A single SELECT statement."""

    select: tuple[ValueExpr, ...]
    from_: FromClause
    distinct: bool = False
    where: Condition | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Condition | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.select:
            raise ValueError("SELECT list must not be empty")


@dataclass(frozen=True)
class SetQuery:
    """A top-level set operation between two queries."""

    op: str
    left: "Query"
    right: "Query"

    def __post_init__(self) -> None:
        if self.op not in SET_OPS:
            raise ValueError(f"unknown set operation: {self.op}")


Query = Union[SelectQuery, SetQuery]


def iter_selects(query: Query):
    """Yield every SelectQuery inside *query*, including subqueries."""
    if isinstance(query, SetQuery):
        yield from iter_selects(query.left)
        yield from iter_selects(query.right)
        return
    yield query
    if query.from_.subquery is not None:
        yield from iter_selects(query.from_.subquery)
    for condition in (query.where, query.having):
        if condition is None:
            continue
        for predicate in condition.predicates:
            if isinstance(predicate.right, (SelectQuery, SetQuery)):
                yield from iter_selects(predicate.right)


def iter_column_refs(expr: ValueExpr):
    """Yield every ColumnRef inside a value expression."""
    if isinstance(expr, ColumnRef):
        yield expr
    elif isinstance(expr, AggExpr):
        yield from iter_column_refs(expr.arg)
    elif isinstance(expr, Arith):
        yield from iter_column_refs(expr.left)
        yield from iter_column_refs(expr.right)




def query_tables(query: Query) -> set[str]:
    """Return the lowercase names of every base table used by *query*."""
    names: set[str] = set()
    for select in iter_selects(query):
        names.update(table.lower() for table in select.from_.tables)
    return names
