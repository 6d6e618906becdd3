"""Schema-aware semantic analysis of SQL ASTs.

The parser and the AST dataclasses guarantee *syntactic* well-formedness;
this module checks what they cannot: that a query makes sense against a
concrete :class:`~repro.schema.schema.Schema`.  :func:`analyze` walks a
query and returns a list of typed :class:`~repro.sqlkit.diagnostics.
Diagnostic` records — unresolved or ambiguous table/column references,
type-incompatible predicates and join conditions, aggregate misuse
(mixing aggregates with non-grouped columns, HAVING without GROUP BY,
nested aggregates, aggregates in WHERE), set-operation and IN-subquery
arity mismatches, and a few legal-but-suspicious warnings.

The analyzer is **pure and total**: for any AST the dataclasses can
represent it returns the same diagnostic list on every call and never
raises.  Unknown references are reported once and then treated as
unknown-typed so a single bad identifier does not cascade into a wall of
follow-on errors.

The candidate gate in :mod:`repro.core.generation` runs this over every
generated candidate before ranking; statically invalid candidates
(any error-severity diagnostic) are pruned so the ranking stages never
spend budget on queries that cannot be correct.

:func:`walk` is the generic AST traversal the analyzer is built on; it
is exported for other consumers that need node-with-path iteration over
the frozen dataclasses.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # deferred: schema.schema imports sqlkit.errors
    from repro.schema.schema import Schema, Table

# Column-type literals, mirroring repro.schema.schema.TEXT/NUMBER.  Kept
# as local strings so importing this module from the sqlkit package does
# not create an import cycle with repro.schema.
TEXT = "text"
NUMBER = "number"

from repro.sqlkit.ast import (
    PLACEHOLDER,
    AggExpr,
    Arith,
    ColumnRef,
    Condition,
    FromClause,
    Literal,
    OrderItem,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
    ValueExpr,
)
from repro.sqlkit.diagnostics import Diagnostic, make_diagnostic

#: Node types yielded by :func:`walk`.
_AST_TYPES = (
    SelectQuery,
    SetQuery,
    FromClause,
    Condition,
    Predicate,
    OrderItem,
    AggExpr,
    Arith,
    ColumnRef,
    Star,
    Literal,
)


def _join_path(prefix: str, part: str) -> str:
    if not prefix:
        return part
    if part.startswith("["):
        return prefix + part
    return f"{prefix}.{part}"


def walk(node: object, path: str = "") -> Iterator[tuple[str, object]]:
    """Yield ``(path, node)`` for every AST node under *node*.

    Traversal is depth-first in dataclass field order, so the sequence is
    deterministic for a given query.  Paths use dotted field names with
    positional indices (``where.predicates[0].left``).  Non-AST values
    (strings, ints, None) are skipped.
    """
    if isinstance(node, _AST_TYPES):
        yield path, node
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            name = field.name.rstrip("_")  # from_ -> from
            if isinstance(value, tuple):
                for index, item in enumerate(value):
                    yield from walk(
                        item, _join_path(path, f"{name}[{index}]")
                    )
            else:
                yield from walk(value, _join_path(path, name))


# ----------------------------------------------------------------------
# Scopes: what a SELECT's expressions may reference.

#: Column-resolution outcomes.
_OK = "ok"
_UNKNOWN = "unknown"
_AMBIGUOUS = "ambiguous"
_SKIP = "skip"  # resolution impossible for an already-reported reason


class _Scope:
    """Name resolution context for one SELECT query.

    ``tables`` holds ``(lowercase name, {lowercase column -> ctype})``
    pairs precomputed by the analyzer, so resolution is dict lookups
    rather than repeated scans of the schema dataclasses.
    """

    def __init__(
        self,
        tables: tuple[tuple[str, dict[str, str]], ...] = (),
        missing_tables: frozenset[str] = frozenset(),
        derived: dict[str, str | None] | None = None,
        derived_open: bool = False,
    ) -> None:
        self.tables = tables
        self.missing_tables = missing_tables  # lowercase names not in schema
        #: FROM-subquery output: column name -> type (None = unknown type).
        self.derived = derived
        #: True when the derived output cannot be fully enumerated.
        self.derived_open = derived_open

    def table_in_scope(self, name: str) -> bool:
        lowered = name.lower()
        if lowered in self.missing_tables:
            return True  # already reported as unknown; don't cascade
        return any(table_name == lowered for table_name, __ in self.tables)

    def resolve(self, ref: ColumnRef) -> tuple[str | None, str]:
        """Resolve a column reference to ``(type, status)``.

        *type* is ``"text"``/``"number"``/None (unknown); *status* is one
        of ok / unknown / ambiguous / skip.
        """
        column_l = ref.column.lower()
        if self.derived is not None:
            if column_l in self.derived:
                return self.derived[column_l], _OK
            if self.derived_open:
                return None, _SKIP
            return None, _UNKNOWN
        if ref.table is not None:
            table_l = ref.table.lower()
            if table_l in self.missing_tables:
                return None, _SKIP
            for table_name, columns in self.tables:
                if table_name == table_l:
                    ctype = columns.get(column_l)
                    if ctype is not None:
                        return ctype, _OK
                    return None, _UNKNOWN
            return None, _SKIP  # qualifier itself is reported separately
        owners = [
            (name, columns)
            for name, columns in self.tables
            if column_l in columns
        ]
        if len(owners) == 1:
            return owners[0][1][column_l], _OK
        if len(owners) > 1:
            return None, _AMBIGUOUS
        if self.missing_tables:
            return None, _SKIP  # could belong to the unknown table
        return None, _UNKNOWN

    def canonical_key(self, ref: ColumnRef) -> tuple[str, str] | None:
        """A resolution-aware identity for GROUP-BY membership checks."""
        column_l = ref.column.lower()
        if self.derived is not None:
            return ("<derived>", column_l)
        if ref.table is not None:
            return (ref.table.lower(), column_l)
        owners = [name for name, columns in self.tables if column_l in columns]
        if len(owners) == 1:
            return (owners[0], column_l)
        return None

    def width(self) -> int | None:
        """Total column count of the scope (None when not enumerable)."""
        if self.derived is not None:
            if self.derived_open:
                return None
            return len(self.derived)
        if self.missing_tables:
            return None
        return sum(len(columns) for __, columns in self.tables)

    def table_width(self, name: str) -> int | None:
        lowered = name.lower()
        for table_name, columns in self.tables:
            if table_name == lowered:
                return len(columns)
        return None


# ----------------------------------------------------------------------
# Expression helpers.


def _literal_type(literal: Literal) -> str | None:
    if literal.value == PLACEHOLDER:  # ungrounded: it stands for any value
        return None
    return TEXT if isinstance(literal.value, str) else NUMBER


def _contains_aggregate(expr: ValueExpr) -> bool:
    if isinstance(expr, AggExpr):
        return True
    if isinstance(expr, Arith):
        return _contains_aggregate(expr.left) or _contains_aggregate(
            expr.right
        )
    return False


def _fully_aggregated(expr: ValueExpr) -> bool:
    """Whether *expr* is constant under grouping (no bare column refs)."""
    if isinstance(expr, (AggExpr, Literal)):
        return True
    if isinstance(expr, Arith):
        return _fully_aggregated(expr.left) and _fully_aggregated(expr.right)
    return False


def _expr_columns(expr: ValueExpr) -> Iterator[ColumnRef]:
    if isinstance(expr, ColumnRef):
        yield expr
    elif isinstance(expr, AggExpr):
        yield from _expr_columns(expr.arg)
    elif isinstance(expr, Arith):
        yield from _expr_columns(expr.left)
        yield from _expr_columns(expr.right)


class SemanticAnalyzer:
    """Schema-aware semantic analysis of one or more queries.

    Construct once per schema and call :meth:`analyze` per query; the
    analyzer keeps no per-query state, so one instance may be shared
    across threads.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        #: lowercase table name -> {lowercase column -> ctype}, built once
        #: so per-candidate resolution is pure dict lookups.
        self._tables: dict[str, dict[str, str]] = {
            table.name.lower(): {
                column.name.lower(): column.ctype
                for column in table.columns
            }
            for table in schema.tables
        }

    # ------------------------------------------------------------------
    # Entry points.

    def analyze(self, query: Query) -> list[Diagnostic]:
        """Every diagnostic for *query*, in deterministic walk order."""
        diagnostics: list[Diagnostic] = []
        self._analyze_query(query, "", diagnostics)
        return diagnostics

    def _analyze_query(
        self, query: Query, path: str, out: list[Diagnostic]
    ) -> None:
        if isinstance(query, SetQuery):
            self._analyze_query(query.left, _join_path(path, "left"), out)
            self._analyze_query(query.right, _join_path(path, "right"), out)
            left_arity = self._output_arity(query.left)
            right_arity = self._output_arity(query.right)
            if (
                left_arity is not None
                and right_arity is not None
                and left_arity != right_arity
            ):
                out.append(
                    make_diagnostic(
                        "SQL008",
                        f"{query.op.upper()} sides project {left_arity} vs "
                        f"{right_arity} columns",
                        path or "query",
                    )
                )
            return
        self._analyze_select(query, path, out)

    # ------------------------------------------------------------------
    # Scope construction.

    def _scope_for(
        self, select: SelectQuery, path: str, out: list[Diagnostic]
    ) -> _Scope:
        from_ = select.from_
        if from_.subquery is not None:
            self._analyze_query(
                from_.subquery, _join_path(path, "from.subquery"), out
            )
            derived, open_ = self._derived_columns(from_.subquery)
            return _Scope(derived=derived, derived_open=open_)
        tables: list[tuple[str, dict[str, str]]] = []
        missing: set[str] = set()
        for index, name in enumerate(from_.tables):
            lowered = name.lower()
            columns = self._tables.get(lowered)
            if columns is not None:
                tables.append((lowered, columns))
            else:
                missing.add(lowered)
                out.append(
                    make_diagnostic(
                        "SQL001",
                        f"unknown table {name!r}",
                        _join_path(path, f"from.tables[{index}]"),
                    )
                )
        return _Scope(
            tables=tuple(tables),
            missing_tables=frozenset(missing),
        )

    def _derived_columns(
        self, inner: Query
    ) -> tuple[dict[str, str | None], bool]:
        """Output columns of a FROM-subquery: name -> type, plus openness.

        Unnamed outputs (aggregates, arithmetic) cannot be referenced by
        name in this AST (there are no aliases), so they contribute no
        names; a star output expands to the subquery's own scope when it
        is enumerable and otherwise marks the derived scope open.
        """
        if isinstance(inner, SetQuery):
            # Both sides project the same names in valid queries; use the
            # left side and stay open to avoid cascades on invalid ones.
            derived, __ = self._derived_columns(inner.left)
            return derived, True
        scope = self._scope_for(inner, "", [])  # diagnostics already taken
        derived: dict[str, str | None] = {}
        open_ = False
        for expr in inner.select:
            if isinstance(expr, ColumnRef):
                ctype, status = scope.resolve(expr)
                derived[expr.column.lower()] = (
                    ctype if status == _OK else None
                )
            elif isinstance(expr, Star):
                if expr.table is None and scope.derived is None:
                    for __, columns in scope.tables:
                        derived.update(columns)
                    if scope.missing_tables:
                        open_ = True
                elif (
                    expr.table is not None
                    and expr.table.lower() in self._tables
                ):
                    derived.update(self._tables[expr.table.lower()])
                else:
                    open_ = True
        return derived, open_

    def _output_arity(self, query: Query) -> int | None:
        """How many columns *query* projects (None when star-unresolvable)."""
        if isinstance(query, SetQuery):
            return self._output_arity(query.left)
        scope = self._scope_for(query, "", [])
        arity = 0
        for expr in query.select:
            if isinstance(expr, Star):
                if expr.table is not None:
                    width = scope.table_width(expr.table)
                else:
                    width = scope.width()
                if width is None:
                    return None
                arity += width
            else:
                arity += 1
        return arity

    # ------------------------------------------------------------------
    # Per-select analysis.

    def _analyze_select(
        self, select: SelectQuery, path: str, out: list[Diagnostic]
    ) -> None:
        scope = self._scope_for(select, path, out)
        group_keys = self._group_keys(select, scope, path, out)
        grouped = bool(select.group_by)

        seen_items: set[ValueExpr] = set()
        for index, expr in enumerate(select.select):
            item_path = _join_path(path, f"select[{index}]")
            self._check_expr(expr, scope, item_path, out)
            fingerprint = expr  # frozen dataclasses: hash == structure
            if fingerprint in seen_items:
                out.append(
                    make_diagnostic(
                        "SQL102",
                        "duplicate expression in SELECT list",
                        item_path,
                    )
                )
            seen_items.add(fingerprint)

        self._check_grouping(select, scope, group_keys, path, out)

        for index, join in enumerate(select.from_.joins):
            self._check_join(
                join, scope, _join_path(path, f"from.joins[{index}]"), out
            )

        if select.where is not None:
            self._check_condition(
                select.where,
                scope,
                _join_path(path, "where"),
                out,
                in_where=True,
            )
        if select.having is not None:
            if not grouped:
                out.append(
                    make_diagnostic(
                        "SQL007",
                        "HAVING requires a GROUP BY clause",
                        _join_path(path, "having"),
                    )
                )
            self._check_condition(
                select.having,
                scope,
                _join_path(path, "having"),
                out,
                in_where=False,
                group_keys=group_keys if grouped else None,
            )

        for index, item in enumerate(select.order_by):
            item_path = _join_path(path, f"order_by[{index}]")
            self._check_expr(item.expr, scope, item_path, out)
            self._check_order_item(item, select, scope, group_keys, item_path, out)

        if select.limit is not None and not select.order_by:
            out.append(
                make_diagnostic(
                    "SQL101",
                    "LIMIT without ORDER BY selects arbitrary rows",
                    _join_path(path, "limit"),
                )
            )

    def _group_keys(
        self,
        select: SelectQuery,
        scope: _Scope,
        path: str,
        out: list[Diagnostic],
    ) -> set[tuple[str, str]] | None:
        """Canonical keys of the GROUP BY columns (None = not checkable)."""
        keys: set[tuple[str, str]] = set()
        checkable = True
        for index, ref in enumerate(select.group_by):
            self._check_column(
                ref, scope, _join_path(path, f"group_by[{index}]"), out
            )
            key = scope.canonical_key(ref)
            if key is None:
                checkable = False
            else:
                keys.add(key)
        return keys if checkable else None

    def _check_grouping(
        self,
        select: SelectQuery,
        scope: _Scope,
        group_keys: set[tuple[str, str]] | None,
        path: str,
        out: list[Diagnostic],
    ) -> None:
        """SQL006: aggregate/projection consistency of the SELECT list."""
        grouped = bool(select.group_by)
        any_aggregate = any(
            _contains_aggregate(expr) for expr in select.select
        )
        if not grouped and not any_aggregate:
            return
        for index, expr in enumerate(select.select):
            if _fully_aggregated(expr):
                continue
            item_path = _join_path(path, f"select[{index}]")
            if isinstance(expr, Star):
                out.append(
                    make_diagnostic(
                        "SQL006",
                        "star projection mixed with aggregation",
                        item_path,
                    )
                )
                continue
            if not grouped:
                out.append(
                    make_diagnostic(
                        "SQL006",
                        "non-aggregated column mixed with aggregates "
                        "requires GROUP BY",
                        item_path,
                    )
                )
                continue
            if group_keys is None:
                continue  # unresolvable group keys: don't cascade
            for ref in _expr_columns(expr):
                key = scope.canonical_key(ref)
                if key is not None and key not in group_keys:
                    out.append(
                        make_diagnostic(
                            "SQL006",
                            f"column {ref.column!r} is neither aggregated "
                            "nor in GROUP BY",
                            item_path,
                        )
                    )
                    break

    def _check_order_item(
        self,
        item: OrderItem,
        select: SelectQuery,
        scope: _Scope,
        group_keys: set[tuple[str, str]] | None,
        path: str,
        out: list[Diagnostic],
    ) -> None:
        """SQL010: ORDER BY consistency with the grouping context."""
        grouped = bool(select.group_by)
        if grouped:
            if _fully_aggregated(item.expr):
                return
            if group_keys is None:
                return
            for ref in _expr_columns(item.expr):
                key = scope.canonical_key(ref)
                if key is not None and key not in group_keys:
                    out.append(
                        make_diagnostic(
                            "SQL010",
                            f"ORDER BY column {ref.column!r} is neither "
                            "aggregated nor in GROUP BY",
                            path,
                        )
                    )
                    return
            return
        # Ungrouped query: an aggregate ORDER BY key is only meaningful
        # when the projection itself is aggregated (single-row output).
        if _contains_aggregate(item.expr) and not all(
            _fully_aggregated(expr) for expr in select.select
        ):
            out.append(
                make_diagnostic(
                    "SQL010",
                    "aggregate in ORDER BY of an ungrouped, "
                    "non-aggregate query",
                    path,
                )
            )

    def _check_join(
        self, join, scope: _Scope, path: str, out: list[Diagnostic]
    ) -> None:
        left_type, left_status = self._check_column(
            join.left, scope, _join_path(path, "left"), out
        )
        right_type, right_status = self._check_column(
            join.right, scope, _join_path(path, "right"), out
        )
        if (
            left_status == _OK
            and right_status == _OK
            and left_type is not None
            and right_type is not None
            and left_type != right_type
        ):
            out.append(
                make_diagnostic(
                    "SQL005",
                    f"join compares {join.left.key()} ({left_type}) with "
                    f"{join.right.key()} ({right_type})",
                    path,
                )
            )

    # ------------------------------------------------------------------
    # Conditions and predicates.

    def _check_condition(
        self,
        condition: Condition,
        scope: _Scope,
        path: str,
        out: list[Diagnostic],
        in_where: bool,
        group_keys: set[tuple[str, str]] | None = None,
    ) -> None:
        for index, predicate in enumerate(condition.predicates):
            self._check_predicate(
                predicate,
                scope,
                _join_path(path, f"predicates[{index}]"),
                out,
                in_where=in_where,
                group_keys=group_keys,
            )

    def _check_predicate(
        self,
        predicate: Predicate,
        scope: _Scope,
        path: str,
        out: list[Diagnostic],
        in_where: bool,
        group_keys: set[tuple[str, str]] | None = None,
    ) -> None:
        if in_where and _contains_aggregate(predicate.left):
            out.append(
                make_diagnostic(
                    "SQL012",
                    "aggregate function in WHERE clause",
                    _join_path(path, "left"),
                )
            )
        self._check_expr(predicate.left, scope, _join_path(path, "left"), out)
        left_type = self._expr_type(predicate.left, scope)
        if (
            group_keys is not None
            and not _fully_aggregated(predicate.left)
        ):
            for ref in _expr_columns(predicate.left):
                key = scope.canonical_key(ref)
                if key is not None and key not in group_keys:
                    out.append(
                        make_diagnostic(
                            "SQL006",
                            f"HAVING column {ref.column!r} is neither "
                            "aggregated nor in GROUP BY",
                            _join_path(path, "left"),
                        )
                    )
                    break

        right = predicate.right
        right_path = _join_path(path, "right")
        if isinstance(right, (SelectQuery, SetQuery)):
            self._analyze_query(right, right_path, out)
            arity = self._output_arity(right)
            if arity is not None and arity != 1:
                out.append(
                    make_diagnostic(
                        "SQL009",
                        f"subquery operand projects {arity} columns "
                        "(expected 1)",
                        right_path,
                    )
                )
            right_type = self._subquery_type(right)
            self._check_type_pair(
                predicate, left_type, right_type, path, out
            )
        elif isinstance(right, tuple):
            for index, literal in enumerate(right):
                self._check_type_pair(
                    predicate,
                    left_type,
                    _literal_type(literal),
                    _join_path(right_path, f"[{index}]"),
                    out,
                )
        else:
            if in_where and _contains_aggregate(right):
                out.append(
                    make_diagnostic(
                        "SQL012",
                        "aggregate function in WHERE clause",
                        right_path,
                    )
                )
            self._check_expr(right, scope, right_path, out)
            self._check_type_pair(
                predicate, left_type, self._expr_type(right, scope), path, out
            )
            self._check_self_comparison(predicate, scope, path, out)
        if predicate.right2 is not None:
            right2_path = _join_path(path, "right2")
            self._check_expr(predicate.right2, scope, right2_path, out)
            self._check_type_pair(
                predicate,
                left_type,
                self._expr_type(predicate.right2, scope),
                right2_path,
                out,
            )

    def _check_self_comparison(
        self,
        predicate: Predicate,
        scope: _Scope,
        path: str,
        out: list[Diagnostic],
    ) -> None:
        left, right = predicate.left, predicate.right
        if not (
            isinstance(left, ColumnRef) and isinstance(right, ColumnRef)
        ):
            return
        left_key = scope.canonical_key(left)
        if left_key is not None and left_key == scope.canonical_key(right):
            out.append(
                make_diagnostic(
                    "SQL103",
                    f"column {left.column!r} compared against itself",
                    path,
                )
            )

    def _check_type_pair(
        self,
        predicate: Predicate,
        left_type: str | None,
        right_type: str | None,
        path: str,
        out: list[Diagnostic],
    ) -> None:
        if predicate.op == "like":
            for side, ctype in (("left", left_type), ("right", right_type)):
                if ctype == NUMBER:
                    out.append(
                        make_diagnostic(
                            "SQL004",
                            f"LIKE applied to a number operand ({side})",
                            path,
                        )
                    )
            return
        if (
            left_type is not None
            and right_type is not None
            and left_type != right_type
        ):
            out.append(
                make_diagnostic(
                    "SQL004",
                    f"{predicate.op} compares {left_type} with {right_type}",
                    path,
                )
            )

    # ------------------------------------------------------------------
    # Expression checks and typing.

    def _check_column(
        self, ref: ColumnRef, scope: _Scope, path: str, out: list[Diagnostic]
    ) -> tuple[str | None, str]:
        if ref.table is not None and scope.derived is None:
            if not scope.table_in_scope(ref.table):
                if ref.table.lower() in self._tables:
                    message = f"table {ref.table!r} is not in FROM"
                else:
                    message = f"unknown table {ref.table!r}"
                out.append(make_diagnostic("SQL001", message, path))
                return None, _SKIP
        ctype, status = scope.resolve(ref)
        if status == _UNKNOWN:
            out.append(
                make_diagnostic(
                    "SQL002", f"unknown column {ref.key()!r}", path
                )
            )
        elif status == _AMBIGUOUS:
            column_l = ref.column.lower()
            owners = ", ".join(
                sorted(
                    name
                    for name, columns in scope.tables
                    if column_l in columns
                )
            )
            out.append(
                make_diagnostic(
                    "SQL003",
                    f"column {ref.column!r} is ambiguous (in {owners})",
                    path,
                )
            )
        return ctype, status

    def _check_expr(
        self,
        expr: ValueExpr,
        scope: _Scope,
        path: str,
        out: list[Diagnostic],
        inside_aggregate: bool = False,
    ) -> None:
        if isinstance(expr, ColumnRef):
            self._check_column(expr, scope, path, out)
        elif isinstance(expr, Star):
            if (
                expr.table is not None
                and scope.derived is None
                and not scope.table_in_scope(expr.table)
            ):
                out.append(
                    make_diagnostic(
                        "SQL001", f"unknown table {expr.table!r}", path
                    )
                )
        elif isinstance(expr, AggExpr):
            if inside_aggregate:
                out.append(
                    make_diagnostic(
                        "SQL011",
                        f"aggregate {expr.func} nested inside another "
                        "aggregate",
                        path,
                    )
                )
            if isinstance(expr.arg, Star):
                if expr.func != "count":
                    out.append(
                        make_diagnostic(
                            "SQL004",
                            f"{expr.func}(*) is not a valid aggregate",
                            path,
                        )
                    )
            elif expr.func in ("sum", "avg"):
                arg_type = self._expr_type(expr.arg, scope)
                if arg_type == TEXT:
                    out.append(
                        make_diagnostic(
                            "SQL004",
                            f"{expr.func}() over a text column",
                            path,
                        )
                    )
            self._check_expr(
                expr.arg,
                scope,
                _join_path(path, "arg"),
                out,
                inside_aggregate=True,
            )
        elif isinstance(expr, Arith):
            for side, operand in (("left", expr.left), ("right", expr.right)):
                operand_type = self._expr_type(operand, scope)
                if operand_type == TEXT:
                    out.append(
                        make_diagnostic(
                            "SQL004",
                            f"arithmetic {expr.op!r} over a text operand "
                            f"({side})",
                            _join_path(path, side),
                        )
                    )
                self._check_expr(
                    operand,
                    scope,
                    _join_path(path, side),
                    out,
                    inside_aggregate=inside_aggregate,
                )

    def _expr_type(self, expr: ValueExpr, scope: _Scope) -> str | None:
        if isinstance(expr, Literal):
            return _literal_type(expr)
        if isinstance(expr, ColumnRef):
            ctype, status = scope.resolve(expr)
            return ctype if status == _OK else None
        if isinstance(expr, AggExpr):
            if expr.func in ("count", "sum", "avg"):
                return NUMBER
            if isinstance(expr.arg, Star):
                return None
            return self._expr_type(expr.arg, scope)
        if isinstance(expr, Arith):
            return NUMBER
        return None  # Star

    def _subquery_type(self, query: Query) -> str | None:
        """The type of a single-column subquery's output, when knowable."""
        if isinstance(query, SetQuery):
            return self._subquery_type(query.left)
        if len(query.select) != 1:
            return None
        expr = query.select[0]
        if isinstance(expr, Star):
            return None
        scope = self._scope_for(query, "", [])
        return self._expr_type(expr, scope)


def analyze(query: Query, schema: Schema) -> list[Diagnostic]:
    """Analyze *query* against *schema*; see :class:`SemanticAnalyzer`."""
    return SemanticAnalyzer(schema).analyze(query)
