"""Reference SQL executor: the interpreter the production executor replaced.

``repro.schema.executor`` compiles a query once and evaluates it over row
tuples.  This module keeps the earlier row-dict interpreter unchanged, so
``test_executor_differential.py`` can check that both return the same
rows in the same order, charge an :class:`ExecutionBudget` the same steps
and raise the same exception classes.  It re-runs every subquery per outer
row and resolves column names per row; only tests import it.

It keeps its own ambient budget, so pass a budget to :func:`execute`
explicitly when comparing step counts.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from repro.core.resilience import fire
from repro.schema.database import Database
from repro.sqlkit.ast import (
    AggExpr,
    Arith,
    ColumnRef,
    Condition,
    Literal,
    Predicate,
    Query,
    SelectQuery,
    SetQuery,
    Star,
    ValueExpr,
)
from repro.sqlkit.errors import ExecutionBudgetError, SqlExecutionError

Row = dict[str, object]
ResultRow = tuple[object, ...]


@dataclass
class ExecutionBudget:
    """Row/step limits for one top-level :func:`execute` call.

    ``max_steps`` bounds the cumulative work (row comparisons considered,
    including pre-charged join products); ``max_rows`` bounds the size of
    any single materialised intermediate row set.  ``None`` disables the
    corresponding limit.  A budget is stateful — create a fresh one per
    top-level call.
    """

    max_steps: int | None = 1_000_000
    max_rows: int | None = 100_000
    steps: int = 0

    def remaining(self) -> int | None:
        """Steps left before the budget trips (None = unlimited).

        Never negative: once exhausted the remaining allowance is 0.
        """
        if self.max_steps is None:
            return None
        return max(0, self.max_steps - self.steps)

    @property
    def exhausted(self) -> bool:
        """Whether the step allowance has been fully consumed."""
        return self.remaining() == 0

    def charge(self, n: int = 1) -> None:
        """Consume *n* steps; raise once the step limit is exceeded."""
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            raise ExecutionBudgetError(
                "execution step budget exhausted", self.steps, self.max_steps
            )

    def charge_rows(self, n: int) -> None:
        """Account for materialising *n* rows in one intermediate set."""
        if self.max_rows is not None and n > self.max_rows:
            raise ExecutionBudgetError(
                "intermediate row budget exhausted", n, self.max_rows
            )
        self.charge(n)


_BUDGET: ContextVar[ExecutionBudget | None] = ContextVar(
    "execution_budget", default=None
)


def current_budget() -> ExecutionBudget | None:
    """The ambient :class:`ExecutionBudget` for this context, if any."""
    return _BUDGET.get()


@contextmanager
def budget_scope(
    budget: ExecutionBudget | None,
) -> Iterator[ExecutionBudget | None]:
    """Install *budget* as the ambient budget for the ``with`` body.

    Every :func:`execute` call inside the scope that does not pass an
    explicit budget charges this one *cumulatively* — the verify stage
    runs its whole top-k sweep under one allowance without manual
    per-call budget splitting::

        with budget_scope(ExecutionBudget(max_steps=50_000)) as budget:
            execute(first, db)    # charges the shared budget
            execute(second, db)   # keeps charging the same allowance
            budget.remaining()    # -> steps left for further candidates
    """
    token = _BUDGET.set(budget)
    try:
        yield budget
    finally:
        _BUDGET.reset(token)


def _charge(n: int = 1) -> None:
    budget = _BUDGET.get()
    if budget is not None:
        budget.charge(n)


def _charge_rows(n: int) -> None:
    budget = _BUDGET.get()
    if budget is not None:
        budget.charge_rows(n)


def execute(
    query: Query, db: Database, budget: ExecutionBudget | None = None
) -> list[ResultRow]:
    """Execute *query* against *db*, returning result rows as tuples.

    When *budget* is given it becomes the ambient budget for this call and
    every nested subquery; without one, the enclosing scope's budget (an
    enclosing ``execute`` call or a :func:`budget_scope`) keeps applying,
    so recursive internal calls never reset limits and repeated top-level
    calls under one scope charge the same allowance cumulatively.
    """
    fire("executor.execute")
    if budget is None:
        return _execute(query, db)
    token = _BUDGET.set(budget)
    try:
        return _execute(query, db)
    finally:
        _BUDGET.reset(token)


def _execute(query: Query, db: Database) -> list[ResultRow]:
    if isinstance(query, SetQuery):
        left = execute(query.left, db)
        right = execute(query.right, db)
        return _apply_set_op(query.op, left, right)
    return _execute_select(query, db)


def _apply_set_op(
    op: str, left: list[ResultRow], right: list[ResultRow]
) -> list[ResultRow]:
    left_set = _dedupe(left)
    right_keys = {_row_key(r) for r in right}
    if op == "union":
        merged = list(left_set)
        seen = {_row_key(r) for r in left_set}
        for row in _dedupe(right):
            if _row_key(row) not in seen:
                merged.append(row)
        return merged
    if op == "intersect":
        return [r for r in left_set if _row_key(r) in right_keys]
    if op == "except":
        return [r for r in left_set if _row_key(r) not in right_keys]
    raise SqlExecutionError(f"unknown set operation: {op}")


def _dedupe(rows: list[ResultRow]) -> list[ResultRow]:
    seen: set = set()
    out = []
    for row in rows:
        key = _row_key(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _row_key(row: ResultRow):
    return tuple(
        value.lower() if isinstance(value, str) else value for value in row
    )


# ----------------------------------------------------------------------
# Single SELECT evaluation.


def _execute_select(query: SelectQuery, db: Database) -> list[ResultRow]:
    env_rows, env_columns = _build_from(query, db)
    _charge(len(env_rows))

    if query.where is not None:
        env_rows = [
            row for row in env_rows if _eval_condition(query.where, row, db)
        ]

    has_aggregate = _select_has_aggregate(query)
    if query.group_by:
        groups = _group_rows(env_rows, query.group_by, env_columns)
        if query.having is not None:
            groups = [
                g for g in groups if _eval_condition(query.having, g, db, group=True)
            ]
        result_envs: list[Row] = groups
    elif has_aggregate:
        result_envs = [{"__group__": env_rows}]
    else:
        result_envs = env_rows

    ordered = list(result_envs)
    if query.order_by:
        _charge(len(ordered) * len(query.order_by))
        # Stable multi-key sort: apply keys from least to most significant.
        for item in reversed(query.order_by):
            ordered.sort(
                key=lambda env, it=item: _orderable(
                    _eval_expr(it.expr, env, db, env_columns)
                ),
                reverse=item.desc,
            )

    # SELECT * expands to all columns of the FROM environment.
    if any(isinstance(e, Star) for e in query.select):
        projected = [
            _expand_star(query.select, env, db, env_columns) for env in ordered
        ]
    else:
        projected = [
            tuple(
                _eval_expr(expr, env, db, env_columns) for expr in query.select
            )
            for env in ordered
        ]

    if query.distinct:
        projected = _dedupe(projected)
    if query.limit is not None:
        projected = projected[: query.limit]
    return projected


def _expand_star(
    select: tuple[ValueExpr, ...], env: Row, db: Database, env_columns: list[str]
) -> ResultRow:
    values: list[object] = []
    for expr in select:
        if isinstance(expr, Star):
            if expr.table is None:
                values.extend(env.get(col) for col in env_columns)
            else:
                prefix = expr.table.lower() + "."
                values.extend(
                    env.get(col) for col in env_columns if col.startswith(prefix)
                )
        else:
            values.append(_eval_expr(expr, env, db, env_columns))
    return tuple(values)


def _orderable(value: object):
    """Total-order key tolerating mixed None/str/number values."""
    if value is None:
        return (0, 0)
    if isinstance(value, str):
        return (1, value.lower())
    if isinstance(value, bool):
        return (2, int(value))
    return (2, value)


def _select_has_aggregate(query: SelectQuery) -> bool:
    def expr_has(expr: ValueExpr) -> bool:
        if isinstance(expr, AggExpr):
            return True
        if isinstance(expr, Arith):
            return expr_has(expr.left) or expr_has(expr.right)
        return False

    return any(expr_has(e) for e in query.select)


# ----------------------------------------------------------------------
# FROM construction.


def _build_from(query: SelectQuery, db: Database) -> tuple[list[Row], list[str]]:
    from_ = query.from_
    if from_.subquery is not None:
        sub_rows = execute(from_.subquery, db)
        columns = _subquery_column_names(from_.subquery)
        env_rows = [
            dict(zip(columns, row)) for row in sub_rows
        ]
        return env_rows, columns

    schema = db.schema
    qualified_columns: list[str] = []
    for name in from_.tables:
        table = schema.table(name)
        for column in table.columns:
            qualified_columns.append(f"{table.name.lower()}.{column.name.lower()}")

    # Start with the first table, then join each next table.
    joined: list[Row] = []
    first = schema.table(from_.tables[0])
    for row in db.table_rows(first.name):
        joined.append(
            {f"{first.name.lower()}.{k}": v for k, v in row.items()}
        )
    _charge_rows(len(joined))
    attached = [first.name.lower()]

    explicit = list(from_.joins)
    for name in from_.tables[1:]:
        table = schema.table(name)
        table_l = table.name.lower()
        conditions = _join_conditions_for(
            table_l, attached, explicit, schema, from_.tables
        )
        new_rows: list[Row] = []
        right_rows = [
            {f"{table_l}.{k}": v for k, v in row.items()}
            for row in db.table_rows(table.name)
        ]
        # Pre-charge the full join product: a runaway cartesian explosion
        # must trip the budget before the work is done, not after.
        _charge(len(joined) * len(right_rows))
        for left_row, right_row in product(joined, right_rows):
            merged = {**left_row, **right_row}
            if all(
                _values_equal(merged.get(a), merged.get(b)) for a, b in conditions
            ):
                new_rows.append(merged)
        _charge_rows(len(new_rows))
        joined = new_rows
        attached.append(table_l)

    env_columns = qualified_columns
    env_rows = [_add_unqualified(row, env_columns) for row in joined]
    return env_rows, env_columns


def _subquery_column_names(query: Query) -> list[str]:
    """Column namespace exposed by a FROM-subquery."""
    while isinstance(query, SetQuery):
        query = query.left
    names = []
    for index, expr in enumerate(query.select):
        if isinstance(expr, ColumnRef):
            names.append(expr.column.lower())
        elif isinstance(expr, AggExpr) and isinstance(expr.arg, ColumnRef):
            names.append(f"{expr.func}({expr.arg.column.lower()})")
        elif isinstance(expr, AggExpr):
            names.append(f"{expr.func}(*)")
        else:
            names.append(f"col{index}")
    return names


def _join_conditions_for(
    table: str,
    attached: list[str],
    explicit: list,
    schema,
    all_tables: tuple[str, ...],
) -> list[tuple[str, str]]:
    """Equi-join key pairs linking *table* to the already-attached tables."""
    conditions: list[tuple[str, str]] = []
    for join in explicit:
        left_t = (join.left.table or "").lower()
        right_t = (join.right.table or "").lower()
        pair = {left_t, right_t}
        if table in pair and pair <= set(attached + [table]):
            conditions.append(
                (
                    f"{left_t}.{join.left.column.lower()}",
                    f"{right_t}.{join.right.column.lower()}",
                )
            )
    if conditions:
        return conditions
    # Fall back to FK inference against any attached table.
    for other in attached:
        fk = schema.join_condition(table, other)
        if fk is not None:
            conditions.append(
                (
                    f"{fk.child_table.lower()}.{fk.child_column.lower()}",
                    f"{fk.parent_table.lower()}.{fk.parent_column.lower()}",
                )
            )
            return conditions
    # No linking FK: cartesian product (matches SQL semantics for bare JOIN
    # without ON against an unrelated table).
    return []


def _add_unqualified(row: Row, env_columns: list[str]) -> Row:
    """Expose unambiguous unqualified column names alongside qualified ones."""
    out = dict(row)
    counts: dict[str, int] = {}
    for qualified in env_columns:
        bare = qualified.split(".", 1)[1]
        counts[bare] = counts.get(bare, 0) + 1
    for qualified in env_columns:
        bare = qualified.split(".", 1)[1]
        if counts[bare] == 1:
            out[bare] = row.get(qualified)
    return out


# ----------------------------------------------------------------------
# Grouping.


def _group_rows(
    rows: list[Row], group_by, env_columns: list[str]
) -> list[Row]:
    groups: dict[tuple, list[Row]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(
            _comparable(_lookup_column(ref, row)) for ref in group_by
        )
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out: list[Row] = []
    for key in order:
        members = groups[key]
        env: Row = dict(members[0])
        env["__group__"] = members
        out.append(env)
    return out


def _comparable(value: object):
    if isinstance(value, str):
        return value.lower()
    return value


# ----------------------------------------------------------------------
# Expression and predicate evaluation.


def _lookup_column(ref: ColumnRef, row: Row) -> object:
    if ref.table is not None:
        key = f"{ref.table.lower()}.{ref.column.lower()}"
        if key in row:
            return row[key]
    key = ref.column.lower()
    if key in row:
        return row[key]
    # Qualified lookup failed: try any qualified variant.
    suffix = f".{ref.column.lower()}"
    for candidate, value in row.items():
        if isinstance(candidate, str) and candidate.endswith(suffix):
            return value
    raise SqlExecutionError(f"unknown column {ref.key()!r} in row scope")


def _eval_expr(
    expr: ValueExpr, env: Row, db: Database, env_columns: list[str] | None = None
) -> object:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return _lookup_column(expr, env)
    if isinstance(expr, Star):
        raise SqlExecutionError("bare * outside aggregate/select context")
    if isinstance(expr, AggExpr):
        members = env.get("__group__")
        if members is None:
            raise SqlExecutionError(
                f"aggregate {expr.func} used without grouping context"
            )
        return _eval_aggregate(expr, members, db)
    if isinstance(expr, Arith):
        left = _eval_expr(expr.left, env, db, env_columns)
        right = _eval_expr(expr.right, env, db, env_columns)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if right == 0:
                return None
            return left / right
        except TypeError as exc:
            raise SqlExecutionError(f"arithmetic type error: {exc}") from exc
    raise SqlExecutionError(f"cannot evaluate {type(expr).__name__}")


def _eval_aggregate(expr: AggExpr, members: list[Row], db: Database) -> object:
    if isinstance(expr.arg, Star):
        values: list[object] = [1] * len(members)
    else:
        values = []
        for member in members:
            value = _eval_expr(expr.arg, member, db)
            if value is not None:
                values.append(value)
    if expr.distinct:
        seen = set()
        unique = []
        for value in values:
            key = _comparable(value)
            if key not in seen:
                seen.add(key)
                unique.append(value)
        values = unique
    if expr.func == "count":
        return len(values)
    if not values:
        return None
    if expr.func in ("sum", "avg"):
        try:
            total = sum(values)  # type: ignore[arg-type]
        except TypeError as exc:
            raise SqlExecutionError(
                f"{expr.func} over non-numeric values: {exc}"
            ) from exc
        return total if expr.func == "sum" else total / len(values)
    if expr.func == "min":
        return min(values, key=_orderable)
    if expr.func == "max":
        return max(values, key=_orderable)
    raise SqlExecutionError(f"unknown aggregate: {expr.func}")


def _eval_condition(
    condition: Condition, env: Row, db: Database, group: bool = False
) -> bool:
    result = _eval_predicate(condition.predicates[0], env, db)
    for connector, predicate in zip(condition.connectors, condition.predicates[1:]):
        value = _eval_predicate(predicate, env, db)
        if connector == "and":
            result = result and value
        else:
            result = result or value
    return result


def _values_equal(left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, str) and isinstance(right, str):
        return left.lower() == right.lower()
    if isinstance(left, str) != isinstance(right, str):
        return str(left).lower() == str(right).lower()
    return left == right


def _compare(op: str, left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    if op == "=":
        return _values_equal(left, right)
    if op == "!=":
        return not _values_equal(left, right)
    if isinstance(left, str) or isinstance(right, str):
        left_c, right_c = str(left).lower(), str(right).lower()
    else:
        left_c, right_c = left, right
    try:
        if op == "<":
            return left_c < right_c
        if op == ">":
            return left_c > right_c
        if op == "<=":
            return left_c <= right_c
        if op == ">=":
            return left_c >= right_c
    except TypeError:
        return False
    raise SqlExecutionError(f"unknown comparison operator: {op}")


def _eval_predicate(predicate: Predicate, env: Row, db: Database) -> bool:
    left = _eval_expr(predicate.left, env, db)
    op = predicate.op

    if isinstance(predicate.right, (SelectQuery, SetQuery)):
        sub_rows = execute(predicate.right, db)
        sub_values = [row[0] for row in sub_rows if row]
        if op == "in":
            hit = any(_values_equal(left, v) for v in sub_values)
            return hit != predicate.negated
        if not sub_values:
            return False
        # Scalar comparison against a subquery: compare with its first value
        # (the generator only emits single-value scalar subqueries).
        hit = _compare(op, left, sub_values[0])
        return hit != predicate.negated

    if op == "in":
        assert isinstance(predicate.right, tuple)
        values = [lit.value for lit in predicate.right]
        hit = any(_values_equal(left, v) for v in values)
        return hit != predicate.negated

    if op == "between":
        low = _eval_expr(predicate.right, env, db)  # type: ignore[arg-type]
        high = _eval_expr(predicate.right2, env, db)  # type: ignore[arg-type]
        hit = _compare(">=", left, low) and _compare("<=", left, high)
        return hit != predicate.negated

    if op == "like":
        right = _eval_expr(predicate.right, env, db)  # type: ignore[arg-type]
        if left is None or right is None:
            return False
        pattern = re.escape(str(right)).replace("%", ".*").replace("_", ".")
        hit = re.fullmatch(pattern, str(left), re.IGNORECASE) is not None
        return hit != predicate.negated

    right = _eval_expr(predicate.right, env, db)  # type: ignore[arg-type]
    hit = _compare(op, left, right)
    return hit != predicate.negated
