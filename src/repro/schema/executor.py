"""SQL executor over the in-memory database.

Supports the Spider-compatible subset: multi-table FROM with explicit or
FK-inferred equi-joins, WHERE/HAVING with AND/OR, uncorrelated subqueries
(IN / comparison), GROUP BY with aggregates, ORDER BY with LIMIT, DISTINCT
and top-level set operations.  Used by the execution-accuracy (EX) metric
and by the interactive examples.

Semantics notes (documented divergences from full SQL):

- comparisons with NULL are false (no three-valued logic),
- string comparisons are case-insensitive (robust to NL-cased values),
- aggregates over an empty group: ``count`` is 0, others are NULL,
- a bare column under GROUP BY takes the group's first row value.

Each call compiles its query once: column names resolve to tuple slots
per SELECT, expressions and conditions become closures over row tuples,
and each uncorrelated subquery runs once.  Errors stay lazy — a name that
does not resolve raises only when a row reaches it.

Execution is bounded by an optional :class:`ExecutionBudget` (row/step
limits) so a pathological candidate query — e.g. an accidental cartesian
product over large tables — raises :class:`ExecutionBudgetError` instead
of hanging evaluation.  The budget is ambient (a context variable), so
nested subquery execution draws from the same allowance.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterator

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

ResultRow = tuple[object, ...]
#: A FROM row as a tuple; a group is its first row plus ``(members,)``.
Env = tuple
Getter = Callable[[Env], object]
Test = Callable[[Env], bool]


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
    so repeated top-level calls under one scope charge the same allowance
    cumulatively.
    """
    fire("executor.execute")
    if budget is None:
        return _Run(db).query(query)
    token = _BUDGET.set(budget)
    try:
        return _Run(db).query(query)
    finally:
        _BUDGET.reset(token)


class _Run:
    """One :func:`execute` call: its table tuples and subquery results."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.tables: dict[str, list[Env]] = {}

    def query(self, query: Query) -> list[ResultRow]:
        if isinstance(query, SetQuery):
            left = self.query(query.left)
            right = self.query(query.right)
            return _apply_set_op(query.op, left, right)
        return self.select(query)

    def table(self, table) -> list[Env]:
        """The rows of *table* as tuples in schema column order."""
        name = table.name.lower()
        if name not in self.tables:
            pick = itemgetter(*[column.name.lower() for column in table.columns])
            rows = [pick(row) for row in self.db.table_rows(name)]
            self.tables[name] = rows if len(table.columns) > 1 else [(v,) for v in rows]
        return self.tables[name]

    def select(self, query: SelectQuery) -> list[ResultRow]:
        env_rows, scope = self.from_(query)
        _charge(len(env_rows))

        if query.where is not None:
            where = _compile_condition(query.where, scope, self)
            env_rows = [row for row in env_rows if where(row)]

        if query.group_by:
            keys = [_compile_column(ref, scope) for ref in query.group_by]
            groups: dict[tuple, list[Env]] = {}
            for row in env_rows:
                key = tuple([_comparable(get(row)) for get in keys])
                groups.setdefault(key, []).append(row)
            result_envs = [members[0] + (members,) for members in groups.values()]
            scope = replace(scope, rows=scope)
            if query.having is not None:
                having = _compile_condition(query.having, scope, self)
                result_envs = [env for env in result_envs if having(env)]
        elif _select_has_aggregate(query):
            # One group of every row and no first row: no column resolves.
            result_envs = [(env_rows,)]
            scope = _Scope({}, scope.columns, rows=scope)
        else:
            result_envs = env_rows

        ordered = list(result_envs)
        if query.order_by:
            _charge(len(ordered) * len(query.order_by))
            # Stable multi-key sort: apply keys from least to most significant.
            for item in reversed(query.order_by):
                get = _compile_expr(item.expr, scope, self)
                ordered.sort(
                    key=lambda env, get=get: _orderable(get(env)), reverse=item.desc
                )

        # SELECT * expands to all columns of the FROM environment.
        parts = [
            _compile_star(e, scope) if isinstance(e, Star)
            else (lambda env, get=_compile_expr(e, scope, self): (get(env),))
            for e in query.select
        ]
        projected = [tuple([v for part in parts for v in part(env)]) for env in ordered]

        if query.distinct:
            projected = _dedupe(projected)
        if query.limit is not None:
            projected = projected[: query.limit]
        return projected

    def from_(self, query: SelectQuery) -> tuple[list[Env], _Scope]:
        from_ = query.from_
        if from_.subquery is not None:
            sub_rows = self.query(from_.subquery)
            columns = _subquery_column_names(from_.subquery, self.db.schema)
            # A row shorter than the names lacks the last ones.
            keys = {name: slot for slot, name in enumerate(dict.fromkeys(columns))}
            env_rows = [
                tuple([named.get(name, _MISSING) for name in keys])
                for named in (dict(zip(columns, row)) for row in sub_rows)
            ]
            return env_rows, _Scope(keys, columns, partial=True)

        named = [name.lower() for name in from_.tables]
        if len(set(named)) < len(named):
            # The AST is alias-free, so a self-join's two copies would share
            # one set of column names: refuse rather than answer wrongly.
            raise SqlExecutionError(
                f"table named twice in FROM: {', '.join(from_.tables)}"
            )
        schema = self.db.schema
        tables = [schema.table(name) for name in from_.tables]
        layout = [
            f"{table.name.lower()}.{column.name.lower()}"
            for table in tables
            for column in table.columns
        ]
        joined = self.table(tables[0])
        _charge_rows(len(joined))
        attached = [tables[0].name.lower()]
        for table in tables[1:]:
            table_l = table.name.lower()
            conditions = _join_conditions_for(
                table_l, attached, list(from_.joins), schema, from_.tables
            )
            right_rows = self.table(table)
            # Pre-charge the full join product: a runaway cartesian explosion
            # must trip the budget before the work is done, not after.
            _charge(len(joined) * len(right_rows))
            # Slots of the merged row's names.
            width = sum(len(t.columns) for t in tables[: len(attached) + 1])
            slots = {name: slot for slot, name in enumerate(layout[:width])}
            pairs = [(slots.get(a), slots.get(b)) for a, b in conditions]
            if any(a is None or b is None for a, b in pairs):
                joined = []  # a name the rows lack is NULL, which equals nothing
            else:
                joined = _join(joined, right_rows, width - len(table.columns), pairs)
            _charge_rows(len(joined))
            attached.append(table_l)

        # Each qualified name maps to its slot; unambiguous bare names follow.
        keys = {name: slot for slot, name in enumerate(layout)}
        bare = Counter(name.split(".", 1)[1] for name in layout)
        for name in layout:
            if bare[name.split(".", 1)[1]] == 1:
                keys[name.split(".", 1)[1]] = keys[name]
        return joined, _Scope(keys, layout)


def _join(
    left_rows: list[Env], right_rows: list[Env], width: int, pairs: list
) -> list[Env]:
    """Left rows joined to the right rows equal on every pair of slots.

    Slots index the merged row, whose first *width* values are the left
    row's.  Rows come in nested-loop order; a pair linking the two sides
    finds each left row's partners through an index of the right column.
    """
    link = next(((a, b) for a, b in map(sorted, pairs) if a < width <= b), None)
    if link is not None:
        partners = _equal_index([row[link[1] - width] for row in right_rows])
        pairs = [p for p in pairs if sorted(p) != list(link)]
    out: list[Env] = []
    for left in left_rows:
        rights = right_rows
        if link is not None:
            rights = [right_rows[i] for i in partners(left[link[0]])]
        for right in rights:
            row = left + right
            if all(_values_equal(row[a], row[b]) for a, b in pairs):
                out.append(row)
    return out


def _equal_index(values: list[object]) -> Callable[[object], list[int]]:
    """The ascending positions of *values* that equal a probe.

    Equal as :func:`_values_equal` has it: strings case-insensitively, a
    string and a number by their lowercased ``str()``, two numbers by
    ``==`` (whose hashes agree).  Any other type is matched by a scan.
    """
    texts: dict[str, list[int]] = {}
    numbers_as_text: dict[str, list[int]] = {}
    numbers: dict[object, list[int]] = {}

    def scan(probe: object) -> list[int]:
        return [i for i, value in enumerate(values) if _values_equal(probe, value)]

    for i, value in enumerate(values):
        if isinstance(value, str):
            texts.setdefault(value.lower(), []).append(i)
        elif isinstance(value, (int, float)):
            numbers_as_text.setdefault(str(value).lower(), []).append(i)
            if value == value:  # NaN equals no number
                numbers.setdefault(value, []).append(i)
        elif value is not None:
            return scan

    def match(probe: object) -> list[int]:
        if isinstance(probe, str):
            same = texts.get(probe.lower(), [])
            other = numbers_as_text.get(probe.lower(), [])
        elif isinstance(probe, (int, float)):
            same = numbers.get(probe, []) if probe == probe else []
            other = texts.get(str(probe).lower(), [])
        else:
            return [] if probe is None else scan(probe)
        return sorted(same + other) if same and other else same or other

    return match


# ----------------------------------------------------------------------
# Compiling expressions and conditions against a scope.

_MISSING = object()  # a name a short FROM-subquery row lacks
_ARITH = {"+": add, "-": sub, "*": mul}


@dataclass(frozen=True)
class _Scope:
    """Where each column name of an environment tuple lives.

    ``keys`` maps qualified and unambiguous bare names to slots, in the
    order a row dict would list them; ``SELECT *`` expands to ``columns``.
    A group scope has the FROM scope as ``rows``: its environments end in
    their member rows.  ``partial`` rows may hold ``_MISSING``.
    """

    keys: dict[str, int]
    columns: list[str]
    partial: bool = False
    rows: _Scope | None = None


def _raiser(message: str) -> Getter:
    """A getter that fails only when a row reaches it: errors stay lazy."""

    def fail(env: Env) -> object:
        raise SqlExecutionError(message)

    return fail


def _compile_column(ref: ColumnRef, scope: _Scope) -> Getter:
    column, keys = ref.column.lower(), scope.keys
    qualified = f"{(ref.table or '').lower()}.{column}"
    if ref.table is not None and qualified in keys:
        slot = keys[qualified]
    elif column in keys:
        slot = keys[column]
    else:  # try any qualified variant
        suffix = f".{column}"
        slot = next((s for name, s in keys.items() if name.endswith(suffix)), None)
    message = f"unknown column {ref.key()!r} in row scope"
    if slot is None:
        return _raiser(message)
    if not scope.partial:
        return itemgetter(slot)

    def get(env: Env) -> object:
        if env[slot] is _MISSING:
            raise SqlExecutionError(message)
        return env[slot]

    return get


def _compile_star(expr: Star, scope: _Scope) -> Callable[[Env], tuple]:
    prefix = "" if expr.table is None else expr.table.lower() + "."
    slots = [scope.keys.get(c) for c in scope.columns if c.startswith(prefix)]
    return lambda env: tuple(
        [None if s is None or env[s] is _MISSING else env[s] for s in slots]
    )


def _compile_expr(expr: ValueExpr, scope: _Scope, run: _Run) -> Getter:
    if isinstance(expr, Literal):
        return lambda env, value=expr.value: value
    if isinstance(expr, ColumnRef):
        return _compile_column(expr, scope)
    if isinstance(expr, Star):
        return _raiser("bare * outside aggregate/select context")
    if isinstance(expr, AggExpr):
        if scope.rows is None:
            return _raiser(f"aggregate {expr.func} used without grouping context")
        return _compile_aggregate(expr, scope, run)
    if isinstance(expr, Arith):
        return _compile_arith(expr, scope, run)
    return _raiser(f"cannot evaluate {type(expr).__name__}")


def _compile_arith(expr: Arith, scope: _Scope, run: _Run) -> Getter:
    left_of = _compile_expr(expr.left, scope, run)
    right_of = _compile_expr(expr.right, scope, run)
    op = expr.op

    def arith(env: Env) -> object:
        left, right = left_of(env), right_of(env)
        if left is None or right is None:
            return None
        try:
            if op in _ARITH:
                return _ARITH[op](left, right)
            return None if right == 0 else left / right
        except TypeError as exc:
            raise SqlExecutionError(f"arithmetic type error: {exc}") from exc

    return arith


def _compile_aggregate(expr: AggExpr, scope: _Scope, run: _Run) -> Getter:
    star, func = isinstance(expr.arg, Star), expr.func
    arg = None if star else _compile_expr(expr.arg, scope.rows, run)

    def aggregate(env: Env) -> object:
        members = env[-1]
        if arg is None:
            values: list[object] = [1] * len(members)
        else:
            values = [value for value in map(arg, members) if value is not None]
        if expr.distinct:
            unique: dict[object, object] = {}
            for value in values:
                unique.setdefault(_comparable(value), value)
            values = list(unique.values())
        if func == "count":
            return len(values)
        if not values:
            return None
        if func in ("sum", "avg"):
            try:
                total = sum(values)  # type: ignore[arg-type]
            except TypeError as exc:
                raise SqlExecutionError(
                    f"{func} over non-numeric values: {exc}"
                ) from exc
            return total if func == "sum" else total / len(values)
        if func in ("min", "max"):
            return (min if func == "min" else max)(values, key=_orderable)
        raise SqlExecutionError(f"unknown aggregate: {func}")

    return aggregate


def _compile_condition(condition: Condition, scope: _Scope, run: _Run) -> Test:
    first, *rest = [_compile_predicate(p, scope, run) for p in condition.predicates]
    links = list(zip(condition.connectors, rest))
    if not links:
        return first

    def test(env: Env) -> bool:
        # Every predicate is evaluated: the connectors do not short-circuit.
        result = first(env)
        for connector, predicate in links:
            value = predicate(env)
            result = (result and value) if connector == "and" else (result or value)
        return result

    return test


def _subquery(query: Query, run: _Run) -> Callable[[], tuple[list, Callable]]:
    """An uncorrelated subquery's first-column values and their index.

    The subquery runs on first use only, charging the budget as it goes;
    each later use replays that recorded charge, so the budget counts the
    same steps as running it again would, and trips where a rerun would.
    """
    memo: list = []

    def result() -> tuple[list, Callable]:
        budget = _BUDGET.get()
        if memo:
            if budget is not None:
                budget.charge(memo[2])
        else:
            before = budget.steps if budget is not None else 0
            values = [row[0] for row in run.query(query) if row]
            spent = budget.steps - before if budget is not None else 0
            memo[:] = [values, _equal_index(values), spent]
        return memo[0], memo[1]

    return result


def _compile_predicate(predicate: Predicate, scope: _Scope, run: _Run) -> Test:
    left_of = _compile_expr(predicate.left, scope, run)
    op, negated, right = predicate.op, predicate.negated, predicate.right

    if isinstance(right, (SelectQuery, SetQuery)):
        subquery = _subquery(right, run)

        def sub_test(env: Env) -> bool:
            left = left_of(env)
            values, index = subquery()
            if op == "in":
                return bool(index(left)) != negated
            if not values:
                return False
            # Scalar comparison against a subquery: compare with its first
            # value (the generator only emits single-value scalar subqueries).
            return _compare(op, left, values[0]) != negated

        return sub_test

    if op == "in":
        index = _equal_index([lit.value for lit in right])  # type: ignore[union-attr]
        return lambda env: bool(index(left_of(env))) != negated

    right_of = _compile_expr(right, scope, run)
    if op == "between":
        high_of = _compile_expr(predicate.right2, scope, run)  # type: ignore[arg-type]

        def between(env: Env) -> bool:
            left, low, high = left_of(env), right_of(env), high_of(env)
            hit = _compare(">=", left, low) and _compare("<=", left, high)
            return hit != negated

        return between

    if op == "like":

        def like(env: Env) -> bool:
            left, pattern = left_of(env), right_of(env)
            if left is None or pattern is None:
                return False
            regex = re.escape(str(pattern)).replace("%", ".*").replace("_", ".")
            hit = re.fullmatch(regex, str(left), re.IGNORECASE) is not None
            return hit != negated

        return like

    return lambda env: _compare(op, left_of(env), right_of(env)) != negated


# ----------------------------------------------------------------------
# Set operations and value semantics.


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


def _subquery_column_names(query: Query, schema) -> list[str]:
    """Column namespace exposed by a FROM-subquery: one name per value of
    its rows, ``*`` naming every column it expands to."""
    while isinstance(query, SetQuery):
        query = query.left
    names = []
    for index, expr in enumerate(query.select):
        if isinstance(expr, Star):
            names.extend(_star_names(expr, query.from_, schema))
        elif isinstance(expr, ColumnRef):
            names.append(expr.column.lower())
        elif isinstance(expr, AggExpr) and isinstance(expr.arg, ColumnRef):
            names.append(f"{expr.func}({expr.arg.column.lower()})")
        elif isinstance(expr, AggExpr):
            names.append(f"{expr.func}(*)")
        else:
            names.append(f"col{index}")
    return names


def _star_names(star: Star, from_, schema) -> list[str]:
    """The names of the columns *star* projects, as :func:`_compile_star`
    picks them from the FROM clause's columns."""
    prefix = "" if star.table is None else star.table.lower() + "."
    if from_.subquery is not None:
        columns = _subquery_column_names(from_.subquery, schema)
        return [name for name in columns if name.startswith(prefix)]
    return [
        column.name.lower()
        for table in map(schema.table, from_.tables)
        for column in table.columns
        if f"{table.name.lower()}.".startswith(prefix)
    ]


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


def _comparable(value: object):
    if isinstance(value, str):
        return value.lower()
    return value


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
