"""Database schema model with NL annotations.

A :class:`Schema` describes tables, typed columns and foreign keys, plus the
natural-language phrases used by the benchmark generators and the SQL-to-NL
templates.  Identifiers are matched case-insensitively; the canonical form is
lowercase.  Lookups read a lowercased name map built on first use; when
two names differ only in case, the first one declared wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.sqlkit.errors import SchemaError

#: Supported column types.
TEXT = "text"
NUMBER = "number"


@dataclass(frozen=True)
class Column:
    """One column: name, type and the NL phrase used to talk about it."""

    name: str
    ctype: str = TEXT
    phrase: str | None = None
    synonyms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.ctype not in (TEXT, NUMBER):
            raise ValueError(f"unknown column type: {self.ctype}")

    @property
    def nl(self) -> str:
        if self.phrase is not None:
            return self.phrase
        return self.name.replace("_", " ").lower()


@dataclass(frozen=True)
class Table:
    """One table: name, columns and the NL phrase for its entity."""

    name: str
    columns: tuple[Column, ...]
    phrase: str | None = None
    synonyms: tuple[str, ...] = ()

    @property
    def nl(self) -> str:
        if self.phrase is not None:
            return self.phrase
        return self.name.replace("_", " ").lower()

    @cached_property
    def _by_name(self) -> dict[str, Column]:
        return _first_by_lowered_name(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-primary key pair: (child table.column) -> (parent table.column)."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str


@dataclass(frozen=True)
class Schema:
    """A database schema: identifier, tables and foreign keys."""

    db_id: str
    tables: tuple[Table, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()

    @cached_property
    def _by_name(self) -> dict[str, Table]:
        return _first_by_lowered_name(self.tables)

    def table(self, name: str) -> Table:
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemaError(
                f"no table {name!r} in database {self.db_id!r}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._by_name

    def tables_of_column(self, column: str) -> list[Table]:
        """All tables containing a column with the given name."""
        return [t for t in self.tables if t.has_column(column)]

    def resolve_column(self, column: str, tables: tuple[str, ...]) -> str | None:
        """Find which of *tables* owns *column*; None when ambiguous/absent."""
        owners = [
            t for t in tables if self.has_table(t) and self.table(t).has_column(column)
        ]
        if len(owners) == 1:
            return owners[0]
        return None

    def is_key_column(self, table: str, column: str) -> bool:
        """True when the column participates in a PK/FK relationship.

        Uses declared foreign keys plus an ``*id`` naming heuristic; key
        columns are rarely projected in natural questions.
        """
        table_l, column_l = table.lower(), column.lower()
        for fk in self.foreign_keys:
            if (fk.child_table.lower(), fk.child_column.lower()) == (
                table_l,
                column_l,
            ):
                return True
            if (fk.parent_table.lower(), fk.parent_column.lower()) == (
                table_l,
                column_l,
            ):
                return True
        return column_l == "id" or column_l.endswith("id") or column_l.endswith("_id")

    def join_condition(self, left: str, right: str) -> ForeignKey | None:
        """The FK linking *left* and *right* directly, if any."""
        left_l, right_l = left.lower(), right.lower()
        for fk in self.foreign_keys:
            pair = (fk.child_table.lower(), fk.parent_table.lower())
            if pair in ((left_l, right_l), (right_l, left_l)):
                return fk
        return None

    def join_graph(self) -> dict[str, set[str]]:
        """Adjacency map of tables linked by foreign keys."""
        graph: dict[str, set[str]] = {t.name.lower(): set() for t in self.tables}
        for fk in self.foreign_keys:
            graph[fk.child_table.lower()].add(fk.parent_table.lower())
            graph[fk.parent_table.lower()].add(fk.child_table.lower())
        return graph

    def join_path(self, start: str, goal: str) -> list[str] | None:
        """Shortest FK path between two tables (inclusive), or None."""
        start_l, goal_l = start.lower(), goal.lower()
        if start_l == goal_l:
            return [start_l]
        graph = self.join_graph()
        if start_l not in graph or goal_l not in graph:
            return None
        frontier = [[start_l]]
        visited = {start_l}
        while frontier:
            path = frontier.pop(0)
            for neighbour in sorted(graph[path[-1]]):
                if neighbour in visited:
                    continue
                if neighbour == goal_l:
                    return path + [neighbour]
                visited.add(neighbour)
                frontier.append(path + [neighbour])
        return None

    # ------------------------------------------------------------------
    # Vocabulary protocol (repro.sqlkit.sql2nl.Vocabulary).

    def table_phrase(self, table: str) -> str:
        found = self._by_name.get(table.lower())
        if found is not None:
            return found.nl
        return table.replace("_", " ").lower()

    def column_phrase(self, column: str, table: str | None = None) -> str:
        lowered = column.lower()
        if table is not None:
            owner = self._by_name.get(table.lower())
            if owner is not None and lowered in owner._by_name:
                return owner._by_name[lowered].nl
        for owner in self.tables:
            if lowered in owner._by_name:
                return owner._by_name[lowered].nl
        return column.replace("_", " ").lower()

    def column_pairs(self) -> list[tuple[Table, Column]]:
        """Every (table, column) pair in schema order."""
        return [(t, c) for t in self.tables for c in t.columns]


def _first_by_lowered_name(items) -> dict:
    """Lowercased name -> item, keeping the first of names equal in case."""
    index: dict = {}
    for item in items:
        index.setdefault(item.name.lower(), item)
    return index
