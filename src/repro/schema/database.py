"""In-memory relational database.

Rows are stored as plain dicts keyed by lowercase column name.  The database
validates inserted rows against the schema and provides the value lookups
used by MetaSQL's value-grounding step (finding which column holds a literal
mentioned in an NL question), tokenized once in its :attr:`Database.index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schema.index import DatabaseIndex
from repro.schema.schema import Schema
from repro.sqlkit.errors import SchemaError


@dataclass
class Database:
    """A schema plus its table contents."""

    schema: Schema
    rows: dict[str, list[dict[str, object]]] = field(default_factory=dict)
    _index: DatabaseIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for table in self.schema.tables:
            self.rows.setdefault(table.name.lower(), [])

    def insert(self, table: str, row: dict[str, object]) -> None:
        """Insert one row, validating column names and coercing case."""
        table_obj = self.schema.table(table)
        clean: dict[str, object] = {}
        for key, value in row.items():
            if not table_obj.has_column(key):
                raise SchemaError(
                    f"no column {key!r} in table {table_obj.name!r}"
                )
            clean[key.lower()] = value
        for column in table_obj.columns:
            clean.setdefault(column.name.lower(), None)
        self.rows[table_obj.name.lower()].append(clean)
        self._index = None

    def insert_many(self, table: str, rows: list[dict[str, object]]) -> None:
        for row in rows:
            self.insert(table, row)

    @property
    def index(self) -> DatabaseIndex:
        """The stored values and schema phrases, tokenized on first read.

        Serving workers share a database, so the index is built into a
        local and published with one attribute assignment: a reader sees
        no index or a whole one, and two first readers at worst both build
        it.  ``insert`` drops it; rows changed any other way need a new
        ``Database``.
        """
        index = self._index
        if index is None:
            index = self._index = DatabaseIndex(self)
        return index

    def table_rows(self, table: str) -> list[dict[str, object]]:
        lowered = table.lower()
        if lowered not in self.rows:
            raise SchemaError(f"no table {table!r} in database")
        return self.rows[lowered]

    def column_values(self, table: str, column: str) -> list[object]:
        """All non-null values stored in a column."""
        column_l = column.lower()
        return [
            row[column_l]
            for row in self.table_rows(table)
            if row.get(column_l) is not None
        ]

    def size(self) -> int:
        """Total number of rows across all tables."""
        return sum(len(rows) for rows in self.rows.values())
