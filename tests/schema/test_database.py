"""In-memory database tests."""

import pytest

from repro.schema.database import Database
from repro.schema.schema import NUMBER, Column, Schema, Table
from repro.sqlkit.errors import SchemaError


@pytest.fixture()
def db():
    schema = Schema(
        db_id="x",
        tables=(
            Table("t", (Column("name"), Column("age", NUMBER))),
        ),
    )
    return Database(schema)


class TestInsert:
    def test_insert_and_read(self, db):
        db.insert("t", {"name": "Ann", "age": 30})
        assert db.table_rows("t") == [{"name": "Ann", "age": 30}]

    def test_insert_normalises_case(self, db):
        db.insert("T", {"NAME": "Bob", "AGE": 1})
        assert db.table_rows("t")[0]["name"] == "Bob"

    def test_missing_columns_become_null(self, db):
        db.insert("t", {"name": "Cara"})
        assert db.table_rows("t")[0]["age"] is None

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.insert("t", {"nope": 1})

    def test_unknown_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.insert("nope", {"name": "x"})


class TestQueries:
    def test_column_values_skips_nulls(self, db):
        db.insert("t", {"name": "Ann"})
        db.insert("t", {"name": "Bob", "age": 4})
        assert db.column_values("t", "age") == [4]

    def test_size(self, world_db):
        assert world_db.size() == 10
