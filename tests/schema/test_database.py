"""In-memory database tests."""

import sys
import threading

import pytest

from repro.schema.database import Database
from repro.schema.index import DatabaseIndex
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


class TestIndex:
    def test_distinct_string_values_in_first_appearance_order(self, db):
        for name in ("Bo Li", "ann", "Bo Li", "!!", "Ann"):
            db.insert("t", {"name": name})
        db.insert("t", {"name": None, "age": 3})
        assert db.index.values("T", "NAME") == (
            ("Bo Li", "bo li", ("bo", "li")),
            ("ann", "ann", ("ann",)),
            ("Ann", "ann", ("ann",)),
        )
        assert db.index.values("t", "age") == ()

    def test_phrase_words(self, db):
        words = db.index.table("T")
        assert words.phrase_words == (("t",),)  # name and nl form agree
        assert words.columns["name"].phrase_words == (("name",),)
        assert db.index.column("t", "AGE").mention_words == ((["age"], ("age",)),)
        with pytest.raises(SchemaError):
            db.index.column("t", "nope")
        with pytest.raises(SchemaError):
            db.index.table("nope")

    def test_read_after_insert_sees_the_new_row(self, db):
        from repro.models.cues import find_mentioned_values

        db.insert("t", {"name": "Ann"})
        before = db.index
        assert find_mentioned_values("is zoe lee here", db) == []
        db.insert("t", {"name": "Zoe Lee"})
        assert db.index is not before
        assert db.index.values("t", "name")[-1].value == "Zoe Lee"
        assert find_mentioned_values("is zoe lee here", db) == [
            ("t", "name", "Zoe Lee", 2.0)
        ]

    def test_index_is_built_once(self, db):
        db.insert("t", {"name": "Ann"})
        assert db.index is db.index

    def test_concurrent_first_reads_each_see_a_whole_index(self, world_db):
        """Workers share a database: every first reader gets a complete
        index, and a later read returns one that a reader published."""
        expected = DatabaseIndex(world_db)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for __ in range(20):
                db = Database(world_db.schema, rows=world_db.rows)
                seen, failures = [], []

                def read():
                    index = db.index
                    seen.append(index)
                    if (index.text_values, index.tables) != (
                        expected.text_values,
                        expected.tables,
                    ):
                        failures.append(index)

                threads = [threading.Thread(target=read) for __ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 8 and failures == []
                assert any(db.index is index for index in seen)
        finally:
            sys.setswitchinterval(interval)
