"""Schema model tests."""

import pytest

from repro.data.spider import build_databases
from repro.schema.schema import NUMBER, Column, ForeignKey, Schema, Table
from repro.sqlkit.errors import SchemaError


@pytest.fixture()
def schema(world_db):
    return world_db.schema


class TestLookups:
    def test_table_case_insensitive(self, schema):
        assert schema.table("COUNTRY").name == "country"

    def test_missing_table_raises(self, schema):
        with pytest.raises(SchemaError):
            schema.table("nope")

    def test_column_lookup(self, schema):
        column = schema.table("country").column("Population")
        assert column.ctype == NUMBER

    def test_missing_column_raises(self, schema):
        with pytest.raises(SchemaError):
            schema.table("country").column("nope")

    def test_tables_of_column(self, schema):
        owners = schema.tables_of_column("population")
        assert [t.name for t in owners] == ["country"]

    def test_resolve_column_unique(self, schema):
        resolved = schema.resolve_column(
            "language", ("country", "countrylanguage")
        )
        assert resolved == "countrylanguage"

    def test_resolve_column_ambiguous(self):
        schema = Schema(
            db_id="x",
            tables=(
                Table("a", (Column("name"),)),
                Table("b", (Column("name"),)),
            ),
        )
        assert schema.resolve_column("name", ("a", "b")) is None


def _scan(items, name):
    """The first item whose name equals *name* ignoring case, or None."""
    for item in items:
        if item.name.lower() == name.lower():
            return item
    return None


def _cases(name):
    mixed = "".join(
        ch.upper() if i % 2 else ch.lower() for i, ch in enumerate(name)
    )
    return (name.lower(), name.upper(), mixed)


class TestNameMaps:
    def test_maps_agree_with_a_scan_in_every_case(self):
        duplicated = Table("t", (Column("Name"), Column("name", NUMBER)))
        schemas = [db.schema for db in build_databases().values()]
        schemas.append(Schema(db_id="dup", tables=(duplicated, Table("T", ()))))
        for schema in schemas:
            for table in schema.tables:
                for name in _cases(table.name):
                    assert schema.table(name) is _scan(schema.tables, name)
                    assert schema.has_table(name)
                for column in table.columns:
                    for name in _cases(column.name):
                        assert table.column(name) is _scan(table.columns, name)
                        assert table.has_column(name)
                with pytest.raises(SchemaError):
                    table.column("no_such_column")
                assert not table.has_column("no_such_column")
            with pytest.raises(SchemaError):
                schema.table("no_such_table")
            assert not schema.has_table("no_such_table")
        # The first of two names equal but for case wins, as in the scan.
        assert duplicated.column("NAME").ctype != NUMBER
        assert schemas[-1].table("t") is duplicated


class TestJoins:
    def test_join_condition(self, schema):
        fk = schema.join_condition("countrylanguage", "country")
        assert fk is not None
        assert fk.parent_column == "code"

    def test_join_condition_symmetric(self, schema):
        assert schema.join_condition("country", "countrylanguage") is not None

    def test_join_path_direct(self, schema):
        path = schema.join_path("country", "countrylanguage")
        assert path == ["country", "countrylanguage"]

    def test_join_path_self(self, schema):
        assert schema.join_path("country", "country") == ["country"]

    def test_join_path_missing(self, schema):
        assert schema.join_path("country", "nonexistent") is None

    def test_join_path_transitive(self):
        schema = Schema(
            db_id="chain",
            tables=(
                Table("a", (Column("id", NUMBER),)),
                Table("b", (Column("id", NUMBER), Column("aid", NUMBER))),
                Table("c", (Column("id", NUMBER), Column("bid", NUMBER))),
            ),
            foreign_keys=(
                ForeignKey("b", "aid", "a", "id"),
                ForeignKey("c", "bid", "b", "id"),
            ),
        )
        assert schema.join_path("a", "c") == ["a", "b", "c"]


class TestKeyDetection:
    def test_fk_columns_are_keys(self, schema):
        assert schema.is_key_column("countrylanguage", "countrycode")
        assert schema.is_key_column("country", "code")

    def test_id_suffix_heuristic(self):
        schema = Schema(
            db_id="x", tables=(Table("t", (Column("emp_id", NUMBER),)),)
        )
        assert schema.is_key_column("t", "emp_id")

    def test_plain_column_not_key(self, schema):
        assert not schema.is_key_column("country", "population")


class TestVocabulary:
    def test_table_phrase(self, schema):
        assert schema.table_phrase("countrylanguage") == "countrylanguage"

    def test_column_phrase_prettifies(self):
        table = Table("t", (Column("pet_age", NUMBER),))
        schema = Schema(db_id="x", tables=(table,))
        assert schema.column_phrase("pet_age", "t") == "pet age"

    def test_column_phrase_uses_annotation(self):
        table = Table(
            "t", (Column("hs", NUMBER, phrase="training hours"),)
        )
        schema = Schema(db_id="x", tables=(table,))
        assert schema.column_phrase("hs", "t") == "training hours"

    def test_column_pairs(self, schema):
        pairs = schema.column_pairs()
        assert len(pairs) == sum(len(t.columns) for t in schema.tables)
