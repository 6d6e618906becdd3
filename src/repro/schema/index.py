"""Question-independent lookup tables of one database.

Value grounding, cue extraction and schema linking compare every question
with the same stored values and schema phrases.  A
:class:`DatabaseIndex` tokenizes them once per database; it is built on
the first read of :attr:`Database.index
<repro.schema.database.Database.index>` and dropped by
:meth:`Database.insert <repro.schema.database.Database.insert>`.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple

from repro.nn.text import question_tokens, tokenize_text
from repro.schema.schema import TEXT
from repro.sqlkit.errors import SchemaError

if TYPE_CHECKING:
    from repro.schema.database import Database


class TextValue(NamedTuple):
    """One distinct string stored in a text column."""

    value: str
    lower: str  # ``value.lower()``
    words: tuple[str, ...]  # its distinct ``tokenize_text`` words, never empty


class ColumnWords(NamedTuple):
    """A column's phrases: its name, ``nl`` form and synonyms."""

    #: each phrase's distinct ``tokenize_text`` words (lexicon name overlap).
    phrase_words: tuple[tuple[str, ...], ...]
    #: each phrase's ``question_tokens`` list (the name with underscores
    #: as spaces), and its distinct words that are not the table's own
    #: (the words of the table's ``nl`` form and name), or all of them
    #: when every one is (question mention positions).
    mention_words: tuple[tuple[list[str], tuple[str, ...]], ...]


class TableWords(NamedTuple):
    """A table's phrases, and those of its columns by lowercased name."""

    #: the distinct ``tokenize_text`` words of its name, ``nl`` form and
    #: synonyms.
    phrase_words: tuple[tuple[str, ...], ...]
    columns: dict[str, ColumnWords]  # schema order


class DatabaseIndex:
    """Stored text values and schema phrase words, tokenized once.

    ``text_values`` maps each ``(table, column)`` of a text column, by
    lowercased names in schema order, to its distinct string values in
    first-appearance order; a value with no word is left out, since no
    reader can match it.  ``tables`` holds every table's
    :class:`TableWords` by lowercased name.  Phrases without a word are
    left out of both, and so is a phrase whose words repeat an earlier
    one's (a name and an ``nl`` form often agree): every reader takes a
    maximum or a union over the phrases.  Word groups are tuples, not
    sets: a reader intersects them with the question's token set, and a
    tuple of a few words is a quarter of a frozenset's size.
    """

    def __init__(self, db: Database) -> None:
        self.text_values: dict[tuple[str, str], tuple[TextValue, ...]] = {}
        self.tables: dict[str, TableWords] = {}
        for table in db.schema.tables:
            own_words = frozenset(
                question_tokens(table.nl)
                + question_tokens(table.name.replace("_", " "))
            )
            columns = {}
            for column in table.columns:
                name = column.name.lower()
                columns[name] = ColumnWords(
                    _phrase_words((column.name, column.nl, *column.synonyms)),
                    _mention_words(
                        (name.replace("_", " "), column.nl, *column.synonyms),
                        own_words,
                    ),
                )
                if column.ctype == TEXT:
                    self.text_values[(table.name.lower(), name)] = _text_values(
                        db.column_values(table.name, column.name)
                    )
            self.tables[table.name.lower()] = TableWords(
                _phrase_words((table.name, table.nl, *table.synonyms)), columns
            )

    def values(self, table: str, column: str) -> tuple[TextValue, ...]:
        """The distinct values of a text column; empty for any other."""
        return self.text_values.get((table.lower(), column.lower()), ())

    def table(self, name: str) -> TableWords:
        words = self.tables.get(name.lower())
        if words is None:
            raise SchemaError(f"no table {name!r} in database")
        return words

    def column(self, table: str, column: str) -> ColumnWords:
        words = self.table(table).columns.get(column.lower())
        if words is None:
            raise SchemaError(f"no column {column!r} in table {table!r}")
        return words


def _text_values(stored: list[object]) -> tuple[TextValue, ...]:
    seen: set[str] = set()
    values = []
    for value in stored:
        if not isinstance(value, str) or value in seen:
            continue
        seen.add(value)
        words = _distinct(tokenize_text(value))
        if words:
            lower = value.lower()
            # Share the stored string when lowercasing leaves it as is.
            values.append(TextValue(value, value if lower == value else lower, words))
    return tuple(values)


def _distinct(words: list[str]) -> tuple[str, ...]:
    # Interned: the same few words recur across values and phrases.
    return tuple(dict.fromkeys(map(sys.intern, words)))


def _phrase_words(phrases) -> tuple[tuple[str, ...], ...]:
    groups = (_distinct(tokenize_text(phrase)) for phrase in phrases)
    return tuple(dict.fromkeys(words for words in groups if words))


def _mention_words(phrases, own_words: frozenset[str]):
    mentions = {}
    for phrase in phrases:
        words = tuple(map(sys.intern, question_tokens(phrase)))
        if words and words not in mentions:
            distinctive = [w for w in words if w not in own_words] or words
            mentions[words] = (list(words), _distinct(distinctive))
    return tuple(mentions.values())
