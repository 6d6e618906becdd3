"""Query metadata (Section III-A).

Three metadata types control candidate generation:

- **operator tags** — one per logical operator the SQL query uses
  (``project``, ``where``, ``group``, ``order``, ``join``, ``subquery``,
  ``union``/``intersect``/``except``, ...),
- **hardness value** — the integer rating from
  :func:`repro.sqlkit.hardness.hardness_rating`,
- **correctness indicator** — ``correct``/``incorrect``; always ``correct``
  at inference, flipped on negative samples during augmented training.

``flatten`` produces the prefix string prepended to the NL query during
metadata-augmented training (Fig. 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.models.sketch import extract_sketch
from repro.sqlkit.ast import Query
from repro.sqlkit.hardness import hardness_rating

CORRECT = "correct"
INCORRECT = "incorrect"

#: The full operator-tag vocabulary.
TAG_VOCABULARY = (
    "project",
    "where",
    "group",
    "having",
    "order",
    "limit",
    "join",
    "subquery",
    "agg",
    "union",
    "intersect",
    "except",
)


@dataclass(frozen=True)
class QueryMetadata:
    """One metadata condition for candidate generation."""

    tags: frozenset[str]
    rating: int
    correctness: str = CORRECT

    def flatten(self) -> str:
        """Prefix string: ``correct | rating : 400 | tags : project, except``."""
        tag_list = ", ".join(sorted(self.tags))
        return f"{self.correctness} | rating : {self.rating} | tags : {tag_list}"

    def with_correctness(self, correctness: str) -> "QueryMetadata":
        """A copy with the correctness indicator replaced."""
        return replace(self, correctness=correctness)

    def with_rating(self, rating: int) -> "QueryMetadata":
        """A copy with the hardness value replaced."""
        return replace(self, rating=rating)

    def __repr__(self) -> str:
        return f"QueryMetadata({self.flatten()})"


def extract_metadata(query: Query, correctness: str = CORRECT) -> QueryMetadata:
    """Weak-supervision metadata extraction from a gold SQL query.

    Operator tags come from the query's structural sketch; the hardness
    value from the rating calibration in :mod:`repro.sqlkit.hardness`.
    """
    sketch = extract_sketch(query)
    return QueryMetadata(
        tags=sketch.operator_tags(),
        rating=hardness_rating(query),
        correctness=correctness,
    )
