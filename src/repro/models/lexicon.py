"""Lexicon alignment model: naive-Bayes word/SQL-element co-occurrence.

The learned analogue of neural schema linking: from training NL/SQL pairs it
estimates how strongly each question token indicates each schema element
(table, column) or SQL operation.  Scores are smoothed log-likelihood ratios;
string overlap between question tokens and identifier tokens provides the
zero-shot signal that survives transfer to unseen (ScienceBenchmark-like)
schemas.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro.data.dataset import Dataset
from repro.nn.text import tokenize_text
from repro.schema.database import Database
from repro.sqlkit.ast import (
    Query,
    iter_column_refs,
    iter_selects,
    query_tables,
)

#: Tokens too generic to carry alignment signal.
STOPWORDS = frozenset(
    """a an the of for from with and or is are was were in on to me all any
    that who whose which what show find list give return tell how many much
    number records their there them it its by per each different""".split()
)


def content_tokens(text: str) -> list[str]:
    """Question tokens with stopwords removed."""
    return [t for t in tokenize_text(text) if t not in STOPWORDS]


class Lexicon:
    """Token <-> element association scores learned from a training set."""

    def __init__(self, smoothing: float = 0.4) -> None:
        self.smoothing = smoothing
        self._pair_counts: dict[str, Counter] = defaultdict(Counter)
        self._element_counts: Counter = Counter()
        self._token_counts: Counter = Counter()
        self._total_examples = 0

    # ------------------------------------------------------------------
    # Training.

    def fit(self, train: Dataset) -> "Lexicon":
        """Count token/element co-occurrences over the training set."""
        for example in train.examples:
            tokens = set(content_tokens(example.question))
            elements = self._elements_of(example.sql, example.db_id)
            self._total_examples += 1
            for token in tokens:
                self._token_counts[token] += 1
            for element in elements:
                self._element_counts[element] += 1
                counter = self._pair_counts[element]
                for token in tokens:
                    counter[token] += 1
        return self

    @staticmethod
    def _elements_of(query: Query, db_id: str) -> set[str]:
        elements: set[str] = set()
        for table in query_tables(query):
            elements.add(f"{db_id}:tab:{table}")
        for select in iter_selects(query):
            exprs = list(select.select)
            exprs.extend(i.expr for i in select.order_by)
            for condition in (select.where, select.having):
                if condition is not None:
                    exprs.extend(p.left for p in condition.predicates)
            exprs.extend(select.group_by)
            for expr in exprs:
                for ref in iter_column_refs(expr):
                    elements.add(f"{db_id}:col:{ref.key()}")
        return elements

    # ------------------------------------------------------------------
    # Scoring.

    def _association(self, element: str, tokens: list[str]) -> float:
        """Smoothed log-likelihood-ratio association score."""
        pair = self._pair_counts.get(element)
        element_count = self._element_counts.get(element, 0)
        if pair is None or element_count == 0:
            return 0.0
        score = 0.0
        total = max(self._total_examples, 1)
        for token in tokens:
            joint = pair.get(token, 0)
            token_count = self._token_counts.get(token, 0)
            if token_count == 0:
                continue
            p_token_given_element = (joint + self.smoothing) / (
                element_count + 2 * self.smoothing
            )
            p_token = (token_count + self.smoothing) / (
                total + 2 * self.smoothing
            )
            score += math.log(p_token_given_element / p_token)
        return score

    @staticmethod
    def _name_overlap(
        tokens: set[str], phrase_words: tuple[tuple[str, ...], ...]
    ) -> float:
        """String-matching signal: identifier/phrase tokens in the question."""
        best = 0.0
        for words in phrase_words:
            hit = len(tokens.intersection(words)) / len(words)
            best = max(best, hit)
        return best

    def score_table(self, tokens: list[str], db: Database, table: str) -> float:
        """Alignment score between the question's ``content_tokens`` and a
        table of *db*."""
        token_set = set(tokens)
        words = db.index.table(table)
        learned = self._association(
            f"{db.schema.db_id}:tab:{table.lower()}", tokens
        )
        overlap = self._name_overlap(token_set, words.phrase_words)
        # Column coverage: a table whose column phrases blanket the question
        # is almost certainly in the FROM clause.
        column_hits = sorted(
            (
                self._name_overlap(token_set, column.phrase_words)
                for column in words.columns.values()
            ),
            reverse=True,
        )
        coverage = sum(column_hits[:3])
        return learned + 3.0 * overlap + 1.2 * coverage

    def score_column(
        self, tokens: list[str], db: Database, table: str, column: str
    ) -> float:
        """Alignment score between the question's ``content_tokens`` and one
        column of *db*."""
        words = db.index.column(table, column)
        key = f"{table.lower()}.{column.lower()}"
        learned = self._association(f"{db.schema.db_id}:col:{key}", tokens)
        overlap = self._name_overlap(set(tokens), words.phrase_words)
        return learned + 4.0 * overlap
