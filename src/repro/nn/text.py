"""Text featurisation: tokenizer and TF-IDF featurizer.

Replaces pre-trained sentence encoders: text is mapped to a fixed-size sparse
bag-of-features vector (word unigrams + bigrams + character trigrams hashed
into a fixed number of buckets, TF-IDF weighted), which the trainable
stage-1 towers (two-layer :class:`repro.nn.layers.MLP` networks) project
into a dense embedding space.

``transform`` and ``transform_many`` share one feature-accumulation path
(:func:`_count_matrix`), so single-text ``transform`` is exactly the
one-row case of ``transform_many``.  Every step of a row (counts, ``log``,
``+1``, ``*idf``, the norm along the row) reads that row alone, so
``transform_many`` builds a long list a block of :data:`TEXT_BLOCK` texts
at a time, and every block's row is the whole matrix's row bit for bit.

Hashes are memoized in two bounded process-wide memos because the same
question/SQL words recur across every candidate of every request, and a
question's words in the classifier, the stage-1 ranker and the few-shot
retriever: :func:`_fnv1a` per token, independent of the bucket count, and
:func:`_word_buckets` per ``(word, buckets, include_chars)``, the buckets
of a word's unigram and character trigrams.  A bigram is hashed per
occurrence (through :func:`_fnv1a`): neither a process-wide nor a
per-call bigram memo paid for its memory.

The fits of the metadata classifier and the stage-1 ranker hold their
training rows as :class:`SparseRows` (CSR: a TF-IDF row has ~69 of its
1,024 buckets set), built block by block by
:meth:`TextFeaturizer.sparse_rows`, and densify one batch at a time with
:meth:`SparseRows.take`: every batch is the dense batch bit for bit.
Inference (``transform`` and ``transform_many``) stays dense.
"""

from __future__ import annotations

import functools
import re
from array import array
from typing import NamedTuple

import numpy as np

_WORD_RE = re.compile(r"[a-z0-9]+")
_QUESTION_TOKEN_RE = re.compile(r"\d+\.\d+|[a-z0-9]+")
#: The most texts featurized in one dense block: by ``transform_many`` on a
#: long list, and by ``sparse_rows`` for each block of its CSR rows.
TEXT_BLOCK = 64


def tokenize_text(text: str) -> list[str]:
    """Lowercase word tokens (alphanumeric runs)."""
    return _WORD_RE.findall(text.lower())


def question_tokens(question: str) -> list[str]:
    """Lowercased question tokens with positions preserved; a decimal
    number such as ``2.5`` stays one token."""
    return _QUESTION_TOKEN_RE.findall(question.lower())


@functools.lru_cache(maxsize=1 << 16)
def _fnv1a(token: str) -> int:
    """Memoized 64-bit FNV-1a hash of *token* (bucket-count independent)."""
    value = 0xCBF29CE484222325
    for char in token.encode("utf-8"):
        value ^= char
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def _hash_token(token: str, buckets: int) -> int:
    """Stable string hash (FNV-1a) into ``buckets``."""
    return _fnv1a(token) % buckets


def _bigrams(words: list[str]) -> list[str]:
    return [f"{a}_{b}" for a, b in zip(words, words[1:])]


def _trigrams(word: str) -> list[str]:
    padded = f"#{word}#"
    return ["c:" + padded[i : i + 3] for i in range(len(padded) - 2)]


def text_features(text: str, include_chars: bool = True) -> list[str]:
    """Feature strings for *text*: unigrams, bigrams and char trigrams."""
    words = tokenize_text(text)
    features = list(words)
    features.extend(_bigrams(words))
    if include_chars:
        for word in words:
            features.extend(_trigrams(word))
    return features


@functools.lru_cache(maxsize=1 << 16)
def _word_buckets(word: str, buckets: int, include_chars: bool) -> array:
    """Memoized buckets of *word*'s unigram and, with *include_chars*, its
    character trigrams.  The array is shared: callers must not mutate it."""
    features = [word] + _trigrams(word) if include_chars else [word]
    return array("q", [_hash_token(f, buckets) for f in features])


def _count_matrix(
    texts: list[str], buckets: int, include_chars: bool
) -> np.ndarray:
    """Shared accumulation path: hashed-feature counts, one row per text.

    The features are those of :func:`text_features`.  Each word's unigram
    and character trigrams are hashed once per process (the bounded
    :func:`_word_buckets` memo: a question's words recur in the
    classifier, the stage-1 ranker and the few-shot retriever), each
    bigram per occurrence, and one unit-weight ``np.bincount`` over ``row
    * buckets + bucket`` counts every row into the float matrix.  The
    counts are small exact integers, so it equals the matrix a ``+= 1.0``
    per feature would build.
    """
    indices = array("q")
    lengths: list[int] = []
    for text in texts:
        start = len(indices)
        words = tokenize_text(text)
        for word in words:
            indices.extend(_word_buckets(word, buckets, include_chars))
        indices.extend(
            array("q", [_hash_token(f, buckets) for f in _bigrams(words)])
        )
        lengths.append(len(indices) - start)
    # The indices sit in one int64 buffer, not a list of Python ints
    # (8 bytes a feature, not a pointer and an int object).  Callers count
    # at most TEXT_BLOCK texts a call, a few thousand features.
    flat = np.frombuffer(indices, dtype=np.int64)
    flat += np.repeat(np.arange(len(texts), dtype=np.int64) * buckets, lengths)
    counts = np.bincount(
        flat, weights=np.ones(len(flat)), minlength=len(texts) * buckets
    )
    # Over no features at all bincount returns int64 zeros.
    return counts.astype(np.float64, copy=False).reshape(len(texts), buckets)


class SparseRows(NamedTuple):
    """Rows of a ``(len(indptr) - 1, width)`` float64 matrix in CSR form.

    Row ``i`` holds ``values[indptr[i]:indptr[i + 1]]`` at those
    ``columns``; every other entry is ``0.0``.  A ``-0.0`` is stored, so
    :meth:`take` restores every row bit for bit.
    """

    indptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    width: int

    def take(self, index: np.ndarray) -> np.ndarray:
        """The dense C-contiguous float64 rows at *index*, in its order."""
        index = np.asarray(index, dtype=np.int64)
        starts = self.indptr[index]
        lengths = self.indptr[index + 1] - starts
        # Entry k of output row r sits at starts[r] + k in columns/values.
        offsets = np.cumsum(lengths) - lengths
        positions = np.arange(lengths.sum()) + np.repeat(
            starts - offsets, lengths
        )
        rows = np.zeros((len(index), self.width))
        rows[np.repeat(np.arange(len(index)), lengths), self.columns[positions]] = (
            self.values[positions]
        )
        return rows


class TextFeaturizer:
    """TF-IDF weighted hashing vectorizer fitted on a corpus.

    ``fit`` learns inverse document frequencies per hash bucket;
    ``transform``/``transform_many`` produce L2-normalised TF-IDF
    vectors through the shared accumulation path (sublinear TF alone
    before ``fit``).
    """

    def __init__(self, buckets: int = 2048, include_chars: bool = True) -> None:
        self.buckets = buckets
        self.include_chars = include_chars
        self._idf: np.ndarray | None = None

    def fit(self, corpus: list[str]) -> "TextFeaturizer":
        document_freq = np.zeros(self.buckets)
        for text in corpus:
            seen = {
                _hash_token(f, self.buckets)
                for f in text_features(text, self.include_chars)
            }
            for bucket in seen:
                document_freq[bucket] += 1.0
        n_docs = max(len(corpus), 1)
        self._idf = np.log((1.0 + n_docs) / (1.0 + document_freq)) + 1.0
        return self

    def transform(self, text: str) -> np.ndarray:
        return self.transform_many([text])[0]

    def transform_many(self, texts: list[str]) -> np.ndarray:
        """L2-normalised ``(1 + log tf) * idf`` rows, one per text.

        A call over more than :data:`TEXT_BLOCK` texts transforms them a
        block at a time (:meth:`_block`) into the result, so it holds no
        full-size temporary.  A row depends on its own text alone, so the
        result is the one-block result bit for bit.
        """
        if len(texts) <= TEXT_BLOCK:
            return self._block(texts)
        matrix = np.empty((len(texts), self.buckets))
        for start in range(0, len(texts), TEXT_BLOCK):
            matrix[start : start + TEXT_BLOCK] = self._block(
                texts[start : start + TEXT_BLOCK]
            )
        return matrix

    def _block(self, texts: list[str]) -> np.ndarray:
        """The rows of *texts*, built in their count matrix.

        Each step writes into the matrix it reads (``out=``, and ``where=``
        so zero counts stay zero), with the same ufuncs in the same order
        as the out-of-place formula, so the result is bit-identical to it
        while the only full-size temporary is the one ``np.linalg.norm``
        squares into.  Every step but the norm acts element by element,
        and the norm sums along the row alone.
        """
        matrix = _count_matrix(texts, self.buckets, self.include_chars)
        positive = matrix > 0
        np.log(matrix, out=matrix, where=positive)
        np.add(matrix, 1.0, out=matrix, where=positive)
        if self._idf is not None:
            matrix *= self._idf
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        matrix /= norms
        return matrix

    def sparse_rows(
        self, texts: list[str], extra: np.ndarray | None = None
    ) -> SparseRows:
        """The :meth:`transform_many` rows of *texts* as :class:`SparseRows`,
        each followed by its row of the dense ``(len(texts), k)`` *extra*
        columns when given.

        The rows are built a block of :data:`TEXT_BLOCK` texts at a time,
        so no dense matrix larger than one block is held.
        """
        width = self.buckets + (0 if extra is None else extra.shape[1])
        # lengths starts with indptr[0] == 0; columns and values with an
        # empty array, so that no text at all still concatenates.
        lengths = [np.zeros(1, dtype=np.int64)]
        columns, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for start in range(0, len(texts), TEXT_BLOCK):
            block = self._block(texts[start : start + TEXT_BLOCK])
            if extra is not None:
                block = np.hstack([block, extra[start : start + TEXT_BLOCK]])
            stored = (block != 0.0) | np.signbit(block)
            lengths.append(stored.sum(axis=1))
            columns.append(np.nonzero(stored)[1])
            values.append(block[stored])
        return SparseRows(
            indptr=np.cumsum(np.concatenate(lengths)),
            columns=np.concatenate(columns),
            values=np.concatenate(values),
            width=width,
        )
