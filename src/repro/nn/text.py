"""Text featurisation: tokenizer and TF-IDF featurizer.

Replaces pre-trained sentence encoders: text is mapped to a fixed-size sparse
bag-of-features vector (word unigrams + bigrams + character trigrams hashed
into a fixed number of buckets, TF-IDF weighted), which the trainable
stage-1 towers (two-layer :class:`repro.nn.layers.MLP` networks) project
into a dense embedding space.

``transform`` and ``transform_many`` share one feature-accumulation path
(:func:`_count_matrix`), so single-text ``transform`` is exactly the
one-row case of ``transform_many``; token hashes are memoized
(:func:`_fnv1a` keeps a bounded per-token memo independent of the bucket
count) because the same question/SQL tokens recur across every candidate
of every request.
"""

from __future__ import annotations

import functools
import re
from array import array

import numpy as np

_WORD_RE = re.compile(r"[a-z0-9]+")
_QUESTION_TOKEN_RE = re.compile(r"\d+\.\d+|[a-z0-9]+")


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


def _count_matrix(
    texts: list[str], buckets: int, include_chars: bool
) -> np.ndarray:
    """Shared accumulation path: hashed-feature counts, one row per text.

    The features are those of :func:`text_features`.  Each distinct word's
    unigram and character trigrams are hashed once per call (the texts of
    one call share most of their words), and one unit-weight
    ``np.bincount`` over ``row * buckets + bucket`` counts every row into
    the float matrix.  The counts are small exact integers, so it equals
    the matrix a ``+= 1.0`` per feature would build.
    """
    word_buckets: dict[str, array] = {}
    indices = array("q")
    lengths: list[int] = []
    for text in texts:
        start = len(indices)
        words = tokenize_text(text)
        for word in words:
            hashed = word_buckets.get(word)
            if hashed is None:
                features = [word] + _trigrams(word) if include_chars else [word]
                hashed = array("q", [_hash_token(f, buckets) for f in features])
                word_buckets[word] = hashed
            indices.extend(hashed)
        indices.extend(
            array("q", [_hash_token(f, buckets) for f in _bigrams(words)])
        )
        lengths.append(len(indices) - start)
    # The indices sit in one int64 buffer, not a list of Python ints: the
    # stage-1 fit counts ~1,000 texts in one call, and with a list the
    # set-up's peak RSS was ~1.5 MB higher.
    flat = np.frombuffer(indices, dtype=np.int64)
    flat += np.repeat(np.arange(len(texts), dtype=np.int64) * buckets, lengths)
    counts = np.bincount(
        flat, weights=np.ones(len(flat)), minlength=len(texts) * buckets
    )
    # Over no features at all bincount returns int64 zeros.
    return counts.astype(np.float64, copy=False).reshape(len(texts), buckets)


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
        """L2-normalised ``(1 + log tf) * idf`` rows, built in the count matrix.

        Each step writes into the matrix it reads (``out=``, and ``where=``
        so zero counts stay zero), with the same ufuncs in the same order
        as the out-of-place formula, so the result is bit-identical to it
        while the only full-size temporary is the one ``np.linalg.norm``
        squares into.
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
