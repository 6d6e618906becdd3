"""Text featurisation tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import MLP
from repro.nn.text import (
    TEXT_BLOCK,
    SparseRows,
    TextFeaturizer,
    _count_matrix,
    _hash_token,
    _word_buckets,
    text_features,
    tokenize_text,
)
from tests.nn import autograd_reference as ref


def reference_count_matrix(texts, buckets, include_chars):
    """One ``+= 1.0`` per feature, the accumulation ``_count_matrix`` replaces."""
    matrix = np.zeros((len(texts), buckets))
    for row, text in zip(matrix, texts):
        for feature in text_features(text, include_chars):
            row[_hash_token(feature, buckets)] += 1.0
    return matrix


def reference_transform_many(featurizer, texts):
    """The textbook out-of-place TF-IDF formula ``transform_many`` builds in place."""
    counts = _count_matrix(texts, featurizer.buckets, featurizer.include_chars)
    positive = counts > 0
    tf = np.where(positive, 1.0 + np.log(np.where(positive, counts, 1.0)), 0.0)
    if featurizer._idf is not None:
        tf *= featurizer._idf
    norms = np.linalg.norm(tf, axis=1, keepdims=True)
    return tf / np.where(norms == 0.0, 1.0, norms)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize_text("Hello World") == ["hello", "world"]

    def test_alphanumeric_runs(self):
        assert tokenize_text("pet_age > 3.5!") == ["pet", "age", "3", "5"]

    def test_empty(self):
        assert tokenize_text("...") == []


class TestFeatures:
    def test_includes_bigrams(self):
        features = text_features("big cat", include_chars=False)
        assert "big_cat" in features

    def test_char_trigrams_optional(self):
        with_chars = text_features("cat")
        without = text_features("cat", include_chars=False)
        assert len(with_chars) > len(without)


class TestTextFeaturizer:
    def test_idf_downweights_common_tokens(self):
        corpus = [f"the common word {i}" for i in range(20)]
        featurizer = TextFeaturizer(buckets=512, include_chars=False).fit(corpus)
        common = featurizer.transform("common")
        rare = featurizer.transform("zebra")
        # Sparse transform; compare cosine to a mixed sentence.
        mixed = featurizer.transform("common zebra")
        assert mixed @ rare > mixed @ common

    def test_transform_many_shape(self):
        featurizer = TextFeaturizer(buckets=128).fit(["a b", "c d"])
        matrix = featurizer.transform_many(["a", "b", "c"])
        assert matrix.shape == (3, 128)

    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet="abc xyz", min_size=0, max_size=30))
    def test_norm_at_most_one(self, text):
        featurizer = TextFeaturizer(buckets=64).fit(["abc xyz"])
        norm = np.linalg.norm(featurizer.transform(text))
        assert norm == pytest.approx(1.0) or norm == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        corpus=st.lists(st.text(alphabet="ab cd ef", max_size=20), max_size=6),
        texts=st.lists(st.text(alphabet="ab cd efg", max_size=40), max_size=6),
        fitted=st.booleans(),
    )
    def test_in_place_matches_reference(self, corpus, texts, fitted):
        featurizer = TextFeaturizer(buckets=32)
        if fitted:
            featurizer.fit(corpus)
        assert np.array_equal(
            featurizer.transform_many(texts),
            reference_transform_many(featurizer, texts),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        # Free text, and texts over a few words, so that words (and their
        # trigrams) repeat within a text and across the texts of a call.
        texts=st.lists(
            st.one_of(
                st.text(alphabet="ab cd efg 12", max_size=60),
                st.lists(
                    st.sampled_from(["ab", "abc", "cd", "efg", "12", "a", "ab12"]),
                    max_size=12,
                ).map(" ".join),
            ),
            max_size=8,
        ),
        buckets=st.sampled_from([1, 7, 32, 2048]),
        include_chars=st.booleans(),
    )
    def test_count_matrix_matches_per_feature_loop(
        self, texts, buckets, include_chars
    ):
        counts = _count_matrix(texts, buckets, include_chars)
        expected = reference_count_matrix(texts, buckets, include_chars)
        assert counts.dtype == expected.dtype
        assert counts.tobytes() == expected.tobytes()

    def test_word_memo_serves_every_featurizer_shape(self):
        """The process-wide word memo is keyed by bucket count and
        ``include_chars`` as well as the word: interleaved featurizers of
        different shapes each count what the per-feature loop counts."""
        texts = [
            "how many singers are older than 30",
            "singers older than 30 and younger than 40",
            "show the name of every singer",
            "",
        ]
        shapes = [(1024, True), (2048, True), (2048, False), (1024, False)]
        for __ in range(2):  # the second round reads the memo the first filled
            for text in texts:
                for buckets, include_chars in shapes:
                    for batch in ([text], texts):
                        counts = _count_matrix(batch, buckets, include_chars)
                        expected = reference_count_matrix(
                            batch, buckets, include_chars
                        )
                        assert counts.tobytes() == expected.tobytes()
        for buckets, include_chars in shapes:
            featurizer = TextFeaturizer(buckets=buckets, include_chars=include_chars)
            assert featurizer.transform_many(texts).shape == (len(texts), buckets)
        info = _word_buckets.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
        assert info.hits > 0

    def test_transform_many_peak_memory_is_bounded(self):
        """The matrix is built in place a block at a time: the traced peak
        stays under 1.5x the result (about 1.16x; in place in one block it
        peaked at about 2.1x, the out-of-place formula at about 3.1x)."""
        texts = [
            f"show the name of student {i} older than {i % 37} in class {i % 11}"
            for i in range(1000)
        ]
        featurizer = TextFeaturizer().fit(texts)  # also fills the token-hash memo
        tracemalloc.start()
        try:
            out = featurizer.transform_many(texts)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes


# Texts drawn for the sparse rows: words that repeat, and texts with no
# word at all, whose rows are all zeros.
_TEXTS = st.one_of(
    st.lists(
        st.sampled_from(["show", "name", "age", "singer", "30", "older", "ab"]),
        max_size=8,
    ).map(" ".join),
    st.sampled_from(["", "...", "?!"]),
)


class TestSparseRows:
    """``sparse_rows(...).take(index)`` is the dense batch, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.sampled_from([0, 1, TEXT_BLOCK - 1, TEXT_BLOCK, TEXT_BLOCK + 1, 130]),
        fitted=st.booleans(),
        extra_columns=st.integers(0, 3),
    )
    def test_take_equals_the_dense_rows(self, data, n, fitted, extra_columns):
        texts = data.draw(st.lists(_TEXTS, min_size=n, max_size=n))
        # Repeated and unsorted indices, empty included.
        index = np.array(
            data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=80))
            if n
            else [],
            dtype=np.int64,
        )
        featurizer = TextFeaturizer(buckets=64)
        if fitted:
            featurizer.fit(texts[::2])
        dense = featurizer.transform_many(texts)
        # transform_many builds a long list by blocks: each row is the
        # one-block row over all texts.
        assert dense.tobytes() == reference_transform_many(featurizer, texts).tobytes()
        extra = None
        if extra_columns:
            extra = np.array(
                data.draw(
                    st.lists(
                        st.sampled_from([0.0, -0.0, 1.0, 2.5, 17.0]),
                        min_size=n * extra_columns,
                        max_size=n * extra_columns,
                    )
                )
            ).reshape(n, extra_columns)
            dense = np.hstack([dense, extra])
        rows = featurizer.sparse_rows(texts, extra)
        batch = rows.take(index)
        assert rows.width == dense.shape[1]
        assert batch.dtype == np.float64 and batch.flags.c_contiguous
        assert batch.shape == (len(index), dense.shape[1])
        assert batch.tobytes() == dense[index].tobytes()

    def test_stores_only_the_set_entries(self):
        featurizer = TextFeaturizer(buckets=1024)
        texts = ["show the name of every singer older than 30", ""]
        rows = featurizer.sparse_rows(texts, np.array([[0.0, 2.0], [0.0, 0.0]]))
        dense = featurizer.transform_many(texts)
        assert isinstance(rows, SparseRows)
        assert list(np.diff(rows.indptr)) == [np.count_nonzero(dense[0]) + 1, 0]
        assert rows.values.nbytes < dense.nbytes / 10


class TestEncoderTower:
    """The stage-1 towers: two-layer MLPs over TF-IDF features."""

    def test_embedding_shape(self, rng):
        featurizer = TextFeaturizer(buckets=128).fit(["hello world"])
        tower = MLP([featurizer.buckets, 32, 16], rng)
        out = tower.forward_array(featurizer.transform("hello"))
        assert out.shape == (16,)

    def test_batch_encoding(self, rng):
        featurizer = TextFeaturizer(buckets=128).fit(["hello world"])
        tower = MLP([featurizer.buckets, 32, 16], rng)
        features = featurizer.transform_many(["a", "b", "c"])
        out = tower.forward_array(features)
        assert out.shape == (3, 16)
        expected = ref.mlp_forward(ref.leaves(tower), ref.Tensor(features))
        assert np.array_equal(out, expected.data)

    def test_trainable_parameters(self, rng):
        featurizer = TextFeaturizer(buckets=128).fit(["x"])
        tower = MLP([featurizer.buckets, 16, 8], rng)
        assert len(tower.parameters()) == 4
