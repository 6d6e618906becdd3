"""Text featurisation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.encoder import EncoderTower
from repro.nn.text import (
    HashingVectorizer,
    TextFeaturizer,
    text_features,
    tokenize_text,
)


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


class TestHashingVectorizer:
    def test_deterministic(self):
        v = HashingVectorizer(buckets=64)
        assert np.array_equal(v.transform("find cats"), v.transform("find cats"))

    def test_unit_norm(self):
        v = HashingVectorizer(buckets=64)
        assert np.linalg.norm(v.transform("some text here")) == pytest.approx(1.0)

    def test_empty_text_is_zero(self):
        v = HashingVectorizer(buckets=64)
        assert np.linalg.norm(v.transform("")) == 0.0


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


class TestEncoderTower:
    def test_embedding_shape(self, rng):
        featurizer = TextFeaturizer(buckets=128).fit(["hello world"])
        tower = EncoderTower(featurizer, embed_dim=16, rng=rng)
        out = tower.encode_features(featurizer.transform("hello"))
        assert out.shape == (16,)

    def test_batch_encoding(self, rng):
        featurizer = TextFeaturizer(buckets=128).fit(["hello world"])
        tower = EncoderTower(featurizer, embed_dim=16, rng=rng)
        features = featurizer.transform_many(["a", "b", "c"])
        out = tower.embed_array(features)
        assert out.shape == (3, 16)
        assert np.array_equal(out, tower.encode_features(features).numpy())

    def test_trainable_parameters(self, rng):
        featurizer = TextFeaturizer(buckets=128).fit(["x"])
        tower = EncoderTower(featurizer, embed_dim=8, rng=rng)
        assert len(tower.parameters()) == 4
