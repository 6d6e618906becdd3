"""Trainable text encoders (the 'towers' of the ranking models).

An :class:`EncoderTower` maps the TF-IDF features of a fitted featurizer
to a dense embedding through a trainable two-layer projection.  Two towers
with shared or separate weights make up the dual-tower first-stage ranker.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.layers import Linear, Module
from repro.nn.text import TextFeaturizer


class EncoderTower(Module):
    """TF-IDF features -> tanh projection -> embedding."""

    def __init__(
        self,
        featurizer: TextFeaturizer,
        embed_dim: int,
        rng: np.random.Generator,
        hidden_dim: int | None = None,
    ) -> None:
        hidden = hidden_dim if hidden_dim is not None else embed_dim * 2
        self.hidden = Linear(featurizer.buckets, hidden, rng)
        self.output = Linear(hidden, embed_dim, rng)

    def encode_features(self, features: np.ndarray) -> Tensor:
        """Embed a precomputed feature vector (or batch)."""
        x = Tensor(features)
        return self.output(self.hidden(x).tanh())

    def embed_array(self, features: np.ndarray) -> np.ndarray:
        """No-grad batched forward for the inference hot path.

        Same arithmetic as :meth:`encode_features` without building the
        autograd graph; *features* is a 2-D ``(batch, buckets)`` array.
        """
        hidden = np.tanh(
            features @ self.hidden.weight.data + self.hidden.bias.data
        )
        return hidden @ self.output.weight.data + self.output.bias.data
