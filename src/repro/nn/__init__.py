"""From-scratch numpy ML substrate.

Replaces the paper's transformer stack (sentence-transformers, RoBERTa) with
trainable numpy models: a reverse-mode autograd engine, dense layers, Adam,
the ranking losses MetaSQL needs (MSE, BCE, triplet, NeuralNDCG) and
a hashed TF-IDF text featurizer.
"""

from repro.nn.autograd import Tensor
from repro.nn.layers import MLP, Linear
from repro.nn.losses import (
    bce_with_logits,
    mse_loss,
    neural_ndcg_loss,
    triplet_loss,
)
from repro.nn.optim import Adam
from repro.nn.text import TextFeaturizer, tokenize_text

__all__ = [
    "Tensor",
    "Linear",
    "MLP",
    "Adam",
    "mse_loss",
    "bce_with_logits",
    "triplet_loss",
    "neural_ndcg_loss",
    "tokenize_text",
    "TextFeaturizer",
]
