"""From-scratch numpy ML substrate.

Replaces the paper's transformer stack (sentence-transformers, RoBERTa) with
trainable numpy models: dense layers with a hand-written backward pass,
Adam, the ranking losses MetaSQL needs (MSE, BCE, NeuralNDCG), each with
its gradient, and a hashed TF-IDF text featurizer.
"""

from repro.nn.layers import MLP, Linear, Parameter
from repro.nn.losses import bce_with_logits, mse_loss, neural_ndcg_loss
from repro.nn.optim import Adam
from repro.nn.text import TextFeaturizer, tokenize_text

__all__ = [
    "Parameter",
    "Linear",
    "MLP",
    "Adam",
    "mse_loss",
    "bce_with_logits",
    "neural_ndcg_loss",
    "tokenize_text",
    "TextFeaturizer",
]
