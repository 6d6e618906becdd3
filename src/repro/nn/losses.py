"""Loss functions used by MetaSQL's classifiers and rankers, with gradients.

Includes the losses of the second-stage ranking model (Section III-C2):
the global/local MSE losses and the listwise NeuralNDCG loss implemented
via NeuralSort's differentiable permutation relaxation (Pobrotyn &
Bialobrzeski, 2021; Grover et al., 2019).

Each loss returns its value and its gradient with respect to its first
argument.  A backward performs the numpy operations of the reverse-mode
engine in ``tests/nn/autograd_reference.py``, in that engine's
accumulation order, so both give the same bytes.
"""

from __future__ import annotations

import numpy as np


def mse_loss(
    predicted: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error and its gradient."""
    diff = predicted - target
    share = 1.0 / diff.size
    loss = (diff * diff).sum() * share
    # d(diff * diff) reaches diff once through each factor.
    half = diff * share
    return loss, half + half


def bce_with_logits(
    logits: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Binary cross-entropy on logits (numerically stable), and its gradient.

    Uses ``max(x,0) - x*t + log(1 + exp(-|x|))``.
    """
    exp = np.exp(np.clip(-np.abs(logits), -60, 60))
    shifted = np.maximum(exp + 1.0, 1e-12)
    terms = np.maximum(logits, 0.0) - logits * target + np.log(shifted)
    share = 1.0 / terms.size
    loss = terms.sum() * share
    # The max term, then the product term, then the |x| term.
    grad = share * (logits > 0) + -share * target
    grad += -(share / shifted * exp) * np.sign(logits)
    return loss, grad


def neural_sort(scores: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """NeuralSort relaxation: a row-stochastic 'permutation' matrix.

    ``P[k]`` softly selects the k-th largest element of the 1-D *scores*.
    Reference: Grover et al., 2019 (as used by NeuralNDCG).
    """
    s = scores.reshape(-1, 1)
    n = s.shape[0]
    b = np.abs(s - s.T) @ np.ones((n, 1))  # row sums of |s_i - s_j|
    # c[k, i] = (n + 1 - 2k) * s_i  with k ranked from 1..n
    c = _scaling(n).reshape(-1, 1) @ s.reshape(1, -1)
    p = (c - b.reshape(1, -1)) * (1.0 / tau)
    exp = np.exp(p - p.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def _scaling(n: int) -> np.ndarray:
    return np.arange(n, 0, -1, dtype=np.float64) * 2.0 - (n + 1)


def neural_ndcg_loss(
    predicted: np.ndarray,
    relevance: np.ndarray,
    tau: float = 1.0,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """1 - NeuralNDCG of *predicted* scores against graded *relevance*.

    The permutation relaxation sorts the (exponential) gains by predicted
    score; the result is discounted and normalised by the ideal DCG.  The
    value is in [0, 1+]; minimising it maximises NDCG.  The gradient is
    that of ``scale`` times the value.
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    n = relevance.shape[0]
    if n == 0:
        raise ValueError("relevance list must be non-empty")
    gains = np.power(2.0, relevance) - 1.0
    discounts = 1.0 / np.log2(np.arange(n) + 2.0)
    ideal = np.sort(gains)[::-1] @ discounts
    if ideal <= 0:
        ideal = 1.0
    permutation = neural_sort(predicted, tau=tau)
    ndcg = ((permutation @ gains) * discounts).sum() * (1.0 / ideal)

    # Backward through the NDCG sum and the permutation's softmax.
    grad_sum = -scale * (1.0 / ideal)
    grad_perm = np.outer(grad_sum * discounts, gains)
    dot = (grad_perm * permutation).sum(axis=-1, keepdims=True)
    grad_p = permutation * (grad_perm - dot) * (1.0 / tau)
    # p = c - b: c is an outer product with s; b sums |s_i - s_j| by row.
    s = predicted.reshape(-1, 1)
    grad_c = _scaling(n).reshape(-1, 1).T @ grad_p
    grad_b = -grad_p.sum(axis=0, keepdims=True)
    grad_abs = grad_b.reshape(n, 1) @ np.ones((n, 1)).T
    grad_diff = grad_abs * np.sign(s - s.T)
    # s reaches p through c, then through s - s.T as the row, then as
    # the column: its three terms are summed in that order.
    grad_s = grad_c.reshape(n, 1) + grad_diff.sum(axis=1, keepdims=True)
    grad_s += (-grad_diff.sum(axis=0, keepdims=True)).T
    return 1.0 - ndcg, grad_s.reshape(n)
