"""Loss function tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.losses import (
    bce_with_logits,
    mse_loss,
    neural_ndcg_loss,
    neural_sort,
)
from tests.nn import autograd_reference as ref


class TestMSE:
    def test_zero_at_target(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert not grad.any()

    def test_value(self):
        loss, grad = mse_loss(np.array([0.0, 0.0]), np.array([2.0, 0.0]))
        assert loss == pytest.approx(2.0)
        assert np.allclose(grad, [-2.0, 0.0])


class TestBCE:
    def test_confident_correct_is_small(self):
        loss, __ = bce_with_logits(np.array([10.0, -10.0]), np.array([1.0, 0.0]))
        assert loss < 0.01

    def test_confident_wrong_is_large(self):
        loss, __ = bce_with_logits(np.array([10.0]), np.array([0.0]))
        assert loss > 5.0

    def test_matches_reference(self):
        logits = np.array([0.3, -0.7, 1.5])
        targets = np.array([1.0, 0.0, 1.0])
        expected = np.mean(
            np.maximum(logits, 0)
            - logits * targets
            + np.log1p(np.exp(-np.abs(logits)))
        )
        loss, grad = bce_with_logits(logits, targets)
        assert loss == pytest.approx(expected)
        sigmoid = 1.0 / (1.0 + np.exp(-logits))
        assert np.allclose(grad, (sigmoid - targets) / logits.size)

    def test_numerically_stable_extremes(self):
        loss, grad = bce_with_logits(
            np.array([500.0, -500.0]), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


class TestTriplet:
    """The reference engine's cosine triplet loss."""

    def test_separated_pair_zero_loss(self):
        anchor = ref.Tensor([1.0, 0.0])
        positive = ref.Tensor([1.0, 0.1])
        negative = ref.Tensor([-1.0, 0.0])
        assert ref.triplet_loss(anchor, positive, negative).item() == 0.0

    def test_violating_pair_positive_loss(self):
        anchor = ref.Tensor([1.0, 0.0])
        positive = ref.Tensor([-1.0, 0.0])
        negative = ref.Tensor([1.0, 0.1])
        assert ref.triplet_loss(anchor, positive, negative).item() > 0.0


class TestNeuralSort:
    def test_low_temperature_sorts(self):
        permutation = neural_sort(np.array([3.0, 1.0, 2.0]), tau=0.05)
        gains = permutation @ np.array([30.0, 10.0, 20.0])
        assert np.allclose(gains, [30.0, 20.0, 10.0], atol=0.01)

    def test_rows_are_stochastic(self):
        permutation = neural_sort(np.array([0.5, -1.0, 2.0]), tau=1.0)
        assert np.allclose(permutation.sum(axis=1), 1.0)

    def test_matches_reference(self, rng):
        scores = rng.normal(size=7)
        expected = ref.neural_sort(ref.Tensor(scores), tau=0.5)
        assert neural_sort(scores, tau=0.5).tobytes() == expected.data.tobytes()


class TestNeuralNDCG:
    def test_perfect_ranking_near_zero(self):
        relevance = np.array([3.0, 2.0, 1.0, 0.0])
        scores = np.array([4.0, 3.0, 2.0, 1.0])
        loss, __ = neural_ndcg_loss(scores, relevance, tau=0.05)
        assert loss == pytest.approx(0.0, abs=0.01)

    def test_inverted_ranking_is_worse(self):
        relevance = np.array([3.0, 2.0, 1.0, 0.0])
        good, __ = neural_ndcg_loss(
            np.array([4.0, 3.0, 2.0, 1.0]), relevance, tau=0.1
        )
        bad, __ = neural_ndcg_loss(
            np.array([1.0, 2.0, 3.0, 4.0]), relevance, tau=0.1
        )
        assert bad > good

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            neural_ndcg_loss(np.zeros(0), np.zeros(0))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_loss_bounded_below_by_zeroish(self, seed):
        local = np.random.default_rng(seed)
        relevance = local.uniform(0, 3, size=6)
        loss, __ = neural_ndcg_loss(local.normal(size=6), relevance, tau=0.5)
        assert loss > -0.05

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        tau=st.sampled_from([0.05, 0.5, 1.0]),
        scale=st.sampled_from([1.0, 0.6]),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_reference(self, n, tau, scale, ties, seed):
        """Value and gradient carry the engine's bytes, tied scores too."""
        local = np.random.default_rng(seed)
        scores = local.normal(size=n)
        if ties:
            scores = np.round(scores)
        relevance = local.uniform(0, 3, size=n)
        leaf = ref.Tensor(scores, requires_grad=True)
        expected = ref.neural_ndcg_loss(leaf, relevance, tau=tau)
        (expected * scale).backward()
        loss, grad = neural_ndcg_loss(scores, relevance, tau=tau, scale=scale)
        assert float(loss).hex() == expected.item().hex()
        assert grad.tobytes() == leaf.grad.tobytes()

    def test_trainable(self, rng):
        from repro.nn.layers import MLP
        from repro.nn.optim import Adam

        features = rng.normal(size=(12, 4))
        relevance = rng.uniform(0, 3, size=12)
        mlp = MLP([4, 8, 1], rng)
        optimizer = Adam(mlp.parameters(), lr=0.02)
        first = None
        for __ in range(120):
            scores, inputs = mlp.forward(features)
            loss, grad = neural_ndcg_loss(scores.reshape(-1), relevance, tau=0.5)
            if first is None:
                first = loss
            optimizer.zero_grad()
            mlp.backward(inputs, grad.reshape(-1, 1))
            optimizer.step()
        assert loss < first
