"""Layer and optimizer tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.autograd import Tensor
from repro.nn.layers import MLP, Linear, Module
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam


class ReferenceAdam:
    """The textbook out-of-place Adam step, which :class:`Adam` must match.

    Every update allocates fresh arrays; the library's step writes the
    same operations, in the same order, in place.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0

    def step(self):
        self._t += 1
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            self._m[index] = (
                self.beta1 * self._m[index] + (1 - self.beta1) * grad
            )
            self._v[index] = (
                self.beta2 * self._v[index] + (1 - self.beta2) * grad**2
            )
            m_hat = self._m[index] / (1 - self.beta1**self._t)
            v_hat = self._v[index] / (1 - self.beta2**self._t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_parameters_collected(self, rng):
        layer = Linear(4, 3, rng)
        assert len(layer.parameters()) == 2

    def test_bias_starts_zero(self, rng):
        layer = Linear(4, 3, rng)
        assert np.allclose(layer.bias.data, 0.0)


class TestMLP:
    def test_needs_two_sizes(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_parameter_count(self, rng):
        mlp = MLP([4, 8, 2], rng)
        assert len(mlp.parameters()) == 4

    def test_nested_module_collection(self, rng):
        class Wrapper(Module):
            def __init__(self):
                self.inner = MLP([2, 2], rng)
                self.towers = [Linear(2, 2, rng), Linear(2, 2, rng)]

        assert len(Wrapper().parameters()) == 6

    def test_zero_grad(self, rng):
        mlp = MLP([3, 2], rng)
        out = mlp(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert mlp.layers[0].weight.grad is not None
        mlp.zero_grad()
        assert mlp.layers[0].weight.grad is None


class TestOptimizers:
    def _regression_task(self, rng):
        features = rng.normal(size=(64, 5))
        true_weights = rng.normal(size=5)
        targets = features @ true_weights
        return features, targets

    def test_fits_linear_regression(self, rng):
        features, targets = self._regression_task(rng)
        model = Linear(5, 1, rng)
        optimizer = Adam(model.parameters(), lr=0.05)
        first = None
        for __ in range(300):
            predictions = model(Tensor(features)).reshape(-1)
            loss = mse_loss(predictions, Tensor(targets))
            if first is None:
                first = loss.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert loss.item() < first * 0.05

    def test_adam_skips_gradless_params(self, rng):
        a = Tensor(np.ones(3), requires_grad=True)
        optimizer = Adam([a], lr=0.1)
        optimizer.step()  # no grad: must not move or crash
        assert np.allclose(a.data, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        extra_shapes=st.lists(
            st.one_of(
                st.tuples(st.integers(1, 9)),
                st.tuples(st.integers(1, 9), st.integers(1, 9)),
            ),
            max_size=3,
        ),
        gaps=st.lists(st.booleans(), min_size=30, max_size=30),
        lr=st.sampled_from([1e-3, 2e-3, 5e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_step_matches_reference(self, extra_shapes, gaps, lr, seed):
        """30 steps of :class:`Adam` leave every parameter bit-identical
        to :class:`ReferenceAdam`'s: a weight, its 1-D bias, any extra
        shapes, and a last parameter whose ``grad`` is ``None`` on the
        steps *gaps* marks."""
        rng = np.random.default_rng(seed)
        shapes = [(6, 4), (4,), *extra_shapes, (3, 5)]
        initial = [rng.normal(size=shape) for shape in shapes]
        ours = [Tensor(value.copy(), requires_grad=True) for value in initial]
        ref = [Tensor(value.copy(), requires_grad=True) for value in initial]
        optimizer, reference = Adam(ours, lr=lr), ReferenceAdam(ref, lr=lr)
        for gap in gaps:
            for index, shape in enumerate(shapes):
                if gap and index == len(shapes) - 1:
                    grad = None
                else:
                    grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 2)
                ours[index].grad = None if grad is None else grad.copy()
                ref[index].grad = grad
            optimizer.step()
            reference.step()
            for mine, theirs in zip(ours, ref):
                assert np.array_equal(mine.data, theirs.data)
