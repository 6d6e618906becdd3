"""Layer and optimizer tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import MLP, Linear, Parameter
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam
from tests.nn import autograd_reference as ref


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
        out = MLP([4, 3], rng).forward_array(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_parameters_collected(self, rng):
        assert len(MLP([4, 3], rng).parameters()) == 2

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

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 7), min_size=2, max_size=4),
        batch=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backward_matches_reference(self, sizes, batch, seed):
        """Forward and backward of any depth give the engine's bytes."""
        rng = np.random.default_rng(seed)
        mlp = MLP(sizes, rng)
        x = rng.normal(size=(batch, sizes[0]))
        grad = rng.normal(size=(batch, sizes[-1]))
        leaves = ref.leaves(mlp)
        expected = ref.mlp_forward(leaves, ref.Tensor(x))
        (expected * ref.Tensor(grad)).sum().backward()
        out, inputs = mlp.forward(x)
        mlp.backward(inputs, grad)
        assert out.tobytes() == expected.data.tobytes()
        for param, leaf in zip(mlp.parameters(), leaves):
            assert param.grad.tobytes() == leaf.grad.tobytes()

    def test_zero_grad(self, rng):
        mlp = MLP([3, 2], rng)
        out, inputs = mlp.forward(np.ones((1, 3)))
        mlp.backward(inputs, np.ones_like(out))
        assert mlp.layers[0].weight.grad is not None
        Adam(mlp.parameters()).zero_grad()
        assert mlp.layers[0].weight.grad is None


class TestOptimizers:
    def _regression_task(self, rng):
        features = rng.normal(size=(64, 5))
        true_weights = rng.normal(size=5)
        targets = features @ true_weights
        return features, targets

    def test_fits_linear_regression(self, rng):
        features, targets = self._regression_task(rng)
        model = MLP([5, 1], rng)
        optimizer = Adam(model.parameters(), lr=0.05)
        first = None
        for __ in range(300):
            predictions, inputs = model.forward(features)
            loss, grad = mse_loss(predictions.reshape(-1), targets)
            if first is None:
                first = loss
            optimizer.zero_grad()
            model.backward(inputs, grad.reshape(-1, 1))
            optimizer.step()
        assert loss < first * 0.05

    def test_adam_skips_gradless_params(self, rng):
        a = Parameter(np.ones(3))
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
        ours = [Parameter(value.copy()) for value in initial]
        theirs = [Parameter(value.copy()) for value in initial]
        optimizer, reference = Adam(ours, lr=lr), ReferenceAdam(theirs, lr=lr)
        for gap in gaps:
            for index, shape in enumerate(shapes):
                if gap and index == len(shapes) - 1:
                    grad = None
                else:
                    grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 2)
                ours[index].grad = None if grad is None else grad.copy()
                theirs[index].grad = grad
            optimizer.step()
            reference.step()
            for mine, their in zip(ours, theirs):
                assert np.array_equal(mine.data, their.data)
