"""Reference autograd engine tests, including numerical gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.nn.autograd_reference import Tensor, _cosine


def numerical_gradient(fn, tensor: Tensor, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(tensor.data)
    for i in range(tensor.data.size):
        original = tensor.data.flat[i]
        tensor.data.flat[i] = original + eps
        high = fn().item()
        tensor.data.flat[i] = original - eps
        low = fn().item()
        tensor.data.flat[i] = original
        grad.flat[i] = (high - low) / (2 * eps)
    return grad


def check_gradients(build_fn, *tensors: Tensor, atol: float = 1e-5):
    out = build_fn()
    out.backward()
    for tensor in tensors:
        numeric = numerical_gradient(build_fn, tensor)
        assert np.allclose(numeric, tensor.grad, atol=atol), (
            numeric, tensor.grad,
        )


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a * a).sum().backward()
        assert np.allclose(a.grad, [4, 6])

    def test_matmul_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4, 2)), requires_grad=True)
        out = a @ b
        assert out.shape == (3, 2)
        out.sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4, 2)

    def test_broadcasting_unbroadcast(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, [3, 3, 3, 3])

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_grad_accumulates_on_reuse(self):
        a = Tensor([1.0], requires_grad=True)
        (a + a).sum().backward()
        assert np.allclose(a.grad, [2.0])

    def test_detach_breaks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        detached = a.detach()
        assert not detached.requires_grad


class TestGradChecks:
    def test_composite_expression(self, rng):
        a = Tensor(rng.normal(size=5), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        check_gradients(
            lambda: ((a @ b).tanh() * (a * a).sum()).sum(), a, b
        )

    def test_softmax(self, rng):
        a = Tensor(rng.normal(size=6), requires_grad=True)
        weights = Tensor(rng.normal(size=6))
        check_gradients(lambda: (a.softmax() * weights).sum(), a)

    def test_sigmoid_log_exp(self, rng):
        a = Tensor(rng.normal(size=4), requires_grad=True)
        check_gradients(
            lambda: (a.sigmoid().log() + (a * 0.1).exp()).sum(), a
        )

    def test_abs_relu(self, rng):
        a = Tensor(rng.normal(size=8) + 0.5, requires_grad=True)
        check_gradients(lambda: (a.abs() + a.relu()).sum(), a)

    def test_mean_axis(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: a.mean(axis=1).sum(), a)

    def test_norm(self, rng):
        a = Tensor(rng.normal(size=5), requires_grad=True)
        check_gradients(lambda: a.norm(), a)

    def test_getitem(self, rng):
        a = Tensor(rng.normal(size=6), requires_grad=True)
        check_gradients(lambda: (a[2:5] * a[0:3]).sum(), a)

    def test_stack_and_concat(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        check_gradients(
            lambda: (Tensor.stack([a, b]) * Tensor.concat([b, a]).reshape(2, 3)).sum(),
            a,
            b,
        )

    def test_division(self, rng):
        a = Tensor(rng.normal(size=4) + 3.0, requires_grad=True)
        b = Tensor(rng.normal(size=4) + 3.0, requires_grad=True)
        check_gradients(lambda: (a / b).sum(), a, b)

    def test_clip_min(self, rng):
        a = Tensor(rng.normal(size=6) * 2, requires_grad=True)
        check_gradients(lambda: a.clip_min(0.3).sum(), a)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_cosine_similarity_gradients(self, seed):
        local_rng = np.random.default_rng(seed)
        a = Tensor(local_rng.normal(size=4) + 0.1, requires_grad=True)
        b = Tensor(local_rng.normal(size=4) + 0.1, requires_grad=True)
        check_gradients(lambda: _cosine(a, b), a, b, atol=1e-4)


class TestCosine:
    def test_identical_vectors(self):
        a = Tensor([1.0, 2.0, 3.0])
        assert _cosine(a, a).item() == pytest.approx(1.0)

    def test_orthogonal(self):
        assert _cosine(
            Tensor([1.0, 0.0]), Tensor([0.0, 1.0])
        ).item() == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize(
    "const_shape, weight_shape, expr",
    [
        ((4, 3), (3, 2), lambda c, w: c @ w),
        ((3,), (3, 2), lambda c, w: c @ w),
        ((3,), (3,), lambda c, w: c @ w),
        ((3,), (2, 3), lambda c, w: w @ c),
        ((3, 4), (2, 3), lambda c, w: w @ c),
        ((2, 3), (2, 3), lambda c, w: c * w),
        ((2, 3), (2, 3), lambda c, w: w / c),
    ],
    ids=[
        "batch@weight", "vector@weight", "dot", "weight@vector",
        "weight@matrix", "mul", "div",
    ],
)
def test_constant_operand_gets_no_grad(const_shape, weight_shape, expr, rng):
    x = rng.uniform(1.0, 2.0, size=const_shape)
    w = Tensor(rng.normal(size=weight_shape), requires_grad=True)
    constant = Tensor(x)
    expr(constant, w).sum().backward()
    assert constant.grad is None
    numeric = numerical_gradient(lambda: expr(Tensor(x), w).sum(), w)
    assert np.allclose(numeric, w.grad, atol=1e-5)
