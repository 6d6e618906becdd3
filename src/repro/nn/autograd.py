"""A compact reverse-mode automatic differentiation engine over numpy.

Supports the operations needed by the MetaSQL rankers and classifiers:
broadcasting arithmetic, matrix multiplication, reductions, the usual
nonlinearities, softmax and absolute value (the last two power the
NeuralSort-based NeuralNDCG loss).

Gradients accumulate into ``Tensor.grad`` after calling ``backward()`` on a
scalar tensor.  Only tensors created with ``requires_grad=True`` (or derived
from them) participate in the graph.  A constant operand gets no gradient
(its ``grad`` stays ``None``): a backward computes an operand's gradient only
when that operand takes one, so a constant feature batch costs no product.
"""

from __future__ import annotations

import numpy as np

ArrayLike = "np.ndarray | float | int | list"


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum *grad* down to *shape* (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away leading added dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along broadcast (size-1) dimensions.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an optional gradient and autograd history."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_children")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._children: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Graph construction helpers.

    @staticmethod
    def _wrap(value) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    @classmethod
    def _make(cls, data, children, backward) -> "Tensor":
        out = cls(data, requires_grad=any(c.requires_grad for c in children))
        if out.requires_grad:
            out._children = tuple(children)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add *grad* into ``self.grad``; a no-op for a constant.

        A *fresh* gradient is a new C-ordered array that no other tensor
        holds (a product made for this call), so the first one is kept
        instead of copied.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad if fresh else grad.copy()
        else:
            self.grad += grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # Arithmetic.

    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            left = self.data
            right = other.data
            if self.requires_grad:
                if right.ndim == 1:
                    if left.ndim == 1:
                        product = grad * right
                    else:
                        product = np.outer(grad, right)
                else:
                    product = grad @ right.swapaxes(-1, -2)
                self._accumulate(product, fresh=True)
            if other.requires_grad:
                if left.ndim == 1:
                    if right.ndim == 1:
                        product = grad * left
                    else:
                        product = np.outer(left, grad)
                else:
                    product = left.swapaxes(-1, -2) @ grad
                other._accumulate(product, fresh=True)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape ops.

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        datas = [t.data for t in tensors]
        out_data = np.concatenate(datas, axis=axis)
        sizes = [d.shape[axis] for d in datas]

        def backward(grad: np.ndarray) -> None:
            offset = 0
            for tensor, size in zip(tensors, sizes):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(offset, offset + size)
                tensor._accumulate(grad[tuple(slicer)])
                offset += size

        out = Tensor._make(out_data, tuple(tensors), backward)
        return out

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            for index, tensor in enumerate(tensors):
                tensor._accumulate(np.take(grad, index, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward)

    # ------------------------------------------------------------------
    # Reductions.

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Nonlinearities.

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(np.maximum(self.data, 1e-12))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / np.maximum(self.data, 1e-12))

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return self._make(out_data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """max(x, minimum), used for hinge-style losses."""
        out_data = np.maximum(self.data, minimum)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > minimum))

        return self._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return self._make(out_data, (self,), backward)

    def norm(self, axis=None, keepdims: bool = False) -> "Tensor":
        """L2 norm with a numerical-stability floor."""
        squared = (self * self).sum(axis=axis, keepdims=keepdims)
        return (squared + 1e-12) ** 0.5

    # ------------------------------------------------------------------
    # Backward pass.

    def backward(self) -> None:
        """Backpropagate from this scalar tensor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        # Post-order DFS over the tensors that take a gradient.  A constant
        # child is a leaf that is never processed, so leaving it out keeps
        # every other node's place, and so every gradient's summation order.
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for child in node._children:
                if child.requires_grad and child not in visited:
                    stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
