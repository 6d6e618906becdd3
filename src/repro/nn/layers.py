"""Dense layers on plain arrays, with a hand-written backward pass."""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable array and the gradient accumulated into it."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.grad: np.ndarray | None = None

    def accumulate(self, grad: np.ndarray) -> None:
        """Add *grad* (a new array this parameter may keep) into ``grad``."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad


class Linear:
    """Affine layer ``y = x W + b`` with Xavier-uniform initialisation."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        bound = np.sqrt(6.0 / (in_features + out_features))
        weight = rng.uniform(-bound, bound, size=(in_features, out_features))
        self.weight = Parameter(weight)
        self.bias = Parameter(np.zeros(out_features))


class MLP:
    """Multi-layer perceptron with tanh hidden activations."""

    def __init__(self, sizes: list[int], rng: np.random.Generator) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = [
            Linear(sizes[i], sizes[i + 1], rng) for i in range(len(sizes) - 1)
        ]

    def parameters(self) -> list[Parameter]:
        """Every layer's weight and bias, input layer first."""
        return [p for layer in self.layers for p in (layer.weight, layer.bias)]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output for the ``(batch, features)`` array *x*, and each layer's input.

        The inputs are what :meth:`backward` needs: *x* and every hidden
        tanh activation.
        """
        inputs = []
        for layer in self.layers[:-1]:
            inputs.append(x)
            x = np.tanh(x @ layer.weight.data + layer.bias.data)
        inputs.append(x)
        last = self.layers[-1]
        return x @ last.weight.data + last.bias.data, inputs

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """The output alone: the inference hot path."""
        return self.forward(x)[0]

    def backward(self, inputs: list[np.ndarray], grad: np.ndarray) -> None:
        """Accumulate the parameter gradients of one :meth:`forward`.

        *grad* is the loss gradient with respect to the output.  Each
        layer's bias gradient is the column sum, its weight gradient
        ``input.T @ grad``; the input's own gradient is never formed.
        """
        for index in range(len(self.layers) - 1, -1, -1):
            layer, x = self.layers[index], inputs[index]
            layer.bias.accumulate(grad.sum(axis=0))
            layer.weight.accumulate(x.T @ grad)
            if index:
                grad = (grad @ layer.weight.data.T) * (1.0 - x**2)
