"""The Adam optimizer (Kingma & Ba, 2015)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Adam optimizer; the paper uses it for both ranking models.

    :meth:`step` runs the textbook update's element-wise operations in the
    textbook order, each written in place (``out=``) into the moment
    arrays or into two scratch buffers shared by every parameter, so a
    step allocates no array data and every weight comes out bit for bit
    as the out-of-place formula would leave it.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        largest = max((p.data.size for p in params), default=0)
        self._scratch = (np.empty(largest), np.empty(largest))
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1 - self.beta1**self._t
        bias2 = 1 - self.beta2**self._t
        for param, m, v in zip(self.params, self._m, self._v):
            grad = param.grad
            if grad is None:
                continue
            size, shape = grad.size, grad.shape
            a = self._scratch[0][:size].reshape(shape)
            b = self._scratch[1][:size].reshape(shape)
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1 - self.beta1, out=a)
            np.add(m, a, out=m)
            # v = beta2 * v + (1 - beta2) * grad**2
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, grad, out=b)
            np.multiply(b, 1 - self.beta2, out=b)
            np.add(v, b, out=v)
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            np.add(b, self.eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(param.data, a, out=param.data)

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None
