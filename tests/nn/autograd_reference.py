"""Reference reverse-mode autograd engine and the ranking losses on it.

The library trains on plain arrays with hand-written backward passes
(:mod:`repro.nn.losses`, :meth:`repro.nn.layers.MLP.backward` and the three
fits).  This module is the general engine they were derived from, kept
as the reference their gradients are checked against byte for byte:
broadcasting arithmetic, matrix multiplication, reductions, the usual
nonlinearities, softmax and absolute value, plus the Tensor forms of the
losses (MSE, BCE, the cosine triplet, NeuralSort and NeuralNDCG) and of
each fit's per-batch loss.

Gradients accumulate into ``Tensor.grad`` after calling ``backward()`` on a
scalar tensor.  Only tensors created with ``requires_grad=True`` (or derived
from them) participate in the graph.  A constant operand gets no gradient
(its ``grad`` stays ``None``): a backward computes an operand's gradient only
when that operand takes one, so a constant feature batch costs no product.
"""

from __future__ import annotations

import numpy as np

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


# ----------------------------------------------------------------------
# Losses on the engine.


def mse_loss(predicted: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = predicted - target
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, target: Tensor) -> Tensor:
    """Binary cross-entropy on logits (numerically stable).

    Uses ``max(x,0) - x*t + log(1 + exp(-|x|))``.
    """
    relu_part = logits.clip_min(0.0)
    abs_part = logits.abs()
    log_part = (1.0 + (-abs_part).exp()).log()
    return (relu_part - logits * target + log_part).mean()


def triplet_loss(
    anchor: Tensor, positive: Tensor, negative: Tensor, margin: float = 0.3
) -> Tensor:
    """Cosine triplet loss ``max(0, margin - cos(a,p) + cos(a,n))``.

    Inputs are 1-D embeddings.  The paper's phrase triplet loss pushes
    mismatched phrases away from the NL query embedding relative to matched
    phrases.
    """
    pos_sim = _cosine(anchor, positive)
    neg_sim = _cosine(anchor, negative)
    return (neg_sim - pos_sim + margin).clip_min(0.0)


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    return (a @ b) / (a.norm() * b.norm())


def neural_sort(scores: Tensor, tau: float = 1.0) -> Tensor:
    """NeuralSort relaxation: a row-stochastic 'permutation' matrix.

    ``P[k]`` softly selects the k-th largest element of *scores*.
    Reference: Grover et al., 2019 (as used by NeuralNDCG).
    """
    s = scores.reshape(-1, 1)
    n = s.shape[0]
    ones = Tensor(np.ones((n, 1)))
    abs_diff = (s - s.T).abs()  # |s_i - s_j|
    b = abs_diff @ ones  # row sums
    scaling = Tensor(np.arange(n, 0, -1, dtype=np.float64) * 2.0 - (n + 1))
    # c[k, i] = (n + 1 - 2k) * s_i  with k ranked from 1..n
    c = scaling.reshape(-1, 1) @ s.reshape(1, -1)
    p = c - b.reshape(1, -1)
    return (p * (1.0 / tau)).softmax(axis=-1)


def neural_ndcg_loss(
    predicted: Tensor, relevance: np.ndarray, tau: float = 1.0
) -> Tensor:
    """1 - NeuralNDCG of *predicted* scores against graded *relevance*."""
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
    sorted_gains = permutation @ Tensor(gains)
    ndcg = (sorted_gains * Tensor(discounts)).sum() * (1.0 / ideal)
    return 1.0 - ndcg


# ----------------------------------------------------------------------
# The three fits' per-batch losses on the engine.


def leaves(net) -> list[Tensor]:
    """An MLP's parameters as engine leaves that share their arrays."""
    return [Tensor(param.data, requires_grad=True) for param in net.parameters()]


def mlp_forward(params: list[Tensor], x: Tensor) -> Tensor:
    """The MLP forward on the engine; *params* is ``[W0, b0, W1, b1, ...]``."""
    layers = list(zip(params[::2], params[1::2]))
    for weight, bias in layers[:-1]:
        x = (x @ weight + bias).tanh()
    weight, bias = layers[-1]
    return x @ weight + bias


def classifier_loss(params, features, targets) -> Tensor:
    """``MetadataClassifier``'s batch loss: MLP logits, then BCE."""
    logits = mlp_forward(params, Tensor(features))
    return bce_with_logits(logits, Tensor(targets))


def stage1_loss(
    query_params, sql_params, question_features, sql_features, targets
) -> Tensor:
    """``DualTowerRanker``'s batch loss: MSE of the towers' row cosines."""
    a = mlp_forward(query_params, Tensor(question_features))
    b = mlp_forward(sql_params, Tensor(sql_features))
    cosines = (a * b).sum(axis=1) / (a.norm(axis=1) * b.norm(axis=1))
    diff = cosines - Tensor(targets)
    return (diff * diff).mean()


def stage2_loss(
    config, coarse_params, fine_params, sentence, per_phrase, targets
) -> Tensor:
    """``MultiGrainedRanker``'s list loss under the stage-2 *config*."""
    y_global = mlp_forward(coarse_params, Tensor(sentence)).reshape(-1)
    diff = y_global - Tensor(targets)
    loss = (diff * diff).mean()
    loss = loss + config.ndcg_weight * neural_ndcg_loss(
        y_global * 0.1, targets * 0.3, tau=0.5
    )
    if not config.phrase_supervision:
        return loss

    local_scores = []
    phrase_score_tensors = []
    for features in per_phrase:
        scores = mlp_forward(fine_params, Tensor(features)).reshape(-1)
        phrase_score_tensors.append(scores)
        local_scores.append(scores.mean())
    y_local = Tensor.stack(local_scores)
    local_diff = y_local - Tensor(targets)
    loss = loss + (local_diff * local_diff).mean()
    loss = loss + config.ndcg_weight * neural_ndcg_loss(
        y_local * 0.1, targets * 0.3, tau=0.5
    )

    order = np.argsort(-targets)
    best, worst = int(order[0]), int(order[-1])
    if targets[best] - targets[worst] >= 2.0:
        positive = phrase_score_tensors[best].mean()
        negative = phrase_score_tensors[worst].mean()
        hinge = (negative - positive + config.triplet_margin).clip_min(0.0)
        loss = loss + config.triplet_weight * hinge
    return loss


def backward_into(loss: Tensor, *bound: tuple[object, list[Tensor]]) -> float:
    """Backpropagate *loss* and hand each leaf's gradient to its parameter.

    Each of *bound* pairs an MLP with the :func:`leaves` *loss* was built
    from; a leaf the loss never reached leaves its parameter's ``grad``
    ``None``, as the engine leaves the leaf's.
    """
    loss.backward()
    for net, params in bound:
        for param, leaf in zip(net.parameters(), params):
            param.grad = leaf.grad
    return loss.item()
