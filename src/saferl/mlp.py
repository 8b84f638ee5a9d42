"""Small dense networks with hand-written forward and backward passes.

tanh hidden layers, linear output.  Inputs are batched row-wise: x has shape
(B, d_in), weights (d_in, d_out).  Gradients are exact and are checked
against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseNet",
    "net_init",
    "net_forward",
    "net_backward",
    "Adam",
]


@dataclass
class DenseNet:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def _orthogonal(rows: int, cols: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))  # unique decomposition, keeps determinism meaningful
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def net_init(sizes: tuple[int, ...], rng: np.random.Generator, out_gain: float = 1.0) -> DenseNet:
    """Orthogonal weight init, hidden layers at gain sqrt(2), zero biases."""
    weights, biases = [], []
    for i in range(len(sizes) - 1):
        gain = out_gain if i == len(sizes) - 2 else np.sqrt(2.0)
        weights.append(_orthogonal(sizes[i], sizes[i + 1], gain, rng))
        biases.append(np.zeros(sizes[i + 1]))
    return DenseNet(weights, biases)


def net_forward(net: DenseNet, x: np.ndarray):
    """Returns (output, cache); cache feeds net_backward."""
    h = np.asarray(x, dtype=float)
    if h.ndim < 2:
        h = h.reshape(1, -1)
    activations = [h]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w
        h += b
        if i != last:
            np.tanh(h, out=h)
        activations.append(h)
    return h, activations


def net_backward(net: DenseNet, cache: list[np.ndarray], dout: np.ndarray, out=None):
    """Backprop dout (B, d_out) through the net.

    Returns the parameter gradients, ordered like net.params(); the input
    gradient is not computed.  With ``out``, arrays shaped like
    net.params(), the gradients are written into them and ``out`` is
    returned.  The pass consumes ``cache``: each hidden activation is
    overwritten in place by its tanh derivative times the incoming
    gradient, ``(1 - h**2) * dh``.
    """
    n_layers = len(net.weights)
    grads = [np.empty_like(p) for p in net.params()] if out is None else out
    dh = np.atleast_2d(np.asarray(dout, dtype=float))
    for i in range(n_layers - 1, -1, -1):
        # output layer is linear; hidden activations are tanh
        if i == n_layers - 1:
            dz = dh
        else:
            dz = cache[i + 1]
            np.square(dz, out=dz)
            np.subtract(1.0, dz, out=dz)
            dz *= dh
        np.matmul(cache[i].T, dz, out=grads[2 * i])
        np.add.reduce(dz, axis=0, out=grads[2 * i + 1])  # dz.sum(axis=0), unwrapped
        if i:
            dh = dz @ net.weights[i].T
    return grads


class Adam:
    """Standard Adam with bias correction over one flat parameter vector;
    lr 0 leaves parameters untouched.

    ``step`` updates in place through two scratch vectors, with the
    elementwise operations of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)`` in that order.  Once ``bc1``
    rounds to 1.0 (from t = 356 at b1 = 0.9), ``m/bc1`` is ``m`` bit for
    bit, and that division is skipped.
    """

    BETA1 = 0.9
    BETA2 = 0.999

    def __init__(self, size: int, lr: float, eps=1e-5):
        self.lr = lr
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(size)
        self._b = np.empty(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of the flat vector ``params`` from the flat ``grads``."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        m, v, a, b = self.m, self.v, self._a, self._b
        m *= b1
        np.multiply(grads, 1 - b1, out=a)
        m += a
        v *= b2
        np.multiply(grads, 1 - b2, out=a)
        a *= grads
        v += a
        if bc1 == 1.0:
            np.multiply(m, self.lr, out=a)
        else:
            np.divide(m, bc1, out=a)
            a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a

