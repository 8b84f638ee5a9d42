import numpy as np
import pytest

from reference import flatten_arrays, unflatten_arrays
from saferl.mlp import (
    Adam,
    clip_by_global_norm,
    net_backward,
    net_forward,
    net_init,
)


def numeric_grads(net, x, dout, h=1e-6):
    params = net.params()
    flat0 = flatten_arrays(params)
    grads = np.zeros_like(flat0)

    def loss_at(flat):
        vals = unflatten_arrays(flat, params)
        for dst, src in zip(params, vals):
            dst[...] = src
        y, _ = net_forward(net, x)
        out = float(np.sum(y * dout))
        for dst, src in zip(params, unflatten_arrays(flat0, params)):
            dst[...] = src
        return out

    for i in range(flat0.size):
        e = np.zeros_like(flat0)
        e[i] = h
        grads[i] = (loss_at(flat0 + e) - loss_at(flat0 - e)) / (2 * h)
    return grads


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    for sizes in [(2, 1), (3, 4, 2), (2, 5, 3, 1)]:
        net = net_init(sizes, rng)
        x = rng.standard_normal((6, sizes[0]))
        dout = rng.standard_normal((6, sizes[-1]))
        y, cache = net_forward(net, x)
        grads, dx = net_backward(net, cache, dout)
        flat = flatten_arrays(grads)
        num = numeric_grads(net, x, dout)
        rel = np.abs(flat - num) / np.maximum(1e-8, np.maximum(np.abs(flat), np.abs(num)))
        assert rel.max() < 1e-4


def test_backward_input_gradient():
    rng = np.random.default_rng(1)
    net = net_init((3, 4, 2), rng)
    x = rng.standard_normal((1, 3))
    dout = np.ones((1, 2))
    _, cache = net_forward(net, x)
    _, dx = net_backward(net, cache, dout)
    h = 1e-6
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[0, i] += h
        xm[0, i] -= h
        num = (net_forward(net, xp)[0].sum() - net_forward(net, xm)[0].sum()) / (2 * h)
        assert dx[0, i] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_orthogonal_init_properties():
    rng = np.random.default_rng(2)
    net = net_init((7, 128, 128, 2), rng, out_gain=0.01)
    assert [w.shape for w in net.weights] == [(7, 128), (128, 128), (128, 2)]
    assert net.sizes == (7, 128, 128, 2)
    w = net.weights[1]
    gram = w.T @ w / 2.0  # hidden gain sqrt(2)
    assert np.allclose(gram, np.eye(128), atol=1e-10)
    assert np.max(np.abs(net.weights[-1])) <= 0.011
    assert all(np.all(b == 0) for b in net.biases)


def test_adam_zero_lr_is_identity():
    rng = np.random.default_rng(3)
    net = net_init((2, 3, 1), rng)
    params = flatten_arrays(net.params())
    before = params.copy()
    adam = Adam(params.size, lr=0.0)
    for _ in range(3):
        adam.step(params, np.ones_like(params))
    assert np.array_equal(params, before)


def test_adam_descends_quadratic():
    p = np.array([5.0])
    adam = Adam(1, lr=0.1)
    for _ in range(500):
        adam.step(p, 2.0 * p)
    assert abs(p[0]) < 1e-3


def test_global_norm_clip():
    g = [np.array([3.0, 0.0]), np.array([[4.0]])]
    total = clip_by_global_norm(g, 2.5)
    assert total == pytest.approx(5.0)
    clipped = np.sqrt(sum(float(np.sum(a * a)) for a in g))
    assert clipped == pytest.approx(2.5)
    g2 = [np.array([0.3])]
    clip_by_global_norm(g2, 2.5)
    assert g2[0][0] == pytest.approx(0.3)


def test_flatten_roundtrip():
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal((2, 3)), rng.standard_normal(4), rng.standard_normal((1, 1))]
    flat = flatten_arrays(arrays)
    back = unflatten_arrays(flat, arrays)
    for a, b in zip(arrays, back):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        unflatten_arrays(flat[:-1], arrays)
