"""Finite-difference oracles for every parameter gradient of the ANN and
attention models; the spiking nets' are in test_snn_backward.py."""

import numpy as np
import pytest

from snnadv import numerics
from snnadv.ann import build_cnn, build_mlp
from snnadv.attention import TinyAttentionNet

F64 = np.float64


def _attention(n_layers):
    return TinyAttentionNet(image_shape=(1, 4, 4), patch=2, embed=4, n_layers=n_layers,
                            n_heads=2, n_classes=3, ffn_hidden=6, seed=3, dtype=F64)


NETS = {
    "mlp": (lambda: build_mlp([5, 7, 3], seed=1, dtype=F64), (5,)),
    "cnn": (lambda: build_cnn((1, 4, 4), [2], 6, 3, seed=2, dtype=F64), (1, 4, 4)),
    "attention-1": (lambda: _attention(1), (1, 4, 4)),
    "attention-2": (lambda: _attention(2), (1, 4, 4)),
}


@pytest.mark.parametrize("name", list(NETS))
def test_param_gradients_match_fd(name):
    build, input_shape = NETS[name]
    net = build()
    rng = np.random.default_rng(0)
    # move every parameter off its init, so zero biases and unit gains are
    # checked at generic values too
    for _, param, _ in net.param_pairs():
        param += 0.1 * rng.standard_normal(param.shape)
    x = rng.uniform(0, 1, size=(2,) + input_shape)
    y = np.array([0, 2])
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    net.backward(cache, dlogits)
    for pname, param, grad in net.param_pairs():
        # an all-zero gradient (say, a ReLU dead on every sample) would match
        # FD without testing anything
        assert np.any(grad), pname
        grad = grad.copy()

        def loss_of(pv, param=param):
            old = param.copy()
            param[...] = pv
            out = numerics.softmax_cross_entropy(net.forward(x), y)[0]
            param[...] = old
            return out

        fd = numerics.finite_difference_grad(loss_of, param, h=1e-6)
        assert numerics.max_rel_err(grad, fd) <= 1e-5, pname
