import re

import numpy as np
import pytest

from snnadv import numerics
from snnadv.ann import AnnNet, AvgPool2d, Conv2d, Dense, Flatten, ReLU, build_cnn, build_mlp
from snnadv.errors import ConfigError, DimensionError

from oracles import finite_difference_grad, max_rel_err


def ce_input_grad(net, x, y):
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    return net.backward(cache, dlogits)


class TestDense:
    def test_single_layer_closed_form(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 3))
        net = AnnNet([Dense(w.astype(np.float64))])
        x = rng.standard_normal((2, 4))
        y = np.array([0, 2])
        logits = net.forward(x)
        dinput = ce_input_grad(net, x, y)
        p = numerics.softmax(logits)
        p[np.arange(2), y] -= 1.0
        want = (p / 2) @ w.T
        assert np.allclose(dinput, want, atol=1e-12)

    def test_relu_blocks_gradient(self):
        w1 = np.array([[1.0], [1.0]])
        w2 = np.array([[1.0, -1.0]])
        net = AnnNet([Dense(w1), ReLU(), Dense(w2)])
        x = np.array([[-2.0, 0.5]])  # pre-activation -1.5 < 0: blocked
        dinput = ce_input_grad(net, x, np.array([0]))
        assert np.array_equal(dinput, np.zeros_like(dinput))

    def test_full_net_fd(self):
        net = build_mlp([6, 8, 3], seed=1).astype(np.float64)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(2, 6))
        y = np.array([0, 2])
        dinput = ce_input_grad(net, x, y)
        fd = finite_difference_grad(
            lambda xv: numerics.softmax_cross_entropy(net.forward(xv), y)[0], x, h=1e-6)
        assert max_rel_err(dinput, fd) <= 1e-5

    def test_width_mismatch(self):
        net = build_mlp([6, 4, 3], seed=0)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 5), dtype=np.float32))


class TestConvPool:
    def test_cnn_wrong_size(self):
        net = build_cnn((1, 8, 8), [2], 8, 3)
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 65), dtype=np.float32))

    def test_conv_identity_kernel(self):
        w = np.zeros((1, 1, 3, 3), dtype=np.float64)
        w[0, 0, 1, 1] = 1.0
        conv = Conv2d(w, pad=1)
        x = np.random.default_rng(2).standard_normal((2, 1, 5, 5))
        out, _ = conv.forward(x)
        assert np.allclose(out, x)

    def test_avgpool_values_and_backward(self):
        pool = AvgPool2d()
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, cache = pool.forward(x)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
        back = pool.backward(np.ones_like(out), cache)
        assert np.allclose(back, 0.25)

    def test_conv_net_fd(self):
        net = build_cnn((1, 6, 6), [3], 12, 3, seed=2).astype(np.float64)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(2, 1, 6, 6))
        y = np.array([1, 2])
        dinput = ce_input_grad(net, x, y).reshape(x.shape)
        fd = finite_difference_grad(
            lambda xv: numerics.softmax_cross_entropy(net.forward(xv), y)[0], x, h=1e-6)
        assert max_rel_err(dinput, fd) <= 1e-5

    def test_conv_weight_grad_fd(self):
        net = build_cnn((1, 6, 6), [2], 8, 2, seed=4).astype(np.float64)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(2, 1, 6, 6))
        y = np.array([0, 1])
        logits, cache = net.forward_cached(x)
        _, dlogits = numerics.softmax_cross_entropy(logits, y)
        grads = {}
        net.backward(cache, dlogits, grads)
        conv = net.layers[0]
        dw = grads["layer0.w"]

        def loss_of(wv):
            old = conv.w.copy()
            conv.w[...] = wv
            out = numerics.softmax_cross_entropy(net.forward(x), y)[0]
            conv.w[...] = old
            return out

        fd = finite_difference_grad(loss_of, conv.w, h=1e-6)
        assert max_rel_err(dw, fd) <= 1e-5

    def test_odd_extent_pooling_rejected(self):
        pool = AvgPool2d()
        with pytest.raises(DimensionError):
            pool.forward(np.zeros((1, 1, 5, 4)))

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        out, cache = flat.forward(x)
        assert out.shape == (2, 12)
        assert np.array_equal(flat.backward(out, cache), x)


class TestRefusals:
    @pytest.mark.parametrize("make,error,message", [
        (lambda: Dense(np.zeros(3)), DimensionError, "dense weights must be 2-d, got (3,)"),
        (lambda: Dense(np.zeros((2, 3)), np.zeros(2)), DimensionError,
         "bias shape (2,) does not match width 3"),
        (lambda: Dense(np.zeros((2, 3))).forward(np.zeros((1, 4))), DimensionError,
         "dense input width 4 != 2"),
        (lambda: Conv2d(np.zeros((1, 1, 3))), DimensionError,
         "conv weights must be 4-d, got (1, 1, 3)"),
        (lambda: Conv2d(np.zeros((1, 2, 3, 3))).forward(np.zeros((1, 1, 4, 4))),
         DimensionError, "conv input channels 1 != 2"),
        (lambda: AnnNet([ReLU(), Flatten()]), ConfigError,
         "network needs at least one layer with weights"),
        (lambda: AnnNet([Conv2d(np.zeros((1, 1, 3, 3)))]).n_classes, ConfigError,
         "no dense layer to read the class count from"),
        (lambda: build_mlp([4]), ConfigError, "need at least input and output widths"),
    ], ids=["dense-rank", "dense-bias", "dense-input", "conv-rank", "conv-channels",
            "no-weights", "no-dense", "one-width"])
    def test_refusal_names_its_cause(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()
