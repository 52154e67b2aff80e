"""Finite-difference oracles for every parameter gradient of the ANN and
attention models (the spiking nets' are in test_snn_backward.py), and the
stateless backward every model offers: parameter gradients go only to the
caller's dict, and nothing is stored on the model."""

import numpy as np
import pytest

from snnadv import numerics
from snnadv.ann import EVAL_BATCH, build_cnn, build_mlp
from snnadv.attention import TinyAttentionNet
from snnadv.dynamics import NeuronConfig, build_snn_mlp

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
    for _, param in net.params():
        param += 0.1 * rng.standard_normal(param.shape)
    x = rng.uniform(0, 1, size=(2,) + input_shape)
    y = np.array([0, 2])
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    grads = {}
    net.backward(cache, dlogits, grads)
    assert sorted(grads) == sorted(pname for pname, _ in net.params())
    for pname, param in net.params():
        grad = grads[pname]
        # an all-zero gradient (say, a ReLU dead on every sample) would match
        # FD without testing anything
        assert np.any(grad), pname
        assert grad.shape == param.shape and grad.dtype == param.dtype, pname

        def loss_of(pv, param=param):
            old = param.copy()
            param[...] = pv
            out = numerics.softmax_cross_entropy(net.forward(x), y)[0]
            param[...] = old
            return out

        fd = numerics.finite_difference_grad(loss_of, param, h=1e-6)
        assert numerics.max_rel_err(grad, fd) <= 1e-5, pname


LEAN_NETS = {
    "snn-hard": (lambda: build_snn_mlp([16, 12, 3], T=4, seed=1,
                                       neuron=NeuronConfig(leak=0.9, threshold=0.5)), (16,)),
    "snn-adaptive": (lambda: build_snn_mlp([16, 12, 3], T=4, seed=1,
                                           neuron=NeuronConfig(threshold=0.5,
                                                               adapt_decay=0.5)), (16,)),
    "mlp": (lambda: build_mlp([16, 7, 3], seed=1), (16,)),
    "cnn": (lambda: build_cnn((1, 4, 4), [2], 6, 3, seed=2), (1, 4, 4)),
    "attention-2": (lambda: TinyAttentionNet(image_shape=(1, 4, 4), patch=2, embed=4,
                                             n_layers=2, n_heads=2, n_classes=3,
                                             ffn_hidden=6, seed=3), (1, 4, 4)),
}


def _state(obj):
    """Every attribute of ``obj``: the object bound to it, and its bytes if
    it is an array."""
    return {k: (v, v.tobytes() if isinstance(v, np.ndarray) else None)
            for k, v in vars(obj).items()}


def _model_state(net):
    return [_state(part) for part in [net] + list(getattr(net, "layers", []))
            + list(getattr(net, "blocks", []))]


def _assert_same_state(before, after):
    for part_before, part_after in zip(before, after, strict=True):
        assert part_before.keys() == part_after.keys()
        for k, (obj, raw) in part_before.items():
            assert part_after[k][0] is obj, k
            assert part_after[k][1] == raw, k


def _lean_case(name, rows=3, dtype=np.float32):
    build, input_shape = LEAN_NETS[name]
    x = np.random.default_rng(1).uniform(0, 1, size=(rows,) + input_shape).astype(dtype)
    return build().astype(dtype), x, np.arange(rows) % 3


@pytest.mark.parametrize("name", list(LEAN_NETS))
def test_backward_stores_nothing_on_the_model(name):
    net, x, y = _lean_case(name)
    before = _model_state(net)
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    net.backward(cache, dlogits)  # as the attacks call it
    _assert_same_state(before, _model_state(net))
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    grads = {}
    net.backward(cache, dlogits, grads)  # as training calls it
    _assert_same_state(before, _model_state(net))
    assert sorted(grads) == sorted(pname for pname, _ in net.params())


# without a grads dict the attention blocks run EVAL_BATCH rows at a time, so
# these rows take three row blocks; with one they run on the whole batch
BLOCKED_ROWS = 2 * EVAL_BATCH + 17


@pytest.mark.parametrize("name, rows, dtype", [
    *(pytest.param(name, 3, np.float32, id=name) for name in LEAN_NETS),
    *(pytest.param("attention-2", BLOCKED_ROWS, dtype, id=f"attention-2-blocked-{dtype.__name__}")
      for dtype in (np.float32, F64))])
def test_gradient_only_backward(name, rows, dtype):
    # the attacks' backward gives the input gradient of the training one
    net, x, y = _lean_case(name, rows, dtype)
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    lean = net.backward(cache, dlogits)
    full = net.backward(cache, dlogits, grads={})
    assert isinstance(lean, np.ndarray) and isinstance(full, np.ndarray)
    assert lean.dtype == full.dtype == dtype and lean.shape == full.shape
    assert lean.tobytes() == full.tobytes()

