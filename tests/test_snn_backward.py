import zlib

import numpy as np
import pytest

from snnadv import numerics
from snnadv.dynamics import NeuronConfig, SpikingLayer, SpikingNet, SynapseConfig, build_snn_mlp
from snnadv.surrogate import SurrogateSpec, surrogate_grad

from oracles import finite_difference_grad, max_rel_err, relaxed


def relaxed_net(kind="sigmoid", reset="hard_zero", adapt=None, synapse=SynapseConfig(),
                readout="membrane", T=3, seed=0, dims=(5, 6, 3), leak=0.8):
    return relaxed(build_snn_mlp(list(dims), T=T, seed=seed,
                                 neuron=NeuronConfig(leak=leak, threshold=1.0, reset=reset,
                                                     adapt_decay=adapt),
                                 synapse=synapse, surrogate=SurrogateSpec(kind=kind),
                                 readout=readout, dtype=np.float64))


SYNAPSES = [pytest.param(SynapseConfig(), id="identity"),
            pytest.param(SynapseConfig(alphas=(0.5,), betas=(1.0, 0.3)), id="iir")]


def fd_input_check(net, x, y, h=1e-6):
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    dinput = net.backward(cache, dlogits)
    fd = finite_difference_grad(
        lambda xv: numerics.softmax_cross_entropy(net.forward(xv), y)[0], x, h=h)
    return max_rel_err(dinput, fd)


class TestRelaxedModeOracle:
    @pytest.mark.parametrize("reset,adapt", [("hard_zero", None), ("soft_subtract", None),
                                             ("soft_subtract", 0.5)])
    @pytest.mark.parametrize("kind", ["sigmoid", "arctan", "erfc"])
    def test_input_gradient_matches_fd(self, reset, adapt, kind):
        rng = np.random.default_rng(zlib.crc32(f"{reset}-{kind}".encode()))
        net = relaxed_net(kind=kind, reset=reset, adapt=adapt)
        x = rng.uniform(0.2, 1.5, size=(2, 5))
        y = np.array([0, 2])
        assert fd_input_check(net, x, y) <= 1e-5

    def test_stateful_synapse_gradient(self):
        net = relaxed_net(synapse=SynapseConfig(alphas=(0.5,), betas=(1.0, 0.3)))
        rng = np.random.default_rng(10)
        x = rng.uniform(0.2, 1.5, size=(2, 5))
        assert fd_input_check(net, x, np.array([1, 2])) <= 1e-5

    def test_spike_count_readout_gradient(self):
        net = relaxed_net(readout="spike_count")
        rng = np.random.default_rng(11)
        x = rng.uniform(0.2, 1.5, size=(2, 5))
        assert fd_input_check(net, x, np.array([1, 0])) <= 1e-5

    @pytest.mark.parametrize("synapse", SYNAPSES)
    @pytest.mark.parametrize("readout", ["membrane", "spike_count"])
    def test_single_layer_input_gradient(self, readout, synapse):
        # layer 0 is also the last layer
        net = relaxed_net(synapse=synapse, readout=readout, dims=(5, 3))
        rng = np.random.default_rng(14)
        x = rng.uniform(0.2, 1.5, size=(2, 5))
        assert fd_input_check(net, x, np.array([2, 0])) <= 1e-5

    @pytest.mark.parametrize("dims,readout", [
        pytest.param((5, 6, 3), "membrane", id="5-6-3-membrane"),
        pytest.param((5, 3), "membrane", id="5-3-membrane"),
        pytest.param((5, 3), "spike_count", id="5-3-spike_count")])
    @pytest.mark.parametrize("synapse", SYNAPSES)
    def test_weight_gradients_match_fd(self, synapse, dims, readout):
        net = relaxed_net(synapse=synapse, readout=readout, dims=dims)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.2, 1.5, size=(2, 5))
        y = np.array([0, 1])
        logits, cache = net.forward_cached(x)
        _, dlogits = numerics.softmax_cross_entropy(logits, y)
        grads = {}
        net.backward(cache, dlogits, grads)
        assert sorted(grads) == sorted(name for name, _ in net.params())
        for name, param in net.params():
            grad = grads[name]

            def loss_of(pv, param=param):
                old = param.copy()
                param[...] = pv
                out = numerics.softmax_cross_entropy(net.forward(x), y)[0]
                param[...] = old
                return out

            fd = finite_difference_grad(loss_of, param, h=1e-6)
            assert max_rel_err(grad, fd) <= 1e-5, name


class TestBackwardStructure:
    def test_zero_dlogits_gives_zero_gradients(self):
        net = build_snn_mlp([4, 6, 3], T=4, seed=3)
        x = np.random.default_rng(0).uniform(0, 1, (2, 4)).astype(np.float32)
        _, cache = net.forward_cached(x)
        grads = {}
        dinput = net.backward(cache, np.zeros((2, 3), dtype=np.float32), grads)
        assert np.array_equal(dinput, np.zeros_like(dinput))
        assert sorted(grads) == sorted(name for name, _ in net.params())
        for name, grad in grads.items():
            assert not grad.any(), name

    @pytest.mark.parametrize("threshold", [1.0, 0.7])
    def test_t1_closed_form_chain_rule(self, threshold):
        # single spiking layer, T=1, spike-count readout: the input gradient is
        # (dlogits/T * kernel(V)) @ w.T exactly, the kernel centred on the
        # layer's own firing threshold
        w = np.array([[0.8, -0.4], [0.3, 1.1], [-0.2, 0.6]], dtype=np.float32)
        spec = SurrogateSpec(kind="arctan")
        net = SpikingNet([SpikingLayer(w, neuron=NeuronConfig(leak=0.5, threshold=threshold))],
                         T=1, surrogate=spec, readout="spike_count")
        x = np.array([[0.9, 0.2, 0.4]], dtype=np.float32)
        logits, cache = net.forward_cached(x)
        dlogits = np.array([[1.0, -2.0]], dtype=np.float32)
        dinput = net.backward(cache, dlogits)
        v = x @ w
        want = (dlogits * surrogate_grad(spec, v, threshold=threshold)) @ w.T
        assert np.allclose(dinput, want, atol=1e-6)

    def test_detach_reset_changes_gradient(self):
        # drive a regime with spikes so the reset path carries signal
        net = build_snn_mlp([4, 6, 3], T=6, seed=3,
                            neuron=NeuronConfig(leak=0.9, threshold=0.5))
        x = np.random.default_rng(1).uniform(0.5, 1.5, (2, 4)).astype(np.float32)
        y = np.array([0, 1])
        logits, cache = net.forward_cached(x)
        _, dlogits = numerics.softmax_cross_entropy(logits, y)
        full = net.backward(cache, dlogits).copy()
        net.detach_reset = True
        _, cache2 = net.forward_cached(x)
        detached = net.backward(cache2, dlogits).copy()
        net.detach_reset = False
        assert not np.allclose(full, detached)

    def test_detached_reset_breaks_fd_agreement(self):
        # the relaxed oracle only matches when the reset path is differentiated
        net = relaxed_net(reset="hard_zero", leak=0.9)
        rng = np.random.default_rng(13)
        x = rng.uniform(0.5, 1.5, size=(2, 5))
        y = np.array([0, 1])
        err_full = fd_input_check(net, x, y)
        net.detach_reset = True
        err_detached = fd_input_check(net, x, y)
        assert err_full <= 1e-5
        assert err_detached > 1e-4

    def test_gradients_deterministic(self):
        net = build_snn_mlp([4, 6, 3], T=4, seed=9)
        x = np.random.default_rng(2).uniform(0, 1.3, (3, 4)).astype(np.float32)
        y = np.array([0, 1, 2])
        out = []
        for _ in range(2):
            logits, cache = net.forward_cached(x)
            _, dlogits = numerics.softmax_cross_entropy(logits, y)
            out.append(net.backward(cache, dlogits).copy())
        assert np.array_equal(out[0], out[1])
