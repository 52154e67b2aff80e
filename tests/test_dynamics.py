import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from snnadv.dynamics import (NeuronConfig, SpikingLayer, SpikingNet, SynapseConfig,
                             build_snn_mlp, step_adaptive, step_lif_hard, step_lif_soft,
                             synapse_filter)
from snnadv.errors import ConfigError, DimensionError, EvaluationError, StateError
from snnadv.surrogate import KINDS, SurrogateSpec

from conftest import traced_kept, traced_peak
from oracles import RelaxedNet, relaxed

F32 = np.float32


def run_steps(step, cfg, currents):
    """Drive a single scalar neuron; returns (v_trace, o_trace)."""
    v = np.zeros(1, dtype=F32)
    o = np.zeros(1, dtype=F32)
    vs, os_ = [], []
    for c in currents:
        v, o = step(v, o, np.array([c], dtype=F32), cfg)
        vs.append(float(v[0]))
        os_.append(float(o[0]))
    return vs, os_


class TestHardReset:
    def test_hand_trace_spike_at_three(self):
        cfg = NeuronConfig(leak=0.5, threshold=1.0)
        vs, os_ = run_steps(step_lif_hard, cfg, [0.6] * 5)
        assert os_ == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert vs == pytest.approx([0.6, 0.9, 1.05, 0.6, 0.9], abs=1e-6)

    def test_zero_input_never_spikes(self):
        cfg = NeuronConfig(leak=0.9, threshold=1.0)
        vs, os_ = run_steps(step_lif_hard, cfg, [0.0] * 6)
        assert vs == [0.0] * 6 and os_ == [0.0] * 6

    def test_boundary_fire_and_hard_reset(self):
        # input exactly theta at t=1: fires immediately; reset gate zeroes the
        # previous potential so V[2] equals the fresh input alone
        cfg = NeuronConfig(leak=1.0, threshold=1.0)
        vs, os_ = run_steps(step_lif_hard, cfg, [1.0, 0.3])
        assert os_[0] == 1.0
        assert vs[1] == pytest.approx(0.3)

    def test_post_spike_potential_equals_fresh_input_any_leak(self):
        for leak in (0.3, 0.7, 1.0):
            cfg = NeuronConfig(leak=leak, threshold=1.0)
            vs, os_ = run_steps(step_lif_hard, cfg, [1.5, 0.42])
            assert os_[0] == 1.0
            assert vs[1] == pytest.approx(0.42)


class TestSoftReset:
    def test_period_two_fixture(self):
        cfg = NeuronConfig(leak=1.0, threshold=1.0, reset="soft_subtract")
        vs, os_ = run_steps(step_lif_soft, cfg, [0.5] * 6)
        assert vs == pytest.approx([0.5, 1.0, 0.5, 1.0, 0.5, 1.0], abs=1e-6)
        assert os_ == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_residual_carry(self):
        cfg = NeuronConfig(leak=1.0, threshold=1.0, reset="soft_subtract")
        vs, os_ = run_steps(step_lif_soft, cfg, [2.0, 0.25])
        assert os_[0] == 1.0
        # soft reset keeps the residual: V[2] = 2 - 1 + 0.25
        assert vs[1] == pytest.approx(1.25)

    def test_subthreshold_matches_hard_reset(self):
        soft = NeuronConfig(leak=0.8, threshold=10.0, reset="soft_subtract")
        hard = NeuronConfig(leak=0.8, threshold=10.0, reset="hard_zero")
        currents = [0.3, 0.1, 0.4, 0.2]
        vs_s, os_s = run_steps(step_lif_soft, soft, currents)
        vs_h, os_h = run_steps(step_lif_hard, hard, currents)
        assert os_s == [0.0] * 4 and os_h == [0.0] * 4
        assert vs_s == vs_h


class TestAdaptive:
    def run_adaptive(self, cfg, currents):
        v = np.zeros(1, dtype=F32)
        k = np.zeros(1, dtype=F32)
        o = np.zeros(1, dtype=F32)
        vs, ks, os_ = [], [], []
        for c in currents:
            v, k, o = step_adaptive(v, k, o, np.array([c], dtype=F32), cfg)
            vs.append(float(v[0]))
            ks.append(float(k[0]))
            os_.append(float(o[0]))
        return vs, ks, os_

    def test_phi_zero_equals_delayed_soft_inhibition(self):
        # with phi=0 the recharge is k[t]=O[t-1], so the potential update
        # matches soft reset with inhibition arriving one step later
        cfg = NeuronConfig(leak=1.0, threshold=1.0, adapt_decay=0.0)
        currents = [0.6, 0.6, 0.6, 0.6, 0.6]
        vs, ks, os_ = self.run_adaptive(cfg, currents)
        v = o_prev = o_prev2 = 0.0
        want = []
        for c in currents:
            v = v + c - 1.0 * o_prev2    # inhibition delayed by one step
            want.append(v)
            o_prev2 = o_prev
            o_prev = 1.0 if v >= 1.0 else 0.0
        assert vs == pytest.approx(want, abs=1e-6)

    def test_never_spiking_keeps_k_zero(self):
        cfg = NeuronConfig(leak=0.9, threshold=5.0, adapt_decay=0.5)
        vs, ks, os_ = self.run_adaptive(cfg, [0.2] * 5)
        assert ks == [0.0] * 5
        leaky = []
        v = 0.0
        for _ in range(5):
            v = 0.9 * v + 0.2
            leaky.append(v)
        assert vs == pytest.approx(leaky, abs=1e-6)

    def test_geometric_inhibition_decay(self):
        # strong leak so the neuron spikes exactly once; k then recharges to 1
        # and decays geometrically: 1, 0.5, 0.25, ...
        cfg = NeuronConfig(leak=0.1, threshold=1.0, adapt_decay=0.5)
        vs, ks, os_ = self.run_adaptive(cfg, [1.0, 0.0, 0.0, 0.0])
        assert os_[0] == 1.0 and os_[1:] == [0.0, 0.0, 0.0]
        assert ks[1:] == pytest.approx([1.0, 0.5, 0.25], abs=1e-7)


class TestSynapse:
    def test_identity(self):
        spikes = np.arange(6, dtype=F32).reshape(6, 1)
        assert np.array_equal(synapse_filter(SynapseConfig(), spikes), spikes)

    def test_impulse_response_geometric(self):
        cfg = SynapseConfig(alphas=(0.5,), betas=(1.0,))
        impulse = np.zeros((6, 1), dtype=F32)
        impulse[0] = 1.0
        out = synapse_filter(cfg, impulse)
        assert out[:, 0] == pytest.approx([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])

    def test_matches_convolution_oracle(self):
        cfg = SynapseConfig(alphas=(0.4, -0.2), betas=(0.7, 0.1))
        rng = np.random.default_rng(0)
        spikes = rng.uniform(0, 1, size=(20, 1)).astype(F32)
        # impulse response over the window, then direct convolution
        impulse = np.zeros((20, 1), dtype=F32)
        impulse[0] = 1.0
        h = synapse_filter(cfg, impulse)[:, 0]
        want = np.array([sum(h[k] * spikes[t - k, 0] for k in range(t + 1))
                         for t in range(20)])
        got = synapse_filter(cfg, spikes)[:, 0]
        assert np.allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("cfg", [
        pytest.param(SynapseConfig(), id="identity"),
        pytest.param(SynapseConfig(alphas=(0.5,)), id="order1"),
        pytest.param(SynapseConfig(alphas=(0.4, -0.2)), id="order2"),
        pytest.param(SynapseConfig(alphas=(0.4, -0.2), betas=(0.7, 0.2, 0.1)), id="order2-3betas"),
    ])
    @pytest.mark.parametrize("T", [1, 2, 7])
    def test_reversed_filter_is_adjoint(self, cfg, T):
        # <H s, d> == <s, H^T d>, with H^T the filter run backwards in time
        rng = np.random.default_rng(T)
        s = rng.normal(size=(T, 3, 4))
        d = rng.normal(size=(T, 3, 4))
        lhs = np.vdot(synapse_filter(cfg, s), d)
        rhs = np.vdot(s, synapse_filter(cfg, d[::-1])[::-1])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_unstable_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            SynapseConfig(alphas=(1.1,))
        with pytest.raises(ConfigError):
            SynapseConfig(alphas=(0.9, 0.3))


def scalar_synapse(cfg, stream):
    """X[t] = sum_q beta_q S[t-q] + sum_p alpha_p X[t-p], one scalar at a time."""
    n, width = stream[0].shape
    out = [np.zeros((n, width), dtype=F32) for _ in stream]
    for t in range(len(stream)):
        for s in range(n):
            for i in range(width):
                acc = 0.0
                for q, beta in enumerate(cfg.betas):
                    if t >= q:
                        acc += beta * float(stream[t - q][s, i])
                for p, alpha in enumerate(cfg.alphas, start=1):
                    if t >= p:
                        acc += alpha * float(out[t - p][s, i])
                out[t][s, i] = acc
    return out


def scalar_oracle_forward(net, x):
    """Independent per-neuron, per-timestep reimplementation: each layer
    filters its input spike stream, then applies weights and an unfiltered
    bias."""
    x = np.asarray(x, dtype=F32)
    n = x.shape[0]
    layer_inputs = [x.copy() for _ in range(net.T)]
    for li, layer in enumerate(net.layers):
        is_readout = li == len(net.layers) - 1 and net.readout == "membrane"
        cfg = layer.neuron
        outs = [np.zeros((n, layer.out_width), dtype=F32) for _ in range(net.T)]
        filtered = scalar_synapse(layer.synapse, layer_inputs)
        v = np.zeros((n, layer.out_width), dtype=F32)
        o = np.zeros((n, layer.out_width), dtype=F32)
        for t in range(net.T):
            current = np.zeros((n, layer.out_width), dtype=F32)
            for s in range(n):
                for j in range(layer.out_width):
                    acc = layer.b[j]
                    for i in range(layer.in_width):
                        acc += filtered[t][s, i] * layer.w[i, j]
                    current[s, j] = acc
            if is_readout:
                v = cfg.leak * v + current
                if t == net.T - 1:
                    return v / net.T
            else:
                if cfg.reset == "hard_zero":
                    v = cfg.leak * (1.0 - o) * v + current
                else:
                    v = cfg.leak * v + current - cfg.threshold * o
                o = (v >= cfg.threshold).astype(F32)
                outs[t] = o
        layer_inputs = outs
    return sum(layer_inputs) / net.T


class TestSpikingNetForward:
    def test_t1_single_spiking_layer_is_thresholded_linear(self):
        w = np.array([[1.0, -1.0], [0.5, 2.0]], dtype=F32)
        layer = SpikingLayer(w, neuron=NeuronConfig(leak=1.0, threshold=1.0))
        net = SpikingNet([layer], T=1, readout="spike_count")
        x = np.array([[1.0, 0.2], [0.1, 0.1]], dtype=F32)
        want = (x @ w >= 1.0).astype(F32)
        assert np.array_equal(net.forward(x), want)

    def test_all_subthreshold_gives_zero_logits(self):
        net = build_snn_mlp([4, 6, 3], T=4, seed=0,
                            neuron=NeuronConfig(leak=0.9, threshold=100.0),
                            readout="spike_count")
        x = np.random.default_rng(0).uniform(0, 1, size=(3, 4)).astype(F32)
        assert np.array_equal(net.forward(x), np.zeros((3, 3), dtype=F32))

    @pytest.mark.parametrize("synapse", [
        pytest.param(SynapseConfig(), id="identity"),
        pytest.param(SynapseConfig(alphas=(0.4, -0.2), betas=(0.7, 0.3)), id="iir"),
    ])
    @pytest.mark.parametrize("readout", ["membrane", "spike_count"])
    def test_matches_scalar_oracle(self, readout, synapse):
        net = build_snn_mlp([3, 5, 2], T=4, seed=11,
                            neuron=NeuronConfig(leak=0.7, threshold=0.8),
                            synapse=synapse, readout=readout)
        rng = np.random.default_rng(2)
        for layer in net.layers:
            layer.b = rng.uniform(-0.3, 0.3, layer.out_width).astype(F32)
        x = rng.uniform(0, 1.5, size=(2, 3)).astype(F32)
        assert np.allclose(net.forward(x), scalar_oracle_forward(net, x), atol=1e-6)

    def test_spikes_binary(self):
        net = build_snn_mlp([4, 8, 3], T=6, seed=1)
        _, trace = net.forward_cached(np.random.default_rng(3).uniform(0, 2, (5, 4)))
        for lt in trace.layers[:-1]:
            assert set(np.unique(lt.o)) <= {0.0, 1.0}

    def test_identity_synapse_equivalent_to_compiled_out(self):
        neuron = NeuronConfig(leak=0.8, threshold=1.0)
        w = np.random.default_rng(4).uniform(-1, 1, (4, 3)).astype(F32)
        with_syn = SpikingNet([SpikingLayer(w.copy(), neuron=neuron,
                                            synapse=SynapseConfig())], T=5,
                              readout="spike_count")
        x = np.random.default_rng(5).uniform(0, 1, (3, 4)).astype(F32)
        logits, trace = with_syn.forward_cached(x)
        # the trace keeps the input as one time slice, and through the
        # identity synapse the first step's potential is the raw x @ W
        assert np.array_equal(trace.x, x[None])
        assert np.array_equal(trace.layers[0].v[0], x @ w)

    def test_forward_invariant_to_surrogate_spec(self):
        net = build_snn_mlp([4, 6, 3], T=5, seed=6)
        x = np.random.default_rng(7).uniform(0, 1.2, (4, 4)).astype(F32)
        a, ta = net.with_surrogate(SurrogateSpec(kind="arctan")).forward_cached(x)
        b, tb = net.with_surrogate(SurrogateSpec(kind="rectangular")).forward_cached(x)
        assert np.array_equal(a, b)
        for la, lb in zip(ta.layers, tb.layers):
            assert np.array_equal(la.o, lb.o)

    def test_deterministic(self):
        net = build_snn_mlp([4, 6, 3], T=5, seed=6)
        x = np.random.default_rng(8).uniform(0, 1.2, (4, 4)).astype(F32)
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_t_zero_rejected(self):
        with pytest.raises(ConfigError):
            build_snn_mlp([4, 3], T=0)

    def test_trace_mismatch_rejected(self):
        net_a = build_snn_mlp([4, 6, 3], T=5, seed=6)
        net_b = build_snn_mlp([4, 6, 3], T=4, seed=6)
        x = np.random.default_rng(9).uniform(0, 1, (2, 4)).astype(F32)
        _, trace = net_a.forward_cached(x)
        with pytest.raises(StateError):
            net_b.backward(trace, np.zeros((2, 3), dtype=F32))


class TestThresholdConfig:
    @pytest.mark.parametrize("threshold", [np.inf, -np.inf, np.nan, 0.0])
    def test_non_finite_or_non_positive_threshold_rejected(self, threshold):
        # rejected at construction, so the forward's spike needs no per-step check
        with pytest.raises(ConfigError):
            NeuronConfig(threshold=threshold)


class TestRefusals:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(leak=0.0), r"leak must be in \(0, 1\]"),
        (dict(reset="x"), "reset must be"),
        (dict(adapt_decay=1.0), r"adapt_decay must be in \[0, 1\)"),
        (dict(adapt_decay=float("nan")), r"adapt_decay must be in \[0, 1\), got nan"),
    ])
    def test_neuron_config(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            NeuronConfig(**kwargs)

    def test_synapse_without_beta_0(self):
        with pytest.raises(ConfigError, match="synapse needs at least beta_0"):
            SynapseConfig(betas=())

    @pytest.mark.parametrize("kwargs", [
        dict(alphas=(float("nan"),)), dict(alphas=(0.4, float("inf"))),
        dict(betas=(float("nan"),)), dict(betas=(1.0, float("-inf")))],
        ids=["nan-alpha", "inf-alpha", "nan-beta", "inf-beta"])
    def test_non_finite_synapse_coefficients(self, kwargs):
        # a NaN alpha reached np.roots, whose LinAlgError was no ConfigError
        with pytest.raises(ConfigError, match="^synapse coefficients must be finite"):
            SynapseConfig(**kwargs)

    @pytest.mark.parametrize("widths,kwargs,error,match", [
        ([(4, 3)], dict(readout="rate"), ConfigError, "unknown readout 'rate'"),
        ([], {}, ConfigError, "network needs at least one layer"),
        ([(4, 3), (5, 2)], {}, DimensionError, "layer widths mismatch: 3 -> 5"),
    ], ids=["readout", "no-layers", "widths"])
    def test_spiking_net(self, widths, kwargs, error, match):
        layers = [SpikingLayer(np.zeros(shape, dtype=F32)) for shape in widths]
        with pytest.raises(error, match=match):
            SpikingNet(layers, **kwargs)


NET_VARIANTS = [
    pytest.param(dict(neuron=NeuronConfig(leak=0.9, threshold=0.6)), {}, id="hard"),
    pytest.param(dict(neuron=NeuronConfig(leak=0.8, threshold=0.5, reset="soft_subtract"),
                      readout="spike_count"), {}, id="soft-count"),
    pytest.param(dict(neuron=NeuronConfig(leak=0.85, threshold=0.5, adapt_decay=0.4),
                      synapse=SynapseConfig(alphas=(0.4,), betas=(1.0, 0.2))), {},
                 id="adaptive-iir"),
    pytest.param(dict(neuron=NeuronConfig(leak=0.9, threshold=0.6)),
                 dict(detach_reset=True), id="hard-detached"),
    pytest.param(dict(neuron=NeuronConfig(leak=0.9, threshold=0.6),
                      surrogate=SurrogateSpec(kind="sigmoid")),
                 dict(relaxed=True), id="hard-relaxed"),
]


def variant_net(build_kw, attrs, dtype=F32):
    net = build_snn_mlp([6, 9, 7, 3], T=5, seed=21, dtype=dtype, **build_kw)
    attrs = dict(attrs)
    if attrs.pop("relaxed", False):
        net = relaxed(net)
    for name, value in attrs.items():
        setattr(net, name, value)
    return net


def trace_arrays(trace):
    yield trace.x
    for lt in trace.layers:
        yield from (lt.v, lt.o)


class TestBuffers:
    """The forward writes into its own trace buffers and the backward into
    its own scratch: nothing either returns is shared or written later."""

    @pytest.mark.parametrize("build_kw,attrs", NET_VARIANTS)
    def test_backward_leaves_the_trace_unchanged(self, build_kw, attrs):
        # Auto-SAGA runs two backwards (cross-entropy and margin) on one trace
        net = variant_net(build_kw, attrs)
        x = np.random.default_rng(1).uniform(0, 1.5, (4, 6)).astype(F32)
        logits, trace = net.forward_cached(x)
        before = [a.tobytes() for a in trace_arrays(trace)]
        dlogits = np.random.default_rng(2).normal(size=logits.shape).astype(F32)
        grads = {}
        first = net.backward(trace, dlogits, grads)
        assert [a.tobytes() for a in trace_arrays(trace)] == before
        second = net.backward(trace, dlogits)
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("build_kw,attrs", NET_VARIANTS)
    def test_two_forwards_are_equal_and_share_no_buffers(self, build_kw, attrs):
        net = variant_net(build_kw, attrs)
        x = np.random.default_rng(3).uniform(0, 1.5, (4, 6)).astype(F32)
        la, ta = net.forward_cached(x)
        lb, tb = net.forward_cached(x)
        assert la.tobytes() == lb.tobytes() and not np.shares_memory(la, lb)
        # trace.x is the caller's input by design; every state buffer is new
        arrays_a, arrays_b = list(trace_arrays(ta))[1:], list(trace_arrays(tb))[1:]
        assert len(arrays_a) == len(arrays_b) > 0
        for a, b in zip(arrays_a, arrays_b):
            assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(a, b)
        for a in arrays_a:
            assert not any(np.shares_memory(a, other) for other in arrays_a if other is not a)

    @pytest.mark.parametrize("step,n_state", [(step_lif_hard, 1), (step_lif_soft, 1),
                                              (step_adaptive, 2)])
    def test_step_out_buffers_equal_fresh_results(self, step, n_state):
        cfg = NeuronConfig(leak=0.8, threshold=0.7, adapt_decay=0.3 if n_state == 2 else None,
                           reset="soft_subtract" if step is step_lif_soft else "hard_zero")
        rng = np.random.default_rng(4)
        state = [rng.uniform(0, 1.2, 16).astype(F32) for _ in range(n_state)]
        o_prev = (rng.uniform(size=16) > 0.5).astype(F32)
        current = rng.uniform(-0.5, 1.0, 16).astype(F32)
        fresh = step(*state, o_prev, current, cfg)
        out = tuple(np.full(16, np.nan, dtype=F32) for _ in fresh)
        written = step(*state, o_prev, current, cfg, out=out)
        for f, w, o in zip(fresh, written, out):
            assert w is o and f.tobytes() == w.tobytes()

    @pytest.mark.parametrize("reset", ["hard_zero", "soft_subtract"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_attack_backward_holds_one_gradient_buffer(self, kind, reset):
        # the bench's converted-net T: the trace keeps the hidden layer's
        # potentials alone, and the backward holds one [T, n, w] gradient
        # buffer beside them, with its kernel taken one step at a time
        T, n, width = 32, 64, 128
        buffer = T * n * width * np.dtype(F32).itemsize
        net = build_snn_mlp([784, width, 10], T=T, seed=0, neuron=NeuronConfig(reset=reset),
                            surrogate=SurrogateSpec(kind=kind))
        x = np.random.default_rng(0).uniform(0, 1, (n, 784)).astype(F32)
        (logits, trace), kept = traced_kept(net.forward_cached, x)
        dlogits = np.random.default_rng(1).normal(size=logits.shape).astype(F32)
        _, peak = traced_peak(net.backward, trace, dlogits)
        assert peak <= 1.5 * buffer
        assert kept <= 1.25 * buffer
        del trace
        _, pass_peak = traced_peak(lambda: net.backward(net.forward_cached(x)[1], dlogits))
        assert pass_peak <= 2.6 * buffer


# every kernel form the backward can take, each keyed by a short name
KERNEL_SPECS = {**{kind: SurrogateSpec(kind=kind) for kind in KINDS},
                # at beta 1 the literal kernel's gradients stay inside float32
                # on these nets; at beta 2 the hard variant's overflow it
                "pwe-literal": SurrogateSpec(kind="piecewise_exp", pwe_literal=True, beta=1.0),
                "fs-conventional": SurrogateSpec(kind="fast_sigmoid", fs_conventional=True)}


def backward_digest(net, dtype):
    """sha256 of the input gradient, then of every parameter gradient in
    ``params()`` order; the attack backward (no ``grads``) must give the
    same input gradient."""
    x = np.random.default_rng(1).uniform(0, 1.5, (4, 6)).astype(dtype)
    logits, trace = net.forward_cached(x)
    dlogits = np.random.default_rng(2).normal(size=logits.shape).astype(dtype)
    grads = {}
    dinput = net.backward(trace, dlogits, grads)
    assert net.backward(trace, dlogits).tobytes() == dinput.tobytes()
    digest = hashlib.sha256(dinput.tobytes())
    for name, _ in net.params():
        digest.update(grads[name].tobytes())
    return digest.hexdigest()


class TestBackwardPins:
    """The bytes of every backward form: the net variants, every kernel form
    and both dtypes. Computed while the backward still evaluated the kernel
    on all T steps at once, into a buffer of its own."""

    PINS = {
        "hard-sigmoid-f32":
            "6c56f6bd6e31678d790cc39a3817bcbab3e98d3d61773a5d17856098c1b021a2",
        "hard-sigmoid-f64":
            "05b586382e3db6fc389ae0d895e0113eb9155cf15ca43dec2c7a1a03fe303da9",
        "hard-erfc-f32":
            "80489e0ba34121e5f963329d71e4c2fd3eac722cb56161ae7d146ce8fb3d49ba",
        "hard-erfc-f64":
            "b17ae1c322a5bfbc146a555ca0cbdd4b4a102a42032df0d00b1cf48f7c05372a",
        "hard-arctan-f32":
            "a31e6d17d8bb18b3d0dc57d06cad3009e710adbcbc003ee3f7fcc6453ec97d22",
        "hard-arctan-f64":
            "a6f4de19bc7e9e8657f717725d2d212da7089855a1cd87babafa5f8bcbd81511",
        "hard-piecewise_linear-f32":
            "1ef9e9f4fe877e45fdd271221233fca920a42847ba3bdb0699a988dd25098347",
        "hard-piecewise_linear-f64":
            "44e0ba4d12a8b07dd1d34a0bc480fffd4f4fae0a4ca5abdf3cc0e00a01c47c20",
        "hard-fast_sigmoid-f32":
            "7b6bc8a7593c3419a918f20603864dbf8b1326dfb57de8d066323c3655f78faf",
        "hard-fast_sigmoid-f64":
            "7da8d8aa57c844459fefbfc5d7a9106e27a98a3799d4dc9fad1d9d32f3ff5373",
        "hard-piecewise_exp-f32":
            "90bd849bd7d3eac79f3a6028f239e5e40e331c5c8f974b4608f14632bff313ad",
        "hard-piecewise_exp-f64":
            "c0076df4ea8407086e2a2a1938918445c099f771cd9b5e1b9129821f676bc2f3",
        "hard-rectangular-f32":
            "a53c2c55bfd05a0d3adcf43a552e13ca85af8c41770931d99ebf61fd3f96a9cd",
        "hard-rectangular-f64":
            "2f1048139e2d8bf4e68827395b5d0ff0cfaa8801d6ad6182e8e6513b0f046c83",
        "hard-pwe-literal-f32":
            "578826f66e8a8b86c963cc3b6b17ff919de0963a0b6e58f7b17145763d0112e4",
        "hard-pwe-literal-f64":
            "e586a1b225730064092f117dcba9a2e1bad6dd94c43429e6e16487b450111043",
        "hard-fs-conventional-f32":
            "2c67fe31402fb40b1f00df68edf4ee85db8e528cca8ecbe913b560e945732572",
        "hard-fs-conventional-f64":
            "4e625c837c640b6538cf99318137307ee6c0ff5f240ac9dc5924c083dfcdb79a",
        "soft-count-sigmoid-f32":
            "b9b85a2fda1bc22cc7705e5c522076d645adbe1962b124bdc29c9652b7d491e6",
        "soft-count-sigmoid-f64":
            "af13a733fa0e5cae2663f6be86281b7e577a29040d15ad0e648c34ff329f8338",
        "soft-count-erfc-f32":
            "2b7280a3bf83ed40cf67c8723143b40a1c0fe5acf55510f2452514f547c3f701",
        "soft-count-erfc-f64":
            "cb9da37707d16b40eb69fd0c74f09676df9a08f609d1216f6155ddafb3cb3de8",
        "soft-count-arctan-f32":
            "30de0c805546faeeecdb5fbb5a53058826b5a5601810e2ac42a7123c5f586992",
        "soft-count-arctan-f64":
            "8fd1a8566fb87063ed4c2e6f38a06749c9a6122d1f84d7898c925671e9e5c7b6",
        "soft-count-piecewise_linear-f32":
            "2dc3a61e64d34fbc1aff7d9e3dca9ae717ec2c533b6303f17fa7e00e4a9c3b1b",
        "soft-count-piecewise_linear-f64":
            "e29575c28a0484c089d3c3fb645a885603157f7b0336fb6442c1b8e5bab289a5",
        "soft-count-fast_sigmoid-f32":
            "d9a6bbc184c77c9e96cc6c801a2c2362ac90a86dc647b32412d2603d007d6dd5",
        "soft-count-fast_sigmoid-f64":
            "156dd5fbc00abff4021b36afe52c72bc04becdb8552d94b5c56ced1be4feafc6",
        "soft-count-piecewise_exp-f32":
            "7880bb2efa69939f70f70031c8631b577e8869afc473ad88d668a26e63b35b4c",
        "soft-count-piecewise_exp-f64":
            "c614353fd7a9ac43ada948ed6328779fcbe7463af622b89cee51ce9f2ff60cfe",
        "soft-count-rectangular-f32":
            "2572b15d7e5d9ba038e3d0175d4ac2b5b9250f877c8aea4503d807ca39b39355",
        "soft-count-rectangular-f64":
            "106aeb0ea8551a83f40a9b703e6dfb027bf878dd80416ed8c885442460934faf",
        "soft-count-pwe-literal-f32":
            "7ffdc265ad8ffcfaff2722b9812786ea5fe5559fd556510e609d49f5eb6e038c",
        "soft-count-pwe-literal-f64":
            "816f3a2f688aa2d76a371f703d76cbfe70e9924ca040c5d0efc491d3e6578d89",
        "soft-count-fs-conventional-f32":
            "1dd50a14976cda10f04a32055ea62c6e719763cabd4bd178aaea570464969a1f",
        "soft-count-fs-conventional-f64":
            "dd785292b11c74bcc8301cfd364f084bd44f496ef3bb6dfc5d981ab68375ea48",
        "adaptive-iir-sigmoid-f32":
            "ee5828eee32cbb25dd558993c2debf01ac92ea4f396ceda86993b91693b83c60",
        "adaptive-iir-sigmoid-f64":
            "d3c738eef7c58899a92fee73975a7f72cbd1774d025487fcd1f8fcde7fad8ffa",
        "adaptive-iir-erfc-f32":
            "06f61a355987473a7730cf611dccda7205de69456359f13bca91f0bd332b384a",
        "adaptive-iir-erfc-f64":
            "5f7285aa6655c5b5d339da9dd6388e5db0a596cdca9af982b341ecf4c62f3c40",
        "adaptive-iir-arctan-f32":
            "b304f4ed890734a225eecde23bfbd99e118088b011f9c4c69902f5fc1b733324",
        "adaptive-iir-arctan-f64":
            "e0e23060eea8212d9e9039b3cb093fa845997633cbe4666f1f517235abdb41a6",
        "adaptive-iir-piecewise_linear-f32":
            "fd24b0e350c3fc2678f82ea729543e5d284e862850c2803063cf66c0ddc89dbd",
        "adaptive-iir-piecewise_linear-f64":
            "63b3299148bdfa32da1b61b8cbafe2d76954175e46cd7239019490d8b3afb76e",
        "adaptive-iir-fast_sigmoid-f32":
            "7bed1a9bdcd16dcaf6a38d0e95e81fe3f26aa1d10205776ff0417f742ac90d65",
        "adaptive-iir-fast_sigmoid-f64":
            "501dd70c34faec9714ca1e3abf6feb39528078c501b0d043d8c2a12e14ac1551",
        "adaptive-iir-piecewise_exp-f32":
            "f4f23b86b01b33c3dba250330e26155aa98dfe0da57ddb57fdca57dbe64aaaf5",
        "adaptive-iir-piecewise_exp-f64":
            "b4c37bb756afebbfb8157a97c80c678af99bdc4a7a35778d47abd1d6e8a27653",
        "adaptive-iir-rectangular-f32":
            "c4d33c6a55397791fcedbf51ba2db190f119d265a52471ce263df1b6763392bb",
        "adaptive-iir-rectangular-f64":
            "9b7ca246e675eaa976de60eb6f919d41beb15e1d3634fe00e762db7631d483ab",
        "adaptive-iir-pwe-literal-f32":
            "c74e59e4527c8998cc811c931f54fc1e8337f6148f91b9e16107a8c63cb7861f",
        "adaptive-iir-pwe-literal-f64":
            "3e8e78e76b8120dadb0d35f00ce334f198471c8f1c491f64f5a5133a1c8854fd",
        "adaptive-iir-fs-conventional-f32":
            "f0d7ce57b0edb8a9077abe465d1d441454e1f69fb0371eaf87eb8336f3c75e6f",
        "adaptive-iir-fs-conventional-f64":
            "666fb1201342445c549fe44fff2f8d3e0da1bf79dbcf165d4184a22a0ba8f54c",
        "hard-detached-sigmoid-f32":
            "e22e11a5025ca69206a822439db8e73359b76f54ee02dffcef38637571998b6b",
        "hard-detached-sigmoid-f64":
            "0502034e691f57602298ce25ffae76863b386ff0c797a761a93e431376452e41",
        "hard-detached-erfc-f32":
            "af08d8643580efc168e778bb2209e3d0354baec2df46770cdf96e005539ca05e",
        "hard-detached-erfc-f64":
            "37c04f5f0c2387e42b64763b1922db829714ec14df3ae0df470ec235340041ec",
        "hard-detached-arctan-f32":
            "6c8917c02111bbad5b0e5209eb2d388e5393d83e038d46fd57713b3fa56e9216",
        "hard-detached-arctan-f64":
            "c0b92b207e70d3e29bf431f3a5eccafb007af9047bc6ab8575ca14701d53a541",
        "hard-detached-piecewise_linear-f32":
            "bbd1fdf6efbab83bc9cd58e733ee2eaa09d840bcd8d9261681517fa27e36b1f6",
        "hard-detached-piecewise_linear-f64":
            "d1a7fc0452d526ca68f574eb3453f87b644325e1737b2c95a45e1f635d2b87e1",
        "hard-detached-fast_sigmoid-f32":
            "a1f3910a80c21a31b2893ede9b7d3b4102867cc05ea5dbd3b6022860cda0cad8",
        "hard-detached-fast_sigmoid-f64":
            "1398a01b3b74eed107c71ace1b67a31dc15face29e3f0b3ace75492730264bee",
        "hard-detached-piecewise_exp-f32":
            "00eaf6cbf9f8720c19b48f0c0501c98e465923baff307b69287e8249514b1464",
        "hard-detached-piecewise_exp-f64":
            "264f11cc8f49a9a59ec5c8d57126a4d1dc6bc0088317069aeb23a4dbaa452b8d",
        "hard-detached-rectangular-f32":
            "35b64bcbb949f9ca868143f6694d76f67c79623eafc7dd8f03a9e8710d904040",
        "hard-detached-rectangular-f64":
            "a5a83c5ea3d0966ff90a29e57965e220421e6d2c2286843778e090823da54f7f",
        "hard-detached-pwe-literal-f32":
            "a89bb33cbdf07dc15b48028c01c99cfb1adb2b359dbe8e36da581552b79d51d1",
        "hard-detached-pwe-literal-f64":
            "b36c676d93d199a3a7687631bb91adb579ad72988310921806a934e1cef5935b",
        "hard-detached-fs-conventional-f32":
            "14990313f335487e6b028c006b6aedbc779a699f761079b65a88a972eb1a8838",
        "hard-detached-fs-conventional-f64":
            "7147534ce585fbd31e663ec1c8f0abbc9efec7667941fddf6bee7a39a2d007e2",
        "hard-relaxed-sigmoid-f32":
            "b14b2aca2aeef9820c8d3c805ff0d7d7189e679eeb54ba9459e667665defe619",
        "hard-relaxed-sigmoid-f64":
            "ac1799cbd6c888cc1dd9a34e8bce91f6a094525e32b44eb52a942e50ea06b5fc",
        "hard-relaxed-erfc-f32":
            "98e902cf5d24fdd391573583139e43350617647bcd69d51d9e96284341b9ea07",
        "hard-relaxed-erfc-f64":
            "d8aced5628ddd988b50412e5de2ce45c8d701ed9550ca7aee0a2d159a19537a5",
        "hard-relaxed-arctan-f32":
            "c5a791f3cbc9aed86f4a9883d73067819286c3d6c45c4cd4e3e6962683d20b53",
        "hard-relaxed-arctan-f64":
            "0d1308506181211f009fd48b75deb9e66c9141130e4850274cc35d17f8184ef9",
        "hard-relaxed-piecewise_linear-f32":
            "0eceba963f1c9f25f89b3b92a68d6deb5be86c0af6391362ca25ce23f374c6a8",
        "hard-relaxed-piecewise_linear-f64":
            "36e31eb4a090f11750078a4e7e513f4f738ded9467cf3c8dee1e5281339bb054",
        "hard-relaxed-fast_sigmoid-f32":
            "2dac58ab196f93c6345a67a2bdec5375b9af1f96e213aa55ce63d0234505df18",
        "hard-relaxed-fast_sigmoid-f64":
            "6eee48163b5f2bd760d5cd61ee9ac7f311dbe115597c25a0eae46d106828da64",
        "hard-relaxed-piecewise_exp-f32":
            "9ab19beaad3b008a3d4430561d0ef2a279a7697efa0cde41e92b97710362eb25",
        "hard-relaxed-piecewise_exp-f64":
            "920a19d1bd6753f1b5f1535050fffc2fe553b79b906b2420a2635c461e8170d3",
        "hard-relaxed-rectangular-f32":
            "090365e6363d5d3078bc918dd68d0abd181e711fbef9e030eb34d41c71227430",
        "hard-relaxed-rectangular-f64":
            "18590ca5b5a647b9b286ac16c3fc67ce41566a8668aa496d1ea8f59f46289dbe",
        "hard-relaxed-fs-conventional-f32":
            "6edde1de678a23c61e6511c31850b498b4c9c910426bdaf39cede29cd524589f",
        "hard-relaxed-fs-conventional-f64":
            "345c4dc061d47c7ac75208d848f955dbfb6cb923af13a0a405261241d91f16f4",
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("spec_name", list(KERNEL_SPECS))
    @pytest.mark.parametrize("build_kw,attrs", NET_VARIANTS)
    def test_gradient_bytes(self, request, build_kw, attrs, spec_name, dtype):
        net = variant_net(build_kw, attrs, dtype).with_surrogate(KERNEL_SPECS[spec_name])
        key = request.node.callspec.id
        if isinstance(net, RelaxedNet) and net.surrogate.pwe_literal:
            with pytest.raises(ConfigError, match="no bounded antiderivative"):
                net.forward(np.ones((1, 6), dtype=dtype))
            return
        assert backward_digest(net, dtype) == self.PINS[key]

    def test_literal_pwe_overflow_in_a_float32_net_is_the_kernels_refusal(self):
        # at beta 2 the 64-bit gradient of the hard variant leaves float32's
        # range; its cast into the net's dtype is refused as the kernel
        # refuses its own overflow, not turned into inf
        net = variant_net(*NET_VARIANTS[0].values).with_surrogate(
            SurrogateSpec(kind="piecewise_exp", pwe_literal=True, beta=2.0))
        x = np.random.default_rng(1).uniform(0, 1.5, (4, 6)).astype(F32)
        logits, trace = net.forward_cached(x)
        with pytest.raises(EvaluationError,
                           match="^literal piecewise-exp overflowed; use the default form$"):
            net.backward(trace, np.ones_like(logits))

    @pytest.mark.parametrize("build_kw,attrs", NET_VARIANTS[:3])
    def test_a_trace_carries_its_firing_rule(self, build_kw, attrs):
        # the backward rebuilds the spikes it reads with the rule in the
        # trace, so the plain net replays a relaxed trace to the relaxed bytes
        net = variant_net(build_kw, attrs)
        soft = relaxed(net)
        x = np.random.default_rng(1).uniform(0, 1.5, (4, 6)).astype(F32)
        logits, trace = soft.forward_cached(x)
        dlogits = np.random.default_rng(2).normal(size=logits.shape).astype(F32)
        want, got = {}, {}
        assert (net.backward(trace, dlogits, got).tobytes()
                == soft.backward(trace, dlogits, want).tobytes())
        assert ({k: g.tobytes() for k, g in got.items()}
                == {k: g.tobytes() for k, g in want.items()})


class TestWithSurrogate:
    def test_view_shares_the_weights_and_keeps_the_original_kernel(self):
        carried, other = SurrogateSpec(kind="sigmoid"), SurrogateSpec(kind="rectangular")
        net = build_snn_mlp([4, 6, 3], T=5, seed=6, surrogate=carried)
        view = net.with_surrogate(other)
        assert net.surrogate == carried and view.surrogate == other
        assert all(p is q for (_, p), (_, q) in zip(view.params(), net.params()))
        x = np.random.default_rng(7).uniform(0, 1.2, (4, 4)).astype(F32)
        assert np.array_equal(view.forward(x), net.forward(x))
        # the view's backward is the one a net built with ``other`` takes
        built = SpikingNet(net.layers, T=5, surrogate=other)
        seed = np.ones((4, 3), dtype=F32)
        assert np.array_equal(view.backward(view.forward_cached(x)[1], seed),
                              built.backward(built.forward_cached(x)[1], seed))

    def test_view_keeps_every_other_setting(self):
        net = relaxed(SpikingNet(build_snn_mlp([4, 6, 3], seed=6).layers, T=3,
                                 readout="spike_count", detach_reset=True))
        view = net.with_surrogate(SurrogateSpec(kind="erfc"))
        assert ((view.T, view.readout, view.detach_reset, type(view))
                == (3, "spike_count", True, RelaxedNet))

    def test_only_dynamics_assigns_a_surrogate(self):
        # a kernel reaches a net one way: the view SpikingNet.with_surrogate builds
        src = Path(__file__).resolve().parents[1] / "src" / "snnadv"
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                stored = (isinstance(node, ast.Attribute) and node.attr == "surrogate"
                          and isinstance(node.ctx, (ast.Store, ast.Del)))
                set_by_name = (isinstance(node, ast.Call)
                               and getattr(node.func, "id", None) == "setattr"
                               and len(node.args) > 1
                               and getattr(node.args[1], "value", None) == "surrogate")
                if stored or set_by_name:
                    found.append(f"{path.name}:{node.lineno}")
        assert [f for f in found if not f.startswith("dynamics.py:")] == []
        assert found, "the scan found no assignment at all"
