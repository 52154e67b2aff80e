import ast
from pathlib import Path

import numpy as np
import pytest

from snnadv.dynamics import (NeuronConfig, SpikingLayer, SpikingNet, SynapseConfig,
                             build_snn_mlp, step_adaptive, step_lif_hard, step_lif_soft,
                             synapse_filter)
from snnadv.errors import ConfigError, DimensionError, StateError
from snnadv.surrogate import SurrogateSpec

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


def variant_net(build_kw, attrs):
    net = build_snn_mlp([6, 9, 7, 3], T=5, seed=21, **build_kw)
    for name, value in attrs.items():
        setattr(net, name, value)
    return net


def trace_arrays(trace):
    yield trace.x
    for lt in trace.layers:
        yield from (a for a in (lt.v, lt.o, lt.k) if a is not None)


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
        net = SpikingNet(build_snn_mlp([4, 6, 3], seed=6).layers, T=3,
                         readout="spike_count", detach_reset=True, relaxed=True)
        view = net.with_surrogate(SurrogateSpec(kind="erfc"))
        assert ((view.T, view.readout, view.detach_reset, view.relaxed)
                == (3, "spike_count", True, True))

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
