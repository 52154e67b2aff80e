"""Leaky integrate-and-fire layers simulated over discrete time, with a
hand-written reverse-time (BPTT) gradient.

Neuron variants: hard reset (potential zeroed after a spike), soft reset
(threshold subtracted), and an adaptation variable that self-inhibits after
firing. Synapses are either stateless (identity) or IIR filters over the
spike stream. Every layer reads an input stream [T_in, n, in]: the spikes
of the layer below, or for direct coding the raw input as one time slice,
presented at every step. The filter is linear and acts on time alone, so
it runs after the weights: a layer's current is filter(stream @ W) + b.
With the identity synapse it stays the one [T_in, n, w] slice stream @ W + b,
read through a broadcast over the T steps; only an IIR synapse materialises
[T, n, w]. The readout layer is a non-spiking leaky integrator read at the
final step (spike-count readout selectable).

Each step rule writes through ``out=`` straight into the trace's [T, n, w]
buffers, which start empty because every slot is written. The backward
writes dv[t] over the kernel value in its own di[t], with [n, w] scratch,
and never writes into a trace, so one trace serves several backwards.

The backward pass substitutes a surrogate kernel for the Heaviside
derivative and, unless ``detach_reset`` is set, differentiates the
reset/inhibition terms through both the potential and the spike paths.
The filter's gradient is the same filter run backwards in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numerics
from .ann import Classifier, Dense, build_mlp
from .errors import ConfigError, DimensionError, StateError
from .surrogate import SurrogateSpec, antiderivative, heaviside, surrogate_grad

HARD_ZERO = "hard_zero"
SOFT_SUBTRACT = "soft_subtract"

READOUT_MEMBRANE = "membrane"
READOUT_SPIKE_COUNT = "spike_count"


@dataclass(frozen=True)
class NeuronConfig:
    """Leak, firing threshold, reset rule, and optional adaptation decay.

    ``adapt_decay`` (phi) switches the neuron to the self-inhibition dynamic,
    which supersedes the reset rule.
    """

    leak: float = 1.0
    threshold: float = 1.0
    reset: str = HARD_ZERO
    adapt_decay: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.leak <= 1.0:
            raise ConfigError(f"leak must be in (0, 1], got {self.leak}")
        if not 0.0 < self.threshold < np.inf:
            raise ConfigError(f"threshold must be finite and > 0, got {self.threshold}")
        if self.reset not in (HARD_ZERO, SOFT_SUBTRACT):
            raise ConfigError(f"reset must be {HARD_ZERO!r} or {SOFT_SUBTRACT!r}")
        if self.adapt_decay is not None and not 0.0 <= self.adapt_decay < 1.0:
            raise ConfigError(f"adapt_decay must be in [0, 1), got {self.adapt_decay}")

    @property
    def adaptive(self) -> bool:
        return self.adapt_decay is not None


@dataclass(frozen=True)
class SynapseConfig:
    """IIR synapse coefficients: feedback alphas (order P), feedforward betas
    (order Q, beta_0 first). The default encodes the stateless identity
    synapse. Unstable feedback sets are rejected at construction."""

    alphas: tuple = ()
    betas: tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if not self.betas:
            raise ConfigError("synapse needs at least beta_0")
        if not np.all(np.isfinite(self.alphas + self.betas)):
            raise ConfigError(f"synapse coefficients must be finite, got alphas "
                              f"{self.alphas} and betas {self.betas}")
        if self.alphas:
            # roots of 1 - sum(alpha_p z^-p) must lie strictly inside the unit circle
            poly = np.array([1.0] + [-a for a in self.alphas])
            roots = np.roots(poly)
            if roots.size and np.max(np.abs(roots)) >= 1.0:
                raise ConfigError(f"unstable IIR feedback coefficients {self.alphas}")

    @property
    def is_identity(self) -> bool:
        return not self.alphas and self.betas == (1.0,)


def step_lif_hard(v_prev: np.ndarray, o_prev: np.ndarray, input_current: np.ndarray,
                  cfg: NeuronConfig, spike=heaviside, out=(None, None)) -> tuple:
    """One hard-reset step: the (1 - o_prev) gate zeroes the potential of
    neurons that fired. ``spike(v, threshold, out)`` is the firing rule. Every
    step writes into ``out``, arrays apart from its inputs, or into new ones."""
    v, o = out
    v = np.subtract(1.0, o_prev, out=v)
    v *= cfg.leak
    v *= v_prev
    v += input_current
    return v, spike(v, cfg.threshold, out=o)


def step_lif_soft(v_prev: np.ndarray, o_prev: np.ndarray, input_current: np.ndarray,
                  cfg: NeuronConfig, spike=heaviside, out=(None, None)) -> tuple:
    """One soft-reset step: the threshold is subtracted after a spike."""
    v, o = out
    v = np.multiply(v_prev, cfg.leak, out=v)
    v += input_current
    v -= np.multiply(o_prev, cfg.threshold, out=o)  # o is scratch until the spike
    return v, spike(v, cfg.threshold, out=o)


def step_adaptive(v_prev: np.ndarray, k_prev: np.ndarray, o_prev: np.ndarray,
                  input_current: np.ndarray, cfg: NeuronConfig, spike=heaviside,
                  out=(None, None, None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One adaptive step: inhibition k decays by phi and is recharged by the
    previous spike; the potential is inhibited by theta * k_prev."""
    phi = cfg.adapt_decay if cfg.adapt_decay is not None else 0.0
    v, k, o = out
    v = np.multiply(v_prev, cfg.leak, out=v)
    v += input_current
    v -= np.multiply(k_prev, cfg.threshold, out=k)  # k is scratch until its update
    k = np.multiply(k_prev, phi, out=k)
    k += o_prev
    return v, k, spike(v, cfg.threshold, out=o)


def synapse_filter(cfg: SynapseConfig, s: np.ndarray) -> np.ndarray:
    """Apply the IIR filter along the leading (time) axis; values before the
    first step are zero. Its adjoint is the same filter run on the
    time-reversed input, reversed back."""
    s = np.asarray(s)
    if cfg.is_identity:
        return s
    out = np.zeros_like(s)
    for t in range(s.shape[0]):
        acc = cfg.betas[0] * s[t]
        for q, beta in enumerate(cfg.betas[1:t + 1], start=1):
            acc = acc + beta * s[t - q]
        for p, alpha in enumerate(cfg.alphas[:t], start=1):
            acc = acc + alpha * out[t - p]
        out[t] = acc
    return out


class SpikingLayer(Dense):
    """Fully connected synapse weights, a ``Dense``, plus one neuron population."""

    def __init__(self, w: np.ndarray, b: Optional[np.ndarray] = None,
                 neuron: NeuronConfig = NeuronConfig(),
                 synapse: SynapseConfig = SynapseConfig()):
        super().__init__(w, b)
        self.neuron = neuron
        self.synapse = synapse


@dataclass
class LayerTrace:
    """Per-timestep state buffers for one layer, time-major [T, n, width]."""

    v: np.ndarray
    o: np.ndarray
    k: Optional[np.ndarray] = None


@dataclass
class ForwardTrace:
    x: np.ndarray          # the input stream: one time slice [1, n, in]
    layers: list = field(default_factory=list)
    fingerprint: tuple = ()


class SpikingNet(Classifier):
    """Feed-forward stack of spiking layers simulated for T timesteps.

    ``relaxed`` replaces the hard threshold with the surrogate kernel's exact
    antiderivative in the forward pass (gradient-oracle mode only; normal
    forward output never depends on the surrogate choice).
    """

    kind = "snn"

    def __init__(self, layers: list, T: int = 8,
                 surrogate: SurrogateSpec = SurrogateSpec(),
                 readout: str = READOUT_MEMBRANE,
                 detach_reset: bool = False,
                 relaxed: bool = False):
        if T < 1:
            raise ConfigError(f"timestep count T must be >= 1, got {T}")
        if readout not in (READOUT_MEMBRANE, READOUT_SPIKE_COUNT):
            raise ConfigError(f"unknown readout {readout!r}")
        if not layers:
            raise ConfigError("network needs at least one layer")
        for lo, hi in zip(layers, layers[1:]):
            if lo.out_width != hi.in_width:
                raise DimensionError(f"layer widths mismatch: {lo.out_width} -> {hi.in_width}")
        self.layers = layers
        self.T = T
        self.surrogate = surrogate
        self.readout = readout
        self.detach_reset = detach_reset
        self.relaxed = relaxed

    @property
    def n_classes(self) -> int:
        return self.layers[-1].out_width

    def _fingerprint(self) -> tuple:
        return (self.T, len(self.layers), self.readout, self.relaxed,
                tuple((l.in_width, l.out_width) for l in self.layers))

    def _spike(self, v: np.ndarray, threshold: float, out: np.ndarray) -> np.ndarray:
        if self.relaxed:
            out[...] = antiderivative(self.surrogate, v, threshold=threshold)
            return out
        return heaviside(v, threshold, out=out)

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
        x = numerics.as_batch(x, (self.layers[0].in_width,), self.layers[0].w.dtype)
        n = x.shape[0]
        T = self.T
        # direct coding: the input is one time slice, presented at every step
        trace = ForwardTrace(x=x[None], fingerprint=self._fingerprint())
        stream = trace.x
        for li, layer in enumerate(self.layers):
            is_readout = li == len(self.layers) - 1 and self.readout == READOUT_MEMBRANE
            cfg = layer.neuron
            shape = (T, n, layer.out_width)
            # the filter acts on time alone, so it commutes with the weights
            current = stream @ layer.w
            if not layer.synapse.is_identity:
                current = synapse_filter(layer.synapse, np.broadcast_to(current, shape))
            current += layer.b
            numerics.require_finite(current, "input current")
            v_buf = np.empty(shape, dtype=layer.w.dtype)
            fresh = np.zeros_like if is_readout else np.empty_like  # the readout writes v only
            o_buf = fresh(v_buf)
            k_buf = fresh(v_buf) if cfg.adaptive else None
            v = o = k = np.zeros(shape[1:], dtype=layer.w.dtype)
            lif = step_lif_hard if cfg.reset == HARD_ZERO else step_lif_soft
            for t, i_t in enumerate(np.broadcast_to(current, shape)):
                if is_readout:
                    v = np.add(np.multiply(v, cfg.leak, out=v_buf[t]), i_t, out=v_buf[t])
                elif cfg.adaptive:
                    v, k, o = step_adaptive(v, k, o, i_t, cfg, self._spike,
                                            out=(v_buf[t], k_buf[t], o_buf[t]))
                else:
                    v, o = lif(v, o, i_t, cfg, self._spike, out=(v_buf[t], o_buf[t]))
            trace.layers.append(LayerTrace(v=v_buf, o=o_buf, k=k_buf))
            stream = o_buf
        last = trace.layers[-1]
        if self.readout == READOUT_MEMBRANE:
            logits = last.v[-1] / T
        else:
            logits = last.o.sum(axis=0) / T
        numerics.require_finite(logits, "network logits")
        return logits, trace

    def backward(self, trace: ForwardTrace, dlogits: np.ndarray,
                 grads: Optional[dict] = None) -> np.ndarray:
        """Reverse-time accumulation through the unrolled recurrence.

        Returns the gradient with respect to the flattened input. Given a
        ``grads`` dict (training), it also writes every weight and bias
        gradient into it under the names ``params`` gives; without one
        (attacks) none are computed.
        Each layer's current gradient goes back through the synapse filter's
        adjoint (the same filter run backwards in time), is summed over time
        where the layer's input stream has one slice (the network input),
        and then meets one weight-gradient and one input-gradient matmul.
        """
        if trace.fingerprint != self._fingerprint():
            raise StateError("trace does not match this network configuration")
        dlogits = np.asarray(dlogits, dtype=self.layers[0].w.dtype)
        T = self.T
        n = dlogits.shape[0]
        streams = [trace.x] + [lt.o for lt in trace.layers[:-1]]
        d_stream = None  # gradient w.r.t. the layer output stream [T, n, width]
        for li in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[li]
            lt = trace.layers[li]
            cfg = layer.neuron
            is_readout = li == len(self.layers) - 1 and self.readout == READOUT_MEMBRANE
            if is_readout:
                # v[t] = leak * v[t-1] + i[t]; logits = v[T] / T
                di = np.empty((T, n, layer.out_width), dtype=layer.w.dtype)
                np.divide(dlogits, T, out=di[-1])
                for t in range(T - 2, -1, -1):
                    np.multiply(di[t + 1], cfg.leak, out=di[t])
            else:
                do_ext = (np.broadcast_to(dlogits / T, (T, n, layer.out_width))
                          if d_stream is None else d_stream)
                # dv[t] overwrites its kernel value in di[t]; a and dk are scratch
                di = surrogate_grad(self.surrogate, lt.v, threshold=cfg.threshold)
                dv_next, dk, a = np.zeros((3, n, layer.out_width), dtype=di.dtype)
                for t in range(T - 1, -1, -1):
                    do_tot = do_ext[t]
                    if not self.detach_reset:
                        if cfg.adaptive:
                            reset = dk                  # o[t] recharges k[t+1]
                        elif cfg.reset == HARD_ZERO:
                            reset = np.multiply(lt.v[t], -cfg.leak, out=a)
                            reset *= dv_next
                        else:
                            reset = np.multiply(dv_next, -cfg.threshold, out=a)
                        do_tot = np.add(do_tot, reset, out=a)
                    dv = np.multiply(di[t], do_tot, out=di[t])
                    if cfg.reset == HARD_ZERO and not cfg.adaptive:
                        np.multiply(np.subtract(1.0, lt.o[t], out=a), cfg.leak, out=a)
                        a *= dv_next
                    else:
                        np.multiply(dv_next, cfg.leak, out=a)
                    dv += a
                    if cfg.adaptive and not self.detach_reset:
                        dk *= cfg.adapt_decay
                        dk += np.multiply(dv_next, -cfg.threshold, out=a)
                    dv_next = dv
            di = di.astype(layer.w.dtype, copy=False)  # the literal pwe kernel is 64-bit
            if grads is not None:
                grads[f"layer{li}.b"] = di.sum(axis=(0, 1))
            # through the synapse filter, the broadcast over time and the weights
            dxw = synapse_filter(layer.synapse, di[::-1])[::-1]
            stream = streams[li]
            if stream.shape[0] == 1:
                # the adjoint of the broadcast over time is a sum over time
                ones = np.ones(T, dtype=layer.w.dtype)
                dxw = (ones @ dxw.reshape(T, -1)).reshape(1, n, layer.out_width)
            if grads is not None:
                grads[f"layer{li}.w"] = (stream.reshape(-1, layer.in_width).T
                                         @ dxw.reshape(-1, layer.out_width))
            d_stream = dxw @ layer.w.T
        dinput = d_stream[0]
        numerics.require_finite(dinput, "input gradient")
        return dinput


def build_snn_mlp(dims: list, T: int = 8, seed: int = 0,
                  neuron: NeuronConfig = NeuronConfig(),
                  synapse: SynapseConfig = SynapseConfig(),
                  surrogate: SurrogateSpec = SurrogateSpec(),
                  readout: str = READOUT_MEMBRANE,
                  dtype=numerics.DEFAULT_DTYPE) -> SpikingNet:
    """Seeded fully connected spiking net with the weights of
    ``build_mlp(dims, seed, dtype)``: Kaiming-uniform fan-in init."""
    layers = [SpikingLayer(d.w, neuron=neuron, synapse=synapse)
              for d in build_mlp(dims, seed, dtype).layers if isinstance(d, Dense)]
    return SpikingNet(layers, T=T, surrogate=surrogate, readout=readout)
