"""Conventional differentiable classifiers: dense / conv / ReLU stacks with
hand-written backward passes, checked against the finite-difference oracle.

A layer is ``forward(x)``, which returns ``(out, cache)``; ``backward(dout,
cache, grads=None, prefix="")``, which returns the input gradient and, given
a ``grads`` dict, writes its parameter gradients there under ``prefix`` plus
their ``params`` names; and ``params()``, its (name, array) pairs. Models
get ``forward``, ``predict`` (EVAL_BATCH rows per forward) and ``astype``
from ``Classifier``; ``checkpoint`` owns each layer type's format.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from . import numerics
from .errors import ConfigError, DimensionError


# rows per forward in Classifier.predict and per row block of an attention
# input gradient, which bounds their buffers
EVAL_BATCH = 128


class Classifier:
    """``forward`` and ``predict`` over each model's own ``forward_cached``,
    ``params`` over a ``layers`` stack, and ``astype`` over ``params``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The argmax of one forward on all of ``x`` (every row is computed on
        its own), taken EVAL_BATCH rows per forward, so no forward holds the
        buffers of more than EVAL_BATCH rows; no rows give an empty array."""
        return np.concatenate([np.argmax(self.forward(x[start:start + EVAL_BATCH]), axis=1)
                               for start in range(0, len(x), EVAL_BATCH)]
                              or [np.zeros(0, dtype=np.intp)])

    def params(self):
        return [(f"layer{i}.{name}", p) for i, layer in enumerate(self.layers)
                for name, p in layer.params()]

    def astype(self, dtype):
        """A deep copy whose ``params()`` arrays are cast to ``dtype``."""
        return copy.deepcopy(self, {id(p): p.astype(dtype) for _, p in self.params()})


def kaiming_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, dtype) -> np.ndarray:
    """Kaiming-uniform fan-in init: +-sqrt(6 / fan_in), drawn in float64, cast to ``dtype``."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Dense:
    def __init__(self, w: np.ndarray, b: Optional[np.ndarray] = None):
        self.w = np.asarray(w)
        if self.w.ndim != 2:
            raise DimensionError(f"dense weights must be 2-d, got {self.w.shape}")
        self.b = np.zeros(self.w.shape[1], dtype=self.w.dtype) if b is None else np.asarray(b)
        if self.b.shape != (self.out_width,):
            raise DimensionError(f"bias shape {self.b.shape} does not match width {self.out_width}")

    @property
    def in_width(self) -> int:
        return self.w.shape[0]

    @property
    def out_width(self) -> int:
        return self.w.shape[1]

    def forward(self, x):
        if x.shape[1] != self.w.shape[0]:
            raise DimensionError(f"dense input width {x.shape[1]} != {self.w.shape[0]}")
        return x @ self.w + self.b, x

    def backward(self, dout, cache, grads=None, prefix=""):
        if grads is not None:
            x = cache
            grads[prefix + "w"] = x.T @ dout
            grads[prefix + "b"] = dout.sum(axis=0)
        return dout @ self.w.T

    def params(self):
        return [("w", self.w), ("b", self.b)]


class _ParamFree:
    """Layer without parameters: nothing to train."""

    def params(self):
        return []


class ReLU(_ParamFree):
    def forward(self, x):
        return np.maximum(x, 0.0), x > 0

    def backward(self, dout, cache, grads=None, prefix=""):
        return dout * cache


class Conv2d:
    """2-d convolution, stride 1, via im2col. Inputs are [n, c, h, w]."""

    def __init__(self, w: np.ndarray, b: Optional[np.ndarray] = None, pad: int = 1):
        self.w = np.asarray(w)  # [out_c, in_c, kh, kw]
        if self.w.ndim != 4:
            raise DimensionError(f"conv weights must be 4-d, got {self.w.shape}")
        self.b = np.zeros(self.w.shape[0], dtype=self.w.dtype) if b is None else np.asarray(b)
        self.pad = pad

    def _cols(self, x):
        """im2col: [n, oh, ow, ic*kh*kw], columns in (ci, i, j) order."""
        if x.ndim != 4:
            raise DimensionError(f"conv input must be [n, c, h, w], got {x.shape}")
        n, c, h, w = x.shape
        oc, ic, kh, kw = self.w.shape
        if c != ic:
            raise DimensionError(f"conv input channels {c} != {ic}")
        p = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        oh, ow = h + 2 * p - kh + 1, w + 2 * p - kw + 1
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh, ow, ic * kh * kw)
        return cols, (n, c, h, w, oh, ow)

    def forward(self, x):
        cols, geom = self._cols(x)
        n, c, h, w, oh, ow = geom
        wf = self.w.reshape(self.w.shape[0], -1).T  # [ic*kh*kw, oc]
        out = cols.reshape(-1, wf.shape[0]) @ wf + self.b
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2), (cols, geom)

    def backward(self, dout, cache, grads=None, prefix=""):
        cols, geom = cache
        n, c, h, w, oh, ow = geom
        oc, ic, kh, kw = self.w.shape
        dflat = dout.transpose(0, 2, 3, 1).reshape(-1, oc)
        if grads is not None:
            cflat = cols.reshape(-1, ic * kh * kw)
            grads[prefix + "w"] = (cflat.T @ dflat).T.reshape(self.w.shape)
            grads[prefix + "b"] = dflat.sum(axis=0)
        # col2im over (i, j), all channels at once: each pixel sums in column order
        dcols = (dflat @ self.w.reshape(oc, -1)).reshape(n, oh, ow, ic, kh, kw) \
            .transpose(4, 5, 0, 3, 1, 2)
        p = self.pad
        dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=dout.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + oh, j:j + ow] += dcols[i, j]
        return dxp[:, :, p:p + h, p:p + w] if p else dxp

    def params(self):
        return [("w", self.w), ("b", self.b)]


class AvgPool2d(_ParamFree):
    """2x2 average pooling, stride 2; spatial extents must be even."""

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise DimensionError(f"avgpool needs even extents, got {h}x{w}")
        return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5)), None

    def backward(self, dout, cache, grads=None, prefix=""):
        return np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) / 4.0


class Flatten(_ParamFree):
    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dout, cache, grads=None, prefix=""):
        return dout.reshape(cache)


class AnnNet(Classifier):
    """Ordered layer stack ending in class logits. Its input is a batch of ``input_shape``,
    or else of the first weight layer's width (a conv net needs ``input_shape``)."""

    kind = "ann"

    def __init__(self, layers: list, input_shape: Optional[tuple] = None):
        if not any(layer.params() for layer in layers):
            raise ConfigError("network needs at least one layer with weights")
        self.layers = layers
        self.input_shape = tuple(input_shape) if input_shape else None

    @property
    def n_classes(self) -> int:
        for layer in reversed(self.layers):
            if isinstance(layer, Dense):
                return layer.w.shape[1]
        raise ConfigError("no dense layer to read the class count from")

    def _first_weights(self) -> np.ndarray:
        return next(layer.w for layer in self.layers if layer.params())

    def forward_cached(self, x):
        w = self._first_weights()
        x = numerics.as_batch(x, self.input_shape or w.shape[:1], w.dtype)
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        numerics.require_finite(x, "network logits")
        return x, caches

    def backward(self, caches, dlogits, grads=None):
        """Gradient of the input, flattened to [n, features]. Given a
        ``grads`` dict (training), every Dense and Conv2d layer also writes
        its parameter gradients into it under the names ``params`` gives;
        without one (attacks) none are computed."""
        d = np.asarray(dlogits, dtype=self._first_weights().dtype)
        for i in reversed(range(len(self.layers))):
            d = self.layers[i].backward(d, caches[i], grads, f"layer{i}.")
        numerics.require_finite(d, "input gradient")
        return d.reshape(d.shape[0], -1)


def build_mlp(dims: list, seed: int = 0, dtype=numerics.DEFAULT_DTYPE) -> AnnNet:
    """Dense/ReLU stack: ReLU between layers, raw logits at the end."""
    if len(dims) < 2:
        raise ConfigError("need at least input and output widths")
    if min(dims) < 1:
        raise ConfigError(f"layer widths must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        layers.append(Dense(kaiming_uniform(rng, (d_in, d_out), d_in, dtype)))
        if i < len(dims) - 2:
            layers.append(ReLU())
    return AnnNet(layers)


def build_cnn(image_shape: tuple, channels: list, hidden: int, n_classes: int,
              seed: int = 0, dtype=numerics.DEFAULT_DTYPE) -> AnnNet:
    """Small conv net: [conv3x3 + relu + pool] blocks, then dense head."""
    rng = np.random.default_rng(seed)
    c, h, w = image_shape
    layers = []
    in_c = c
    for out_c in channels:
        layers.append(Conv2d(kaiming_uniform(rng, (out_c, in_c, 3, 3), in_c * 9, dtype)))
        layers.append(ReLU())
        layers.append(AvgPool2d())
        in_c = out_c
        h, w = h // 2, w // 2
    layers.append(Flatten())
    flat = in_c * h * w
    layers.append(Dense(kaiming_uniform(rng, (flat, hidden), flat, dtype)))
    layers.append(ReLU())
    layers.append(Dense(kaiming_uniform(rng, (hidden, n_classes), hidden, dtype)))
    return AnnNet(layers, input_shape=image_shape)
