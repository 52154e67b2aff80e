"""Test-support references that no run of the package uses: the
finite-difference gradient oracle and its error measure, the kernels' kink
distance and exact antiderivatives, the relaxed spiking net that fires with
them, the IDX writers and readers that round-trip digits through the
package's parser, and the all-ones rollout mask.

Tests import them as ``from oracles import ...``, as they import conftest.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

import numpy as np

from snnadv.data import IMAGES_MAGIC, LABELS_MAGIC, _read_idx, _read_idx_pair, _scaled
from snnadv.dynamics import SpikingNet
from snnadv.errors import ConfigError, EvaluationError, FormatError
from snnadv.numerics import GRAD_CHECK_DTYPE
from snnadv.surrogate import (ARCTAN, ERFC, FAST_SIGMOID, PIECEWISE_EXP, PIECEWISE_LINEAR,
                              RECTANGULAR, SIGMOID, SurrogateSpec, _logistic)

# libm's error function per element, in float64; only the relaxed erfc spike uses it
_erf = np.vectorize(math.erf, otypes=[np.float64])


def finite_difference_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                           h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, computed in 64-bit.

    The testing oracle for all hand-written backward passes; ``f`` must be
    pure.
    """
    if h <= 0:
        raise EvaluationError("finite-difference step h must be positive")
    x = np.array(x, dtype=GRAD_CHECK_DTYPE)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = float(f(x))
        flat_x[i] = orig - h
        fm = float(f(x))
        flat_x[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError("non-finite objective value during finite differences")
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Max absolute deviation scaled by the reference magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-12)
    return float(np.max(np.abs(got - want))) / scale if got.size else 0.0


def kink_distance(spec: SurrogateSpec, v: np.ndarray,
                  threshold: float = 1.0) -> np.ndarray:
    """Distance from each potential to the kernel's nearest non-smooth point.

    Finite-difference comparisons must skip coordinates closer than ~10h to a
    kink. Smooth kernels return +inf everywhere.
    """
    v = np.asarray(v, dtype=np.float64)
    d = np.abs(v - threshold)
    kind = spec.kind
    if kind in (SIGMOID, ERFC, ARCTAN):
        return np.full_like(d, np.inf)
    if kind == PIECEWISE_LINEAR:
        return np.minimum(d, np.abs(d - 1.0))
    if kind == RECTANGULAR:
        return np.abs(d - spec.alpha / 2.0)
    # fast-sigmoid and piecewise-exp kink only at the threshold itself
    return d


def antiderivative(spec: SurrogateSpec, v: np.ndarray,
                   threshold: float = 1.0) -> np.ndarray:
    """Exact antiderivative of the kernel: the relaxed (soft) spike.

    Replacing the Heaviside with this function makes the whole network
    smooth with the kernel as its true derivative, which is what the
    finite-difference oracle for the unrolled backward pass checks against.
    """
    v = np.asarray(v)
    d = v - threshold
    kind = spec.kind
    if kind == SIGMOID:
        return _logistic(d)
    if kind == ERFC:
        z = d / (math.sqrt(2.0) * spec.sigma)
        return 0.5 * (1.0 + _erf(z).astype(z.dtype, copy=False))
    if kind == ARCTAN:
        return np.arctan(np.pi * d) / np.pi + 0.5
    if kind == PIECEWISE_LINEAR:
        out = np.where(d < 0.0, 0.5 * np.square(1.0 + np.clip(d, -1.0, 0.0)),
                       1.0 - 0.5 * np.square(1.0 - np.clip(d, 0.0, 1.0)))
        return out.astype(v.dtype)
    if kind == FAST_SIGMOID:
        if spec.fs_conventional:
            # d/dv of sign(d)(1 - 1/(1+|d|)) is 1/(1+|d|)^2
            return 0.5 + np.sign(d) * 0.5 * (1.0 - 1.0 / (1.0 + np.abs(d)))
        return 0.5 + np.sign(d) * (np.arctan(1.0 + np.abs(d)) - np.pi / 4.0)
    if kind == PIECEWISE_EXP:
        if spec.pwe_literal:
            raise ConfigError("literal piecewise-exp has no bounded antiderivative")
        scale = spec.alpha / spec.beta
        return np.where(d < 0.0, scale * np.exp(spec.beta * np.minimum(d, 0.0)),
                        scale * (2.0 - np.exp(-spec.beta * np.maximum(d, 0.0)))).astype(v.dtype)
    # RECTANGULAR
    return np.clip((d + spec.alpha / 2.0) / spec.alpha, 0.0, 1.0)


class RelaxedNet(SpikingNet):
    """A spiking net that fires with its kernel's antiderivative: the
    finite-difference oracle's smooth stand-in for the hard threshold."""

    def _spike(self, v: np.ndarray, threshold: float, out: np.ndarray) -> np.ndarray:
        out[...] = antiderivative(self.surrogate, v, threshold=threshold)
        return out


def relaxed(net: SpikingNet) -> RelaxedNet:
    """A relaxed net on ``net``'s layers and settings."""
    return RelaxedNet(net.layers, T=net.T, surrogate=net.surrogate, readout=net.readout,
                      detach_reset=net.detach_reset)


def load_idx_images(path) -> np.ndarray:
    return _scaled(_read_idx(path, IMAGES_MAGIC, "image"))


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    pixels, labels = _read_idx_pair(images_path, labels_path)
    return _scaled(pixels), labels


def save_idx_images(path, images: np.ndarray) -> None:
    """Write [n, rows, cols] images: uint8 as they are, floats in [0, 1]
    quantized to 0..255 in one scratch array. Other integer dtypes are refused,
    since their range is not [0, 1]."""
    images = np.asarray(images)
    if images.dtype.kind in "iu" and images.dtype != np.uint8:
        raise FormatError(f"IDX images must be uint8 or float in [0, 1], got {images.dtype}")
    if images.dtype != np.uint8:
        scratch = images * 255.0
        np.rint(scratch, out=scratch)
        images = np.clip(scratch, 0, 255, out=scratch).astype(np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def save_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())


def ones_mask(x: np.ndarray) -> np.ndarray:
    return np.ones_like(np.asarray(x))
