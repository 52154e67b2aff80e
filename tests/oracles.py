"""Test-support references that no run of the package uses: the
finite-difference gradient oracle and its error measure, the kernels' kink
distance, the IDX writers and readers that round-trip digits through the
package's parser, and the all-ones rollout mask.

Tests import them as ``from oracles import ...``, as they import conftest.
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from snnadv.data import IMAGES_MAGIC, LABELS_MAGIC, _read_idx, _read_idx_pair, _scaled
from snnadv.errors import EvaluationError, FormatError
from snnadv.numerics import GRAD_CHECK_DTYPE
from snnadv.surrogate import (ARCTAN, ERFC, PIECEWISE_LINEAR, RECTANGULAR, SIGMOID,
                              SurrogateSpec)


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
