"""Surrogate spike-derivative kernels.

The forward pass of a spiking layer always thresholds with the hard Heaviside
step; only the backward pass substitutes one of these kernels for the step's
derivative. Seven kernels are provided, all centered on the firing threshold,
plus each kernel's exact antiderivative (the "relaxed" soft spike used by the
finite-difference gradient oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, EvaluationError

SIGMOID = "sigmoid"
ERFC = "erfc"
ARCTAN = "arctan"
PIECEWISE_LINEAR = "piecewise_linear"
FAST_SIGMOID = "fast_sigmoid"
PIECEWISE_EXP = "piecewise_exp"
RECTANGULAR = "rectangular"

KINDS = (SIGMOID, ERFC, ARCTAN, PIECEWISE_LINEAR, FAST_SIGMOID, PIECEWISE_EXP, RECTANGULAR)

# common shorthand seen in configs / tables; "actfun" is the rectangular
# window under its original implementation name
_ALIASES = {
    "pwl": PIECEWISE_LINEAR,
    "linear": PIECEWISE_LINEAR,
    "fastsigmoid": FAST_SIGMOID,
    "pwe": PIECEWISE_EXP,
    "actfun": RECTANGULAR,
    "rectangle": RECTANGULAR,
}


def canonical_kind(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    if key not in KINDS:
        raise ConfigError(f"unknown surrogate kind {name!r}; choose one of {', '.join(KINDS)}")
    return key


@dataclass(frozen=True)
class SurrogateSpec:
    """Which kernel the backward pass substitutes, plus its hyperparameters.

    ``pwe_literal`` selects the printed reciprocal form of the
    piecewise-exponential (divergent away from threshold; study only).
    ``fs_conventional`` selects 1/(1+|d|)^2 for fast-sigmoid instead of the
    printed 1/(1+(1+|d|)^2).
    """

    kind: str = ARCTAN
    sigma: float = 0.4
    alpha: float = 1.0
    beta: float = 5.0
    pwe_literal: bool = False
    fs_conventional: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        for name in ("sigma", "alpha", "beta"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"surrogate {name} must be > 0 and finite, "
                                  f"got {getattr(self, name)}")


def heaviside(v: np.ndarray, threshold: float, out=None) -> np.ndarray:
    """Hard spike in v's dtype, or into ``out``: 1 where v >= threshold, else 0."""
    if not np.isfinite(threshold):
        raise EvaluationError("threshold must be finite")
    v = np.asarray(v)
    return np.greater_equal(v, threshold, out=np.empty_like(v) if out is None else out)


def surrogate_grad(spec: SurrogateSpec, v: np.ndarray,
                   threshold: float = 1.0) -> np.ndarray:
    """Kernel value per element, in a new array: the stand-in for d(spike)/d(potential).

    The kernel is centred on ``threshold``; layers pass their own firing
    threshold.
    """
    v = np.asarray(v)
    d = v - threshold
    kind = spec.kind
    if kind == SIGMOID:
        # e^(θ-v) / (1+e^(θ-v))^2 == s(d)(1-s(d)) with s the logistic
        s = _logistic(d)
        return s * (1.0 - s)
    if kind == ERFC:
        # Python-float constants: a numpy float64 scalar would promote float32 v
        return np.exp(-(d * d) / (2.0 * spec.sigma**2)) / (math.sqrt(2.0 * math.pi) * spec.sigma)
    if kind == ARCTAN:
        d *= math.pi**2 * d  # in place: d is this call's own array
        d += 1.0
        return np.divide(1.0, d, out=d)
    if kind == PIECEWISE_LINEAR:
        return np.maximum(0.0, 1.0 - np.abs(d)).astype(v.dtype)
    if kind == FAST_SIGMOID:
        if spec.fs_conventional:
            return 1.0 / np.square(1.0 + np.abs(d))
        return 1.0 / (1.0 + np.square(1.0 + np.abs(d)))
    if kind == PIECEWISE_EXP:
        if spec.pwe_literal:
            # printed reciprocal form; grows without bound, kept for study.
            # Evaluated and returned in 64-bit: its range overflows float32.
            out = np.exp(spec.beta * np.abs(d).astype(np.float64)) / spec.alpha
            if not np.all(np.isfinite(out)):
                raise EvaluationError("literal piecewise-exp overflowed; use the default form")
            return out
        return spec.alpha * np.exp(-spec.beta * np.abs(d))
    # RECTANGULAR: SurrogateSpec admits no other kind
    return (np.abs(d) < spec.alpha / 2.0).astype(v.dtype) / spec.alpha


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
        return 0.5 * (1.0 + erf(d / (math.sqrt(2.0) * spec.sigma)))
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


def _logistic(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; e^-|x| <= 1 never overflows,
    # and max(e, x >= 0) picks the numerator without masks (np.where is slower)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)
