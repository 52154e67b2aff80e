"""Surrogate spike-derivative kernels.

The forward pass of a spiking layer always thresholds with the hard Heaviside
step; only the backward pass substitutes one of these kernels for the step's
derivative. Seven kernels are provided, all centered on the firing threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluationError

SIGMOID = "sigmoid"
ERFC = "erfc"
ARCTAN = "arctan"
PIECEWISE_LINEAR = "piecewise_linear"
FAST_SIGMOID = "fast_sigmoid"
PIECEWISE_EXP = "piecewise_exp"
RECTANGULAR = "rectangular"

KINDS = (SIGMOID, ERFC, ARCTAN, PIECEWISE_LINEAR, FAST_SIGMOID, PIECEWISE_EXP, RECTANGULAR)

# the literal piecewise-exp kernel's refusal, raised by the kernel and by a
# backward whose 64-bit gradient of it leaves the net's dtype's range
PWE_OVERFLOW = "literal piecewise-exp overflowed; use the default form"

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
                raise EvaluationError(PWE_OVERFLOW)
            return out
        return spec.alpha * np.exp(-spec.beta * np.abs(d))
    # RECTANGULAR: SurrogateSpec admits no other kind
    return (np.abs(d) < spec.alpha / 2.0).astype(v.dtype) / spec.alpha


def _logistic(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below; e^-|x| <= 1 never overflows,
    # and max(e, x >= 0) picks the numerator without masks (np.where is slower)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)
