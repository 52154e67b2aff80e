"""Dense-tensor primitives every other module builds on.

Tensors are plain numpy ndarrays in row-major order: float32 is the working
precision for training and attacks, float64 that of the tests' gradient
oracles (central finite differences are unreliable in 32-bit). The loss helper
checks shapes at the boundary and surfaces NaN/Inf as an error instead of
propagating it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, EvaluationError, IndexRangeError

DEFAULT_DTYPE = np.float32
GRAD_CHECK_DTYPE = np.float64


def require_finite(arr: np.ndarray, what: str = "result") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise EvaluationError(f"non-finite values in {what}")
    return arr


def as_batch(x, shape: tuple, dtype) -> np.ndarray:
    """The one model input check: ``x`` as a batch [n, *shape] in ``dtype``. Any
    [n, ...] whose rows hold prod(shape) values passes; any other shape is a
    DimensionError, and non-finite input an EvaluationError."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim < 2 or np.prod(x.shape[1:]) != np.prod(shape):
        raise DimensionError(f"input shape {x.shape} is not a batch of {tuple(shape)}")
    return require_finite(x.reshape(x.shape[0], *shape), "network input")


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction. ``out`` may be
    ``logits`` itself, which the softmax then overwrites."""
    e = np.subtract(logits, np.max(logits, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, *,
                          mean: bool = True) -> tuple[float, np.ndarray]:
    """Cross-entropy over the batch and its gradient w.r.t. the logits.

    Returns ``(loss, dlogits)``: the mean loss with ``dlogits = (softmax -
    onehot) / n`` (training), or with ``mean=False`` the summed loss with
    ``dlogits = softmax - onehot``, a per-sample seed whose rows do not depend
    on the rest of the batch (attacks).
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-d (batch x classes), got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexRangeError(f"labels must lie in [0, {c})")
    z = logits - np.max(logits, axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    logp = z - logsumexp
    rows = np.arange(n)
    picked = logp[rows, labels]
    loss = float(-(np.mean(picked) if mean else np.sum(picked)))
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    if mean:
        dlogits /= n
    require_finite(dlogits, "cross-entropy gradient")
    if not np.isfinite(loss):
        raise EvaluationError("non-finite cross-entropy loss")
    return loss, dlogits.astype(logits.dtype)

