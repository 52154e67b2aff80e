"""White-box attack suite: single-model FGSM / PGD / MIM, the multi-model
blend that re-derives its per-model coefficients every iteration (Auto-SAGA),
and the same blend with the coefficients held (SAGA).

Every attack keeps its iterates inside the l-inf ball of radius eps_max
around the clean input and inside the valid pixel range [0, 1]. Spiking
models are differentiated through their configured surrogate kernel.

Batch invariance, in float32, the working dtype: a sample's adversarial
example (and, for Auto-SAGA, its coefficient path) does not depend on which
other samples share its batch or in what order. The input gradients are seeded
per sample (softmax - onehot, not divided by the batch size), and PGD's random
start is keyed on the sample's dataset index (``index``), not on its position
in the batch. This is what lets a transfer matrix attack the union of several
evaluation sets once and read each set's rows out of the result, and what
makes the gradients of a model evaluated over ``ann.row_blocks`` of its
``block_rows`` (4 blocks of 50 for the attention net at 200 rows, one pass for
the spiking and conventional nets up to 256) the bytes of one pass. The floor
is 16 float32 rows: below it BLAS switches to other kernels, and the bytes of
the gradients, so of the attack outputs, may differ from those of the same
samples in a larger batch. Every block of a batch of 16 rows or more holds at
least 16; batches are never padded to reach it. float64, the dtype of the
gradient oracles, has no such promise: there the conventional and attention
nets give other bytes at many row counts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import numerics
from .ann import row_blocks
from .errors import ConfigError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AttackConfig:
    """Shared attack knobs.

    ``eps_step`` drives the PGD and blend steps; MIM always steps by
    eps_max/n_iter as its update rule prescribes. ``alphas`` are the blend's
    start coefficients, one per model, None for uniform: SAGA holds them,
    Auto-SAGA walks from them. ``coeff_lr`` (r) and ``fit_u`` (u) only set
    Auto-SAGA's walk.
    """

    eps_max: float = 0.031
    eps_step: float = 0.01
    n_iter: int = 40
    mu: float = 1.0
    kappa: float = 0.0
    coeff_lr: float = 10_000.0
    fit_u: float = 1.0
    alphas: Optional[tuple] = None
    random_start: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eps_max <= 1.0:
            raise ConfigError(f"eps_max must be in [0, 1], got {self.eps_max}")
        if not 0.0 < self.eps_step < np.inf:
            raise ConfigError(f"eps_step must be > 0 and finite, got {self.eps_step}")
        if self.eps_max > 0.0 and self.eps_step > self.eps_max:
            raise ConfigError(f"eps_step {self.eps_step} exceeds eps_max {self.eps_max}")
        if self.n_iter < 1:
            raise ConfigError(f"n_iter must be >= 1, got {self.n_iter}")
        if not 0.0 <= self.mu < np.inf:
            raise ConfigError(f"mu must be >= 0 and finite, got {self.mu}")
        if not 0.0 <= self.kappa < np.inf:
            raise ConfigError(f"kappa must be >= 0 and finite, got {self.kappa}")
        if not (0.0 < self.coeff_lr < np.inf and 0.0 < self.fit_u < np.inf):
            raise ConfigError("coefficient learning rate and fitting factor must be > 0 "
                              f"and finite, got {self.coeff_lr} and {self.fit_u}")
        if self.alphas is not None and not all(0.0 <= a < np.inf for a in self.alphas):
            raise ConfigError("blend coefficients must be non-negative and finite, "
                              f"got {self.alphas}")
        if self.alphas and not any(self.alphas):  # such a blend never moves the input
            raise ConfigError(f"blend coefficients must not all be zero, got {self.alphas}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AttackReport:
    """Per-sample outcomes for a model set, and the success rates they give."""

    model_names: list
    success: np.ndarray          # [n_models, n] bool
    linf: np.ndarray             # [n]
    iterations: int

    @property
    def per_model_rate(self) -> np.ndarray:
        """[n_models]: the share of samples each model gets wrong."""
        return self.success.mean(axis=1)

    @property
    def joint_rate(self) -> float:
        """The share of samples every model gets wrong."""
        return float(np.all(self.success, axis=0).mean())

    @classmethod
    def build(cls, models: Sequence, x: np.ndarray, x_adv: np.ndarray, labels: np.ndarray,
              iterations: int, names: Optional[Sequence[str]] = None) -> "AttackReport":
        names = list(names) if names else [f"model{i}" for i in range(len(models))]
        success = np.stack([model.predict(x_adv) != labels for model in models])
        flat_delta = (np.asarray(x_adv, dtype=np.float64)
                      - np.asarray(x, dtype=np.float64)).reshape(len(labels), -1)
        linf = np.max(np.abs(flat_delta), axis=1)
        return cls(names, success, linf, iterations)

    def as_dict(self) -> dict:
        return {"models": self.model_names,
                "per_model_success_rate": [float(r) for r in self.per_model_rate],
                "joint_success_rate": self.joint_rate,
                "iterations": self.iterations,
                "max_linf": float(self.linf.max()) if self.linf.size else 0.0,
                "per_sample_success": self.success.astype(int).tolist(),
                "per_sample_linf": [float(v) for v in self.linf]}


def project(x_adv: np.ndarray, x: np.ndarray, eps_max: float) -> np.ndarray:
    """Clamp into the l-inf ball around x, then into the pixel range."""
    x_adv = np.asarray(x_adv)
    x = np.asarray(x)
    if x_adv.shape != x.shape:
        raise ConfigError(f"projection shapes differ: {x_adv.shape} vs {x.shape}")
    out = np.clip(x_adv, x - eps_max, x + eps_max)
    return np.clip(out, 0.0, 1.0)


def keyed_uniform(seed: int, index, row_size: int) -> np.ndarray:
    """float32 draws in [-1, 1), shaped [len(index), row_size]. Entry (i, p) is
    a pure function of (seed, index[i], p), so a sample draws the same row in
    any batch.

    Counter-based, in one vectorized pass: the injective key
    ``index * row_size + p`` steps a 32-bit Weyl sequence offset by a hash of
    the seed, the murmur3 finaliser mixes it, and its top 24 bits are the
    draw."""
    index = np.asarray(index)
    if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
        raise ConfigError(f"sample indices must be a 1-d integer array, got {index.dtype} "
                          f"{index.shape}")
    if index.size and (index.min() < 0 or (int(index.max()) + 1) * row_size > 2**32):
        raise ConfigError(f"sample indices must lie in [0, 2**32 / {row_size})")
    offset = np.random.SeedSequence(seed).generate_state(1, np.uint32)[0]
    h = index.astype(np.uint32)[:, None] * np.uint32(row_size) + np.arange(row_size,
                                                                          dtype=np.uint32)
    h *= np.uint32(0x9E3779B9)
    h += offset
    for shift, mult in ((16, 0x85EBCA6B), (13, 0xC2B2AE35)):
        h ^= h >> np.uint32(shift)
        h *= np.uint32(mult)
    h ^= h >> np.uint32(16)
    h >>= np.uint32(8)
    u = h.astype(np.float32)
    u *= np.float32(2.0 ** -23)
    u -= np.float32(1.0)
    return u


def _evaluate(model, x: np.ndarray, labels: np.ndarray, blend: Optional[np.ndarray] = None,
              alpha: Optional[np.ndarray] = None, kappa: Optional[float] = None) -> tuple:
    """The logits, the per-sample cross-entropy input gradient (shaped like x)
    and, given ``kappa``, the margin loss's one (else None), all from one
    forward; given ``blend``, ``_blend_term`` with ``alpha`` is added into it
    in place. No parameter gradient is computed.

    The rows are taken over ``row_blocks`` of the model's ``block_rows``,
    each block's forward cache dropped before the next forward, so no cache
    holds more than a block's rows; batch invariance makes the bytes those of
    one pass. A batch of one block takes one pass and no copy; no rows run no
    forward and give empty outputs in the model's dtype, as a forward would.
    """
    blocks = []
    for rows in row_blocks(len(x), model.block_rows):
        xb, yb = x[rows], labels[rows]
        logits, cache = model.forward_cached(xb)
        _, seed = numerics.softmax_cross_entropy(logits, yb, mean=False)
        grad = model.backward(cache, seed).reshape(xb.shape)
        margin_grad = None if kappa is None else \
            model.backward(cache, margin_loss(logits, yb, kappa)[1]).reshape(xb.shape)
        if blend is not None:
            blend[rows] += _blend_term(model, alpha[rows], xb, cache, grad)
        del cache
        blocks.append((logits, grad, margin_grad))
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        dtype = model.params()[0][1].dtype
        grad = np.zeros(x.shape, dtype)
        return np.zeros((0, model.n_classes), dtype), grad, None if kappa is None else grad
    return tuple(None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks))


def loss_input_grad(model, x: np.ndarray, labels: np.ndarray) -> tuple:
    """The logits and the cross-entropy gradient w.r.t. the input (shaped like
    x). The gradient is seeded per sample, so its rows do not depend on the
    rest of the batch. No parameter gradient is computed."""
    return _evaluate(model, np.asarray(x), labels)[:2]


def margin_loss(logits: np.ndarray, labels: np.ndarray, kappa: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Best-other-class softmax margin, floored at -kappa, per sample.

    Returns the margin values and the seed gradient w.r.t. the logits. The
    margin is the best other class's probability minus the true class's: it
    is negative exactly when the sample is classified correctly, so at
    kappa=0 the value is positive iff the sample is fooled, else 0.
    """
    s = numerics.softmax(np.asarray(logits, dtype=np.float64))
    n, c = s.shape
    rows = np.arange(n)
    s_true = s[rows, labels]
    masked = s.copy()
    masked[rows, labels] = -np.inf
    best_other = np.argmax(masked, axis=1)
    s_other = s[rows, best_other]
    margin = s_other - s_true
    value = np.maximum(margin, -kappa)
    active = margin > -kappa
    # d(s_j - s_t)/dlogits via the softmax Jacobian s_j (delta_jk - s_k)
    dlogits = (s_true - s_other)[:, None] * s
    dlogits[rows, best_other] += s_other
    dlogits[rows, labels] -= s_true
    dlogits[~active] = 0.0
    return value, dlogits.astype(np.asarray(logits).dtype)


def _iterate(x: np.ndarray, eps_max: float, step: float, n_iter: int, direction: Callable,
             x_adv: Optional[np.ndarray] = None, trace: Optional[list] = None) -> np.ndarray:
    """The loop every attack runs: from ``x_adv`` (default: x clipped to the
    pixel range), n_iter signed steps of size ``step`` along
    ``direction(x_adv)``, each followed by projection. A zero budget returns
    the clipped input without evaluating any gradient.

    The bounds never move, so they are computed once: one clip into
    [clip(x - eps, 0, 1), clip(x + eps, 0, 1)] equals ``project`` for every
    x, inside [0, 1] or not. A step never writes into x, the start or what
    ``direction`` returns."""
    if eps_max == 0.0:
        return np.clip(x, 0.0, 1.0)
    if x_adv is None:
        x_adv = np.clip(x, 0.0, 1.0)
    lo, hi = (np.clip(b, 0.0, 1.0, out=b) for b in (x - eps_max, x + eps_max))
    for _ in range(n_iter):
        # sign(0) = 0, so a zero-gradient pixel stays where it is; the sign is
        # this loop's own array, so it is scaled in place
        stepped = np.sign(direction(x_adv)).astype(x.dtype, copy=False)
        stepped *= step
        # max then min: the bytes of np.clip in about half of its time
        x_adv = np.maximum(np.add(x_adv, stepped, out=stepped), lo, out=stepped)
        np.minimum(x_adv, hi, out=x_adv)
        if trace is not None:
            trace.append(x_adv.copy())
    return x_adv


def _grad_rule(model, labels: np.ndarray) -> Callable:
    return lambda x_adv: loss_input_grad(model, x_adv, labels)[1]


def fgsm(model, x: np.ndarray, labels: np.ndarray, eps: float) -> np.ndarray:
    """One signed step of size eps from x clipped to [0, 1], then projection:
    PGD's one step without a random start."""
    if eps < 0:
        raise ConfigError(f"eps must be >= 0, got {eps}")
    return _iterate(np.asarray(x), eps, eps, 1, _grad_rule(model, labels))


def pgd(model, x: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
        trace: Optional[list] = None, index: Optional[np.ndarray] = None) -> np.ndarray:
    """Random start inside the ball, then iterated signed steps, each
    followed by projection. The start of each sample is keyed on
    (``cfg.seed``, its dataset index, pixel); ``index`` gives the samples'
    dataset indices and defaults to their batch positions. The draw becomes
    the start in place, so neither the draw nor the noise outlives the
    start's construction; the start itself is held until the attack returns."""
    x = np.asarray(x)
    start = _random_start(x, cfg, index)
    return _iterate(x, cfg.eps_max, cfg.eps_step, cfg.n_iter, _grad_rule(model, labels),
                    start, trace)


def _random_start(x: np.ndarray, cfg: AttackConfig, index: Optional[np.ndarray]):
    """PGD's start, or None without ``cfg.random_start``: x plus eps_max times
    the keyed draw, in x's dtype, projected. The draw becomes the noise and
    then the sum in place."""
    if not cfg.random_start:
        return None
    index = np.arange(len(x)) if index is None else np.asarray(index)
    if index.shape != x.shape[:1]:
        raise ConfigError(f"{index.shape} sample indices for a batch of {len(x)}")
    noise = keyed_uniform(cfg.seed, index, int(np.prod(x.shape[1:])))
    noise = noise.reshape(x.shape).astype(x.dtype, copy=False)
    noise *= cfg.eps_max
    noise += x
    return project(noise, x, cfg.eps_max)


def mim(model, x: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
        trace: Optional[list] = None) -> np.ndarray:
    """Momentum-accumulated signed steps of size eps_max/n_iter with
    L1-normalized gradients; a zero gradient skips the normalization. The
    gradient is normalized in place and the momentum updated in place, so
    an iteration holds one momentum and one gradient."""
    x = np.asarray(x)
    g = np.zeros_like(x)
    axes = tuple(range(1, x.ndim))

    def momentum(x_adv):
        _, grad = loss_input_grad(model, x_adv, labels)
        l1 = np.sum(np.abs(grad), axis=axes, keepdims=True)
        np.divide(grad, l1, out=grad, where=l1 > 0)
        grad[l1.reshape(-1) == 0] = 0.0  # a zero row, -0.0s included, normalizes to +0
        np.multiply(g, cfg.mu, out=g)
        return np.add(g, grad, out=g)

    return _iterate(x, cfg.eps_max, cfg.eps_max / cfg.n_iter, cfg.n_iter, momentum,
                    trace=trace)


def _blend_term(model, alpha, x: np.ndarray, cache, grad: np.ndarray) -> np.ndarray:
    """alpha * (blend mask of ``model`` at ``x``, from its forward ``cache``) * grad,
    with ``alpha`` a column of x's dtype. Other models' all-ones mask is not
    built: alpha * 1 is alpha exactly."""
    rollout = getattr(model, "rollout_mask", None)
    return alpha * grad if rollout is None else alpha * rollout(x, cache) * grad


def blend_alphas(alphas: Optional[Sequence[float]], m_count: int, n: int = 1) -> np.ndarray:
    """The float64 start rows [n, m_count] of both blends: ``alphas`` (whose
    signs ``AttackConfig`` checks), or uniform when it is None, for every
    sample. The one count rule: any count but one per model is refused."""
    if m_count < 1:
        raise ConfigError("need at least one model")
    if alphas is None:
        alphas = [1.0 / m_count] * m_count
    elif len(alphas) != m_count:
        raise ConfigError(f"{len(alphas)} coefficients for {m_count} models")
    return np.tile(np.asarray(alphas, dtype=np.float64), (n, 1))


def _blend(models: Sequence, rows: np.ndarray, x_adv: np.ndarray, labels: np.ndarray,
           kappa: Optional[float] = None) -> tuple[np.ndarray, list, list]:
    """The blend sum_k rows[:, k] * mask_k * g_k at ``x_adv``, the input
    gradients g_k of cross-entropy and, given ``kappa``, those of the margin
    loss (else none), both from one forward per model and row block. Attention
    models contribute rollout-masked gradients, the rest plain ones; a zero
    coefficient adds an exact zero. One forward cache is alive at a time."""
    columns = rows.T.astype(x_adv.dtype).reshape(rows.shape[::-1] + (1,) * (x_adv.ndim - 1))
    blend = np.zeros_like(x_adv)
    grads, margin_grads = [], []
    for model, alpha in zip(models, columns):
        _, grad, margin_grad = _evaluate(model, x_adv, labels, blend, alpha, kappa)
        grads.append(grad)
        if kappa is not None:
            margin_grads.append(margin_grad)
    return blend, grads, margin_grads


def saga(models: Sequence, x: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
         trace: Optional[list] = None) -> np.ndarray:
    """Auto-SAGA's blend with the coefficients held: every step follows the
    blend at the start rows of ``cfg.alphas`` (uniform when None), the same
    for every sample and iteration. One forward cache is alive at a time."""
    x = np.asarray(x)
    rows = blend_alphas(cfg.alphas, len(models), len(x))
    return _iterate(x, cfg.eps_max, cfg.eps_step, cfg.n_iter,
                    lambda x_adv: _blend(models, rows, x_adv, labels)[0], trace=trace)


def auto_saga(models: Sequence, x: np.ndarray, labels: np.ndarray, cfg: AttackConfig,
              trace: Optional[list] = None) -> tuple[np.ndarray, np.ndarray]:
    """Self-tuning multi-model blend.

    Per iteration: step the adversarial example along the coefficient-weighted
    masked-gradient blend, project, then walk each coefficient down the
    margin-loss slope (the sign is smoothed by u*sech^2(u*sum of gradients)
    for the coefficient derivative). Both input gradients are seeded per
    sample, so a sample's coefficient step does not scale with the batch size.
    Each model's margin gradient follows its cross-entropy gradient, so one
    forward cache (a model's, or one row block's) is alive at a time, and the
    float64 walk runs after every cache is gone. Coefficients are per sample,
    start at SAGA's rows, are clamped non-negative and renormalized to sum
    one; fully collapsed rows reset to uniform.

    Returns the adversarial batch and the coefficient trajectory
    [n_iter + 1, n, n_models].
    """
    m_count = len(models)
    x = np.asarray(x)
    alphas = blend_alphas(cfg.alphas, m_count, len(x))
    history = [alphas.copy()]
    grad_axes = tuple(range(1, x.ndim))
    collapse_events = 0

    def blend_and_walk(x_adv):
        # the walk reads only quantities at the current iterate, so it runs
        # here, before the step this blend drives
        nonlocal alphas, collapse_events
        blend, grads, margin_grads = _blend(models, alphas, x_adv, labels, cfg.kappa)
        grad_sum = np.sum(grads, axis=0, dtype=np.float64)
        # sech^2 underflows to 0 beyond ~350 anyway; clip to keep cosh finite
        sech2 = 1.0 / np.square(np.cosh(np.clip(cfg.fit_u * grad_sum, -350.0, 350.0)))
        df_dx = np.sum(margin_grads, axis=0, dtype=np.float64)
        for mi, grad in enumerate(grads):
            dx_dalpha = cfg.fit_u * cfg.eps_step * sech2 * grad
            df_dalpha = np.sum(df_dx * dx_dalpha, axis=grad_axes)
            alphas[:, mi] -= cfg.coeff_lr * df_dalpha
        alphas = np.maximum(alphas, 0.0)
        row_sum = alphas.sum(axis=1)
        collapsed = row_sum <= 0.0
        if np.any(collapsed):
            collapse_events += int(collapsed.sum())
            alphas[collapsed] = 1.0 / m_count
            row_sum[collapsed] = 1.0
        alphas /= row_sum[:, None]
        history.append(alphas.copy())
        return blend

    x_adv = _iterate(x, cfg.eps_max, cfg.eps_step, cfg.n_iter, blend_and_walk, trace=trace)
    if collapse_events:
        log.warning("blend coefficients collapsed to zero %d times across %d samples; "
                    "reset to uniform each time", collapse_events, len(x))
    return x_adv, np.asarray(history)


ATTACK_KINDS = ("fgsm", "pgd", "mim", "saga", "autosaga")


def attack_kind(kind: str) -> str:
    """``kind`` lower-cased, if it names one of ATTACK_KINDS."""
    kind = kind.lower()
    if kind not in ATTACK_KINDS:
        raise ConfigError(f"unknown attack kind {kind!r}; choose one of {', '.join(ATTACK_KINDS)}")
    return kind


def steps_taken(kind: str, cfg: AttackConfig) -> int:
    """The steps ``run_attack(kind, ..., cfg)`` takes: 0 at a zero budget, 1 for FGSM."""
    return 0 if cfg.eps_max == 0.0 else 1 if attack_kind(kind) == "fgsm" else cfg.n_iter


def run_attack(kind: str, models: Sequence, x: np.ndarray, labels: np.ndarray,
               cfg: AttackConfig, index: Optional[np.ndarray] = None) -> np.ndarray:
    """The one way the harness and the CLI start an attack; every setting
    comes from ``cfg``. ``index`` (the samples' dataset indices) keys PGD's
    random start; the other attacks draw nothing."""
    kind = attack_kind(kind)
    if kind == "fgsm":
        return fgsm(models[0], x, labels, cfg.eps_max)
    if kind == "pgd":
        return pgd(models[0], x, labels, cfg, **({} if index is None else {"index": index}))
    if kind == "mim":
        return mim(models[0], x, labels, cfg)
    if kind == "saga":
        return saga(models, x, labels, cfg)
    return auto_saga(models, x, labels, cfg)[0]
