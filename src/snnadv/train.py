"""Deterministic mini-batch training and evaluation for every model kind."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numerics
from .errors import ConfigError, EvaluationError, TrainingError
from .surrogate import SurrogateSpec

# Adam's two moment decays and the floor under its step's denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _rate(lr: float) -> float:
    """``lr``, refused when negative or not finite."""
    if not 0.0 <= lr < np.inf:
        raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
    return lr


class SGD:
    def __init__(self, lr: float = 0.05, momentum: float = 0.9):
        self.lr = _rate(lr)
        self.momentum = momentum
        self._velocity = {}

    def step(self, params, grads):
        for name, p in params:
            g = grads[name]
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
            v = self.momentum * v - self.lr * g
            self._velocity[name] = v
            p += v


class Adam:
    def __init__(self, lr: float = 1e-3):
        self.lr = _rate(lr)
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, params, grads):
        self._t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in params:
            g = grads[name]
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(p)
                v = np.zeros_like(p)
            else:
                v = self._v[name]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self._m[name] = m
            self._v[name] = v
            mhat = m / (1 - b1**self._t)
            vhat = v / (1 - b2**self._t)
            p -= (self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(p.dtype)


def make_optimizer(kind: str, name: str = "auto", lr: float = 0.0):
    """Optimizer ``name`` for a model of ``kind`` ("ann", "snn" or
    "attention"): ``auto`` is Adam for spiking models and SGD for the rest,
    and ``lr`` 0 keeps the optimizer's own default rate (SGD 0.05, Adam 1e-3)."""
    if name == "auto":
        name = "adam" if kind == "snn" else "sgd"
    optimizer = {"sgd": SGD, "adam": Adam}.get(name)
    if optimizer is None:
        raise ConfigError(f"unknown optimizer {name!r}")
    return optimizer(lr=lr) if lr else optimizer()


@dataclass
class History:
    """Per-epoch training record, as written to ``history.json``.

    ``train_acc`` of the last epoch scores the trained weights on the whole
    training set. Earlier epochs' ``train_acc`` is the running batch accuracy:
    each batch scored by the logits of its own training step, before that
    step's update. ``test_acc`` is NaN when no test set is given."""
    epochs: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"epochs": self.epochs, "train_loss": self.train_loss,
                "train_acc": self.train_acc, "test_acc": self.test_acc}


def evaluate(model, x: np.ndarray, y: np.ndarray) -> float:
    """The share of ``x`` that ``model`` labels as ``y``."""
    y = np.asarray(y)
    if y.size == 0:
        raise TrainingError("cannot evaluate on empty data")
    return np.count_nonzero(model.predict(x) == y) / y.size


def train_epochs(model, train_x, train_y, *, epochs: int, optimizer=None, seed: int = 0,
                 batch_size: int = 128, spec: Optional[SurrogateSpec] = None,
                 test_x=None, test_y=None, verbose: bool = True) -> History:
    """Softmax cross-entropy training loop, bit-reproducible given the seed.

    Without an ``optimizer`` it trains with ``make_optimizer(model.kind)``.
    A spiking model trains with the surrogate kernel it carries, or with
    ``spec`` through ``model.with_surrogate(spec)``, a view that trains the
    model's weights and leaves its kernel as it was. Only the last epoch
    scores the whole training set; see ``History`` for earlier epochs.
    """
    if batch_size < 1 or epochs < 0:
        raise ConfigError(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    train_y = np.asarray(train_y)
    if epochs and train_y.size == 0:
        raise TrainingError("cannot train on empty data")
    if spec is not None and model.kind == "snn":
        model = model.with_surrogate(spec)
    if optimizer is None:
        optimizer = make_optimizer(model.kind)
    rng = np.random.default_rng(seed)
    history = History()
    n = train_y.size
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses, correct = [], 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            try:
                logits, cache = model.forward_cached(train_x[idx])
                loss, dlogits = numerics.softmax_cross_entropy(logits, train_y[idx])
            except EvaluationError as exc:
                raise TrainingError(f"loss diverged at epoch {epoch}: {exc}") from exc
            losses.append(loss)
            correct += int(np.count_nonzero(np.argmax(logits, axis=1) == train_y[idx]))
            grads = {}
            model.backward(cache, dlogits, grads)
            optimizer.step(model.params(), grads)
            # the next batch's forward must not run beside this batch's cache
            del cache, grads
        if epoch == epochs - 1:
            train_acc = evaluate(model, train_x, train_y)
        else:
            train_acc = correct / n
        test_acc = float("nan")
        if test_x is not None:
            test_acc = evaluate(model, test_x, test_y)
        history.epochs.append(epoch)
        history.train_loss.append(float(np.mean(losses)))
        history.train_acc.append(train_acc)
        history.test_acc.append(test_acc)
        if verbose:
            line = f"epoch {epoch} loss {history.train_loss[-1]:.4f} train_acc {train_acc:.4f}"
            if test_x is not None:
                line += f" test_acc {test_acc:.4f}"
            print(line)
    return history
