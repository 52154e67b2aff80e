"""In-memory spans around the library's public calls, recorded from outside.

A span is (name, start, end, parent index, batch rows). Spans stay in a list
while the benchmark runs and are written out once at the end. A layer's self
time is its spans' durations minus the part covered by their direct children;
the program is single-threaded, so children never overlap.

``instrument`` swaps a module or class attribute for a wrapper that opens and
closes a span around the original call, and puts every original back when the
``with`` block ends. Functions are wrapped where their callers look them up:
``surrogate_grad`` in ``snnadv.dynamics``, the layer norms in
``snnadv.attention``, ``evaluate`` and ``train_epochs`` in both
``snnadv.train`` and ``snnadv.convert``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ATTACK_LOOPS = ("attacks.fgsm", "attacks.pgd", "attacks.mim", "attacks.saga",
                "attacks.auto_saga")


class Tracer:
    """Span recorder plus the attack-path counters that need the call stack:
    input-gradient evaluations and their exactly-zero entries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, rows]
        self._stack = []
        self._attack_depth = 0
        self.grad_evals = 0
        self.grad_zeros = 0
        self.grad_entries = 0
        self.grad_count_s = 0.0
        self._last_cache = None

    def begin(self, name: str, rows: int = -1) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, rows])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        if name in ATTACK_LOOPS:
            self._attack_depth += 1
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[0] in ATTACK_LOOPS:
            self._attack_depth -= 1

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def record_input_grad(self, cache, grad) -> None:
        """Count one input gradient if it was taken on the attack path. Only
        the first gradient from each forward cache enters the zero share: a
        second one (Auto-SAGA's margin seed) is zero by design for every
        sample the margin loss leaves inactive."""
        if not self._attack_depth or not isinstance(grad, np.ndarray):
            return
        self.grad_evals += 1
        if cache is self._last_cache:
            return
        self._last_cache = cache
        t0 = time.perf_counter()
        self.grad_zeros += grad.size - int(np.count_nonzero(grad))
        self.grad_entries += grad.size
        self.grad_count_s += time.perf_counter() - t0

    def bookkeeping_s(self) -> float:
        """Estimated time the tracer itself added: its spans times the cost of
        one empty traced call, plus the gradient counting."""
        noop = _wrap(lambda: None, "probe", Tracer(), False)
        calls = 2000
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        per_span = (time.perf_counter() - t0) / calls
        return len(self.spans) * per_span + self.grad_count_s


def write_spans(spans, path) -> None:
    """One JSON object per span; ``parent`` is a line index, -1 for a root."""
    with open(path, "w") as fh:
        for name, start, end, parent, rows in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "rows": rows}) + "\n")


def self_times(spans) -> dict:
    """name -> (self seconds, calls). Self time is a span's duration minus
    the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out[name]
        entry[0] += (end - start) - child[i]
        entry[1] += 1
    return {name: (s, c) for name, (s, c) in out.items()}


def per_call_ms(spans, name: str, rows: int) -> float:
    """Median inclusive duration in ms of the calls to ``name`` on a batch of
    exactly ``rows`` samples; 0 when there is none."""
    durations = [end - start for n, start, end, _, r in spans if n == name and r == rows]
    return float(np.median(durations)) * 1e3 if durations else 0.0


def _rows(args) -> int:
    for arg in args:
        if isinstance(arg, np.ndarray):
            return arg.shape[0] if arg.ndim else -1
    return -1


def _wrap(fn, name: str, tracer: Tracer, grad_out: bool):
    def traced(*args, **kwargs):
        idx = tracer.begin(name, _rows(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if grad_out:
            tracer.record_input_grad(args[1], result)
        return result
    traced.__wrapped__ = fn
    return traced


def trace_points():
    """(owner, attribute, span name, returns an input gradient) for every
    public call the per-layer metrics cover."""
    from snnadv import (ann, attacks, attention, checkpoint, convert, data, dynamics,
                        harness, numerics, train)
    return [
        (dynamics.SpikingNet, "forward_cached", "dynamics.forward", False),
        (dynamics.SpikingNet, "backward", "dynamics.backward", True),
        (dynamics, "surrogate_grad", "surrogate.grad", False),
        (attention.TinyAttentionNet, "forward_cached", "attention.forward", False),
        (attention.TinyAttentionNet, "backward", "attention.backward", True),
        (attention.TinyAttentionNet, "rollout_mask", "attention.rollout", False),
        (attention, "layernorm_forward", "attention.layernorm", False),
        (attention, "layernorm_backward", "attention.layernorm", False),
        (ann.AnnNet, "forward_cached", "ann.forward", False),
        (ann.AnnNet, "backward", "ann.backward", True),
        (numerics, "softmax", "numerics.softmax", False),
        (numerics, "softmax_cross_entropy", "numerics.xent", False),
        (attacks, "fgsm", "attacks.fgsm", False),
        (attacks, "pgd", "attacks.pgd", False),
        (attacks, "mim", "attacks.mim", False),
        (attacks, "saga", "attacks.saga", False),
        (attacks, "auto_saga", "attacks.auto_saga", False),
        (attacks, "project", "attacks.project", False),
        (attacks, "margin_loss", "attacks.margin", False),
        (harness, "select_eval_set", "harness.select", False),
        (harness.EvalSet, "verify", "harness.verify", False),
        (harness, "surrogate_sweep", "harness.orchestrate", False),
        (harness, "transfer_matrix", "harness.orchestrate", False),
        (harness, "multi_model_comparison", "harness.orchestrate", False),
        (train, "train_epochs", "train.loop", False),
        (convert, "train_epochs", "train.loop", False),
        (convert, "fine_tune", "train.loop", False),
        (train, "evaluate", "train.evaluate", False),
        (convert, "evaluate", "train.evaluate", False),
        (train.Adam, "step", "train.step", False),
        (train.SGD, "step", "train.step", False),
        (checkpoint, "load_model", "checkpoint.load", False),
        (data, "synth_digits", "data.synth", False),
    ]


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, new value) and restore the originals on
    exit, last patched first."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def instrument(tracer: Tracer):
    """Trace every point of ``trace_points`` for the duration of the block."""
    with patched([(owner, attr, _wrap(owner.__dict__[attr], name, tracer, grad_out))
                  for owner, attr, name, grad_out in trace_points()]):
        yield tracer
