"""The snnadv benchmark: four workloads driven through the library's public
entry points, an output checker, and the metrics they report.

Workloads (n=200 evaluation samples, float32, CLI default attack settings):

- ``sweep``: ``harness.surrogate_sweep`` on the T=8 SNN, 7 kernels x the
  CLI's 5-value eps grid, 20 PGD steps. Spiking dynamics and surrogate
  kernels only; it never touches attention or the blend attacks.
- ``transfer``: ``harness.transfer_matrix`` over {ANN, SNN, converted SNN
  T=32} x {fgsm, pgd, mim}: 27 attack runs on per-pair evaluation sets.
- ``blend``: ``harness.multi_model_comparison`` on the SNN + attention pair
  (MIM, PGD, SAGA and Auto-SAGA, 40 steps): attention forward/backward,
  rollout masks and the coefficient update.
- ``train``: one epoch each of SNN training, attention training and
  converted-SNN fine-tuning on 10000 samples.

The models are the float32 checkpoints under ``fixtures`` (written by
``make_fixtures.py``), so every run and both sides of a comparison attack
identical weights. The workload seed picks the evaluation sets, the attack
random starts and, for ``train``, the initial weights and batch order.

An operation is one attack run or one training epoch. It fails if it raises,
returns non-finite values, or returns an adversarial batch outside the eps
ball or outside [0, 1].

End-to-end metrics, every one on every workload:

- ``setup_s``: dataset generation, checkpoint loading and, for ``sweep``,
  eval-set selection; the median of ``SETUP_REPEATS`` set-ups, half of them
  before the timed pass and half after it, so that the median spans the
  run's changes in machine speed rather than a few seconds of it. ``transfer``
  and ``blend`` select their eval sets inside the harness entry point, so
  there selection falls in ``wall_s``.
- ``wall_s``: the time of one pass of the workload after set-up. A run
  measures exactly one pass, a fixed amount of work, so that two versions of
  the library are always timed on the same work.
- ``sample_steps_per_s``: samples moved one attack iteration per second of
  attack time (adversarial iterations x batch), or training samples per
  second of training time.
- ``objective``: what the attacks and the training drive down. For the attack
  workloads it is the mean softmax probability of the true class that the
  attacked model(s) give each adversarial batch, taken after the timed pass;
  for ``train`` it is the training error after the timed epochs. It is exact
  at a fixed seed and continuous, so a change that weakens an attack raises
  it even where few samples flip (blend success rates are about 5%).
- ``peak_rss_mb``: peak resident memory of the run.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = HERE / "fixtures"

N_EVAL = 200
SWEEP_EPS = (0.0062, 0.0124, 0.0186, 0.0248, 0.031)   # the CLI's sweep-surrogate grid
SETUP_REPEATS = 10
TRAIN_SAMPLES = 10000

from snnadv import attacks, checkpoint, convert, data, harness, numerics, train  # noqa: E402
from snnadv.attacks import AttackConfig  # noqa: E402
from snnadv.attention import TinyAttentionNet  # noqa: E402
from snnadv.dynamics import NeuronConfig, build_snn_mlp  # noqa: E402
from snnadv.surrogate import KINDS, SurrogateSpec  # noqa: E402

import tracing  # noqa: E402

ARCTAN = SurrogateSpec(kind="arctan")
ATTACK_FUNCS = ("fgsm", "pgd", "mim", "saga", "auto_saga")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "sample_steps_per_s": "1/s",
                    "objective": "ratio", "peak_rss_mb": "MiB"}


# -- output checker ------------------------------------------------------

def check_adversarial(x, x_adv, eps: float) -> str | None:
    """Why an adversarial batch is invalid, or None. The ball tolerance is a
    few float32 ulps at 1.0: ``project`` clips in the input's dtype."""
    x = np.asarray(x)
    x_adv = np.asarray(x_adv)
    if x_adv.shape != x.shape:
        return f"shape {x_adv.shape} != input shape {x.shape}"
    if not np.all(np.isfinite(x_adv)):
        return "non-finite values"
    if x_adv.size and (x_adv.min() < 0.0 or x_adv.max() > 1.0):
        return "outside [0, 1]"
    tol = 4.0 * float(np.finfo(np.float32).eps)
    dev = np.max(np.abs(x_adv.astype(np.float64) - x.astype(np.float64))) if x.size else 0.0
    if dev > eps + tol:
        return f"outside the eps ball (|delta| {dev:.7g} > eps {eps:g})"
    return None


@dataclass
class Ledger:
    """Operations attempted and failed, the work and time that the
    throughput metric divides, and every checked adversarial batch as
    (attacked models, batch, labels)."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    sample_steps: int = 0
    op_seconds: float = 0.0
    adversarial: list = field(default_factory=list)

    def ok(self, sample_steps: int, seconds: float) -> None:
        self.attempted += 1
        self.sample_steps += sample_steps
        self.op_seconds += seconds

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures.append(reason)


def _attack_checker(name: str, fn, ledger: Ledger):
    sig = inspect.signature(fn)

    def checked(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        x = bound.arguments["x"]
        cfg = bound.arguments.get("cfg")
        eps = bound.arguments["eps"] if cfg is None else cfg.eps_max
        iters = 1 if cfg is None else (cfg.n_iter if eps > 0.0 else 0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            ledger.fail(f"{name} raised {type(exc).__name__}: {exc}")
            exc.perfbench_counted = True
            raise
        seconds = time.perf_counter() - t0
        x_adv = result[0] if name == "auto_saga" else result
        problem = check_adversarial(x, x_adv, eps)
        if problem is None and name == "auto_saga" and not np.all(np.isfinite(result[1])):
            problem = "non-finite blend coefficients"
        if problem is None:
            ledger.ok(len(x) * iters, seconds)
            models = bound.arguments["models"] if "models" in bound.arguments \
                else [bound.arguments["model"]]
            ledger.adversarial.append((models, x_adv, bound.arguments["labels"]))
        else:
            ledger.fail(f"{name}: {problem}")
        return result
    checked.__wrapped__ = fn
    return checked


class CollapseCounter(logging.Handler):
    """Sums the collapse events that ``auto_saga`` logs as a warning."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.msg.startswith("blend coefficients collapsed"):
            self.count += int(record.args[0])


# -- set-up ----------------------------------------------------------------

@dataclass
class State:
    models: dict
    x: np.ndarray
    y: np.ndarray
    evalset: object = None


MODELS = {"sweep": ("snn",), "transfer": ("ann", "snn", "converted"),
          "blend": ("snn", "attention"), "train": ("converted",)}


def setup(workload: str, seed: int) -> State:
    """Dataset generation, checkpoint loading and, for the sweep, eval-set
    selection."""
    if workload == "train":
        x, y = data.synth_digits(TRAIN_SAMPLES, seed=0)
    else:
        x, y = data.synth_digits(2000, seed=1)
    models = {name: checkpoint.load_model(FIXTURES / f"{name}.snnm")[0]
              for name in MODELS[workload]}
    state = State(models=models, x=x, y=y)
    if workload == "sweep":
        state.evalset = harness.select_eval_set([models["snn"]], x, y, N_EVAL, seed=seed)
    return state


# -- workloads ---------------------------------------------------------------

def _sweep(state: State, seed: int, ledger: Ledger) -> dict:
    cfg = AttackConfig(eps_max=1.0, eps_step=0.01, n_iter=20, seed=seed)
    grid = harness.surrogate_sweep(state.models["snn"], list(SWEEP_EPS),
                                   [SurrogateSpec(kind=k) for k in KINDS], state.evalset, cfg)
    return {"success": grid.success_rate.ravel().tolist()}


def _transfer(state: State, seed: int, ledger: Ledger) -> dict:
    cfg = AttackConfig(eps_max=0.031, eps_step=0.01, n_iter=40, seed=seed)
    names = list(MODELS["transfer"])
    matrix = harness.transfer_matrix([state.models[n] for n in names], names, state.x,
                                     state.y, N_EVAL, cfg, seed=seed)
    return {"success": np.concatenate([m.ravel() for m in matrix.per_attack.values()]).tolist()}


def _blend(state: State, seed: int, ledger: Ledger) -> dict:
    single = AttackConfig(eps_max=0.031, eps_step=0.01, n_iter=40, seed=seed)
    blend = AttackConfig(eps_max=0.031, eps_step=0.005, n_iter=40, kappa=0.0,
                         coeff_lr=10_000.0, fit_u=1.0, seed=seed)
    pair = (state.models["snn"], state.models["attention"])
    row = harness.multi_model_comparison([pair], state.x, state.y, N_EVAL, single, blend,
                                         seed=seed)[0]
    return {"success": [row["max_mim"], row["max_pgd"], row["basic_saga"], row["auto_saga"]]}


def _train(state: State, seed: int, ledger: Ledger) -> dict:
    neuron = NeuronConfig(leak=0.9, threshold=1.0, reset="hard_zero")
    runs = {
        "snn": lambda: train.train_epochs(
            build_snn_mlp([784, 128, 10], T=8, seed=seed, neuron=neuron, surrogate=ARCTAN),
            state.x, state.y, epochs=1, seed=seed, spec=ARCTAN, verbose=False).as_dict(),
        "attention": lambda: train.train_epochs(
            TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                             n_heads=2, seed=seed),
            state.x, state.y, epochs=1, seed=seed, verbose=False).as_dict(),
        "converted": lambda: convert.fine_tune(
            copy.deepcopy(state.models["converted"]), state.x, state.y, epochs=1,
            spec=ARCTAN, seed=seed, verbose=False)["history"],
    }
    losses, accs = [], []
    for name, run in runs.items():
        t0 = time.perf_counter()
        try:
            history = run()
        except Exception as exc:
            ledger.fail(f"{name} training raised {type(exc).__name__}: {exc}")
            continue
        seconds = time.perf_counter() - t0
        loss = history["train_loss"][-1]
        if not np.isfinite(loss):
            ledger.fail(f"{name} training loss is not finite")
            continue
        ledger.ok(len(state.y), seconds)
        losses.append(loss)
        accs.append(history["train_acc"][-1])
    return {"train_loss": losses, "train_acc": accs}


PASSES = {"sweep": _sweep, "transfer": _transfer, "blend": _blend, "train": _train}


def true_class_prob(adversarial: list) -> float:
    """Mean softmax probability of the true class on the adversarial batches:
    over each batch's samples and attacked models, then over the batches."""
    per_batch = []
    for models, x_adv, labels in adversarial:
        rows = np.arange(len(labels))
        per_batch.append(np.mean([
            numerics.softmax(np.asarray(model.forward(x_adv), dtype=np.float64))[rows, labels]
            for model in models]))
    return float(np.mean(per_batch))


def objective(detail: dict, adversarial: list) -> float:
    """True-class probability left after the attacks, or the training error
    after the timed epochs."""
    if "success" in detail:
        return true_class_prob(adversarial)
    return 1.0 - float(np.mean(detail["train_acc"]))


@dataclass
class PassResult:
    wall_s: float
    detail: dict | None


def run_pass(workload: str, state: State, seed: int, ledger: Ledger) -> PassResult:
    t0 = time.perf_counter()
    try:
        detail = PASSES[workload](state, seed, ledger)
    except Exception as exc:
        if not getattr(exc, "perfbench_counted", False):
            ledger.fail(f"{workload} raised {type(exc).__name__}: {exc}")
        detail = None
    return PassResult(time.perf_counter() - t0, detail)


# -- runs --------------------------------------------------------------------

@dataclass
class RunOutput:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                 # name -> (value, unit)
    detail: dict
    failures: list
    spans: list = field(default_factory=list)


def _checked_attacks(ledger: Ledger):
    return tracing.patched([(attacks, name, _attack_checker(name, attacks.__dict__[name], ledger))
                            for name in ATTACK_FUNCS])


def _attack_log(handler: CollapseCounter):
    """Send the ``snnadv.attacks`` log records to ``handler`` alone, which also
    keeps the collapse warnings off stderr."""
    log = logging.getLogger(attacks.__name__)
    return tracing.patched([(log, "handlers", [handler]), (log, "propagate", False)])


def _outcome_failures(passes: list) -> list:
    """Every pass of one seed must give the same success cells or losses."""
    details = [p.detail for p in passes if p.detail is not None]
    if any(d != details[0] for d in details):
        return [f"outcome differs between passes of one seed: {details}"]
    return []


def _detail(result: PassResult) -> dict:
    """The pass's outcome in a few numbers, printed and stored with the run."""
    first = result.detail
    if first is None:
        return {}
    if "success" in first:
        return {"success_rate": float(np.mean(first["success"])),
                "cells": len(first["success"])}
    return {"train_loss": float(np.mean(first["train_loss"])),
            "train_acc": float(np.mean(first["train_acc"]))}


def _timed_setups(workload: str, seed: int, repeats: int, times: list) -> State:
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = setup(workload, seed)
        times.append(time.perf_counter() - t0)
    return state


def run_untraced(workload: str, seed: int) -> RunOutput:
    """End-to-end metrics with tracing off, from one pass."""
    setup_times = []
    state = _timed_setups(workload, seed, SETUP_REPEATS // 2, setup_times)
    ledger = Ledger()
    with _checked_attacks(ledger), _attack_log(CollapseCounter()):
        result = run_pass(workload, state, seed, ledger)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = result.detail is not None and not ledger.failures
    detail = _detail(result)
    detail["error_rate"] = len(ledger.failures) / ledger.attempted
    metrics = {
        "wall_s": result.wall_s if ok else float("nan"),
        "sample_steps_per_s": (ledger.sample_steps / ledger.op_seconds
                               if ledger.op_seconds else float("nan")),
        "objective": objective(result.detail, ledger.adversarial) if ok else float("nan"),
        "peak_rss_mb": peak_rss_mb,
    }
    del state
    ledger.adversarial.clear()
    _timed_setups(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2, setup_times)
    metrics = {"setup_s": statistics.median(setup_times), **metrics}
    return RunOutput(correct=ok and all(np.isfinite(v) for v in metrics.values()),
                     attempted=ledger.attempted, failed=len(ledger.failures),
                     metrics={k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
                     detail=detail, failures=ledger.failures)


# -- per-layer metrics ---------------------------------------------------------

# span name -> per-layer self-time metric; every span name the tracer can
# record appears here, so the self times and the unattributed remainder add
# up to the traced total
SELF_TIME_METRICS = {
    "dynamics.forward": "dynamics.forward_s",
    "dynamics.backward": "dynamics.backward_s",
    "surrogate.grad": "surrogate.grad_s",
    "attention.forward": "attention.forward_s",
    "attention.backward": "attention.backward_s",
    "attention.rollout": "attention.rollout_s",
    "attention.layernorm": "attention.layernorm_s",
    "ann.forward": "ann.forward_s",
    "ann.backward": "ann.backward_s",
    "numerics.softmax": "numerics.softmax_s",
    "numerics.xent": "numerics.xent_s",
    **{name: "attacks.self_s" for name in tracing.ATTACK_LOOPS},
    "attacks.project": "attacks.project_s",
    "attacks.margin": "attacks.margin_s",
    "harness.select": "harness.select_s",
    "harness.verify": "harness.verify_s",
    "harness.orchestrate": "harness.self_s",
    "train.loop": "train.loop_s",
    "train.evaluate": "train.evaluate_s",
    "train.step": "train.step_s",
    "checkpoint.load": "checkpoint.load_s",
    "data.synth": "data.synth_s",
}
COUNT_METRICS = {
    "dynamics.forward_calls": ("dynamics.forward",),
    "dynamics.backward_calls": ("dynamics.backward",),
    "surrogate.grad_calls": ("surrogate.grad",),
    "attention.forward_calls": ("attention.forward",),
    "attention.backward_calls": ("attention.backward",),
    "attention.rollout_calls": ("attention.rollout",),
    "harness.attack_runs": tracing.ATTACK_LOOPS,
    "harness.verify_calls": ("harness.verify",),
    "train.batches": ("train.step",),
}
# inclusive per-call medians at the pinned batch of 200
PER_CALL_METRICS = {
    "dynamics.forward_ms": "dynamics.forward",
    "dynamics.backward_ms": "dynamics.backward",
    "attention.forward_ms": "attention.forward",
    "attention.backward_ms": "attention.backward",
    "attention.rollout_ms": "attention.rollout",
    "ann.forward_ms": "ann.forward",
    "ann.backward_ms": "ann.backward",
}
ROOTS = ("setup", "workload")


def layer_metrics(spans: list, tracer: tracing.Tracer, collapse_count: int) -> dict:
    """Per-layer metrics from a finished traced run, name -> (value, unit)."""
    selfs = tracing.self_times(spans)
    out = {name: (0.0, "s") for name in dict.fromkeys(SELF_TIME_METRICS.values())}
    for span_name, (seconds, _) in selfs.items():
        if span_name in SELF_TIME_METRICS:
            metric = SELF_TIME_METRICS[span_name]
            out[metric] = (out[metric][0] + seconds, "s")
    for metric, names in COUNT_METRICS.items():
        out[metric] = (sum(selfs.get(n, (0.0, 0))[1] for n in names), "count")
    for metric, name in PER_CALL_METRICS.items():
        out[metric] = (tracing.per_call_ms(spans, name, N_EVAL), "ms")
    out["attacks.grad_evals"] = (tracer.grad_evals, "count")
    out["attacks.zero_grad_frac"] = (tracer.grad_zeros / tracer.grad_entries
                                     if tracer.grad_entries else 0.0, "ratio")
    out["attacks.collapse_count"] = (collapse_count, "count")
    setup_root, workload_root = (s for s in spans if s[3] < 0)
    out["trace.setup_s"] = (setup_root[2] - setup_root[1], "s")
    out["trace.wall_s"] = (workload_root[2] - workload_root[1], "s")
    out["trace.total_s"] = (out["trace.setup_s"][0] + out["trace.wall_s"][0], "s")
    out["trace.unattributed_s"] = (sum(selfs[name][0] for name in ROOTS), "s")
    return out


def attribution_gap(metrics: dict) -> float:
    """|sum of self times + unattributed - traced total|, in seconds."""
    attributed = sum(metrics[m][0] for m in dict.fromkeys(SELF_TIME_METRICS.values()))
    return abs(attributed + metrics["trace.unattributed_s"][0] - metrics["trace.total_s"][0])


def run_traced(workload: str, seed: int) -> RunOutput:
    """Per-layer metrics: one untraced set-up and pass (which also warms up),
    then the same traced. ``trace.overhead_s`` is traced minus untraced wall
    time, so it also carries the untraced pass's warm-up and the machine's
    drift between the passes; ``trace.bookkeeping_s`` is the tracer's own
    estimated cost."""
    ledger = Ledger()
    with _checked_attacks(ledger), _attack_log(CollapseCounter()):
        state = setup(workload, seed)
        untraced = run_pass(workload, state, seed, ledger)
    del state
    tracer = tracing.Tracer()
    collapses = CollapseCounter()
    traced_ledger = Ledger()
    with tracing.instrument(tracer), _checked_attacks(traced_ledger), _attack_log(collapses):
        with tracer.span("setup"):
            state = setup(workload, seed)
        with tracer.span("workload"):
            traced = run_pass(workload, state, seed, traced_ledger)
    metrics = layer_metrics(tracer.spans, tracer, collapses.count)
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    metrics["trace.bookkeeping_s"] = (tracer.bookkeeping_s(), "s")
    failures = ledger.failures + traced_ledger.failures + _outcome_failures([untraced, traced])
    gap = attribution_gap(metrics)
    if gap > 1e-6 * max(1.0, metrics["trace.total_s"][0]):
        failures.append(f"self times miss the traced total by {gap:.3g} s")
    detail = _detail(traced)
    attempted = ledger.attempted + traced_ledger.attempted
    failed = len(ledger.failures) + len(traced_ledger.failures)
    detail["error_rate"] = failed / attempted
    return RunOutput(correct=not failures, attempted=attempted, failed=failed,
                     metrics=metrics, detail=detail, failures=failures, spans=tracer.spans)


# -- provenance ----------------------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "snnadv").glob("*.py")) + sorted(FIXTURES.glob("*.snnm")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }
