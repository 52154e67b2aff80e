"""Experiment orchestration: balanced evaluation-set selection, pairwise
transferability matrices, the surrogate-kernel robustness sweep, and the
four-column multi-model attack comparison.

Every evaluation set contains only samples that all models under test
classify correctly, with class counts differing by at most one. A set is
its dataset indices into the arrays it was drawn from, not a copy of their
rows: each read of its ``x`` or ``y`` gathers its rows, so code here that
uses them more than once reads them once. Nothing in the package writes
into those arrays, and a caller must not while a set is in use. A set is
re-verified: by ``transferability`` against the generator and each target
before its one run (so ``transfer_matrix`` verifies every pair set once per
generator and attack kind), by ``multi_model_comparison`` before each run,
and by ``surrogate_sweep`` once, as its kernel views share the weights.
Every attack starts through ``attacks.run_attack`` with dataset indices.
All runs are deterministic under a fixed seed, which is recorded alongside
the outputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import attacks
from .attacks import AttackConfig, AttackReport
from .errors import ConfigError, SelectionError
from .surrogate import SurrogateSpec


@dataclass
class EvalSet:
    """Dataset indices into ``source_x`` and ``source_y``, the arrays the set
    was drawn from. The set keeps no copy of its rows: ``x`` and ``y`` gather
    them on each read, so the sources must not be written while it is in use."""
    indices: np.ndarray        # positions in the source dataset
    source_x: np.ndarray
    source_y: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.source_x[self.indices]

    @property
    def y(self) -> np.ndarray:
        return self.source_y[self.indices]

    def verify(self, models: Sequence) -> None:
        """Re-check the all-correct precondition before an attack run."""
        x, y = self.x, self.y
        for i, model in enumerate(models):
            pred = model.predict(x)
            if not np.all(pred == y):
                raise SelectionError(f"evaluation set no longer all-correct for model {i}")


def select_eval_set(models: Sequence, x: np.ndarray, y: np.ndarray, n: int, *,
                    seed: int = 0) -> EvalSet:
    """Randomly pick n class-balanced samples that every model classifies
    correctly. Fails loudly, naming the starved classes, when the data cannot
    supply the per-class quota. The set holds their indices into ``x`` and
    ``y``, not a copy of their rows."""
    y = np.asarray(y)
    correct = np.all([model.predict(x) == y for model in models], axis=0)
    return _draw_eval_set(correct, x, y, n, max(m.n_classes for m in models), seed)


def _draw_eval_set(correct: np.ndarray, x: np.ndarray, y: np.ndarray, n: int,
                   n_classes: int, seed: int) -> EvalSet:
    """``select_eval_set`` from ``correct``, the mask of the samples that
    every model under test classifies correctly."""
    c = int(n_classes)
    base, extra = divmod(n, c)
    quotas = [base + (1 if cls < extra else 0) for cls in range(c)]
    rng = np.random.default_rng(seed)
    chosen = []
    starved = []
    for cls, quota in enumerate(quotas):
        pool = np.flatnonzero(correct & (y == cls))
        if pool.size < quota:
            starved.append((cls, int(pool.size), quota))
            continue
        chosen.append(rng.choice(pool, size=quota, replace=False))
    if starved:
        detail = "; ".join(f"class {cls}: have {have}, need {need}"
                           for cls, have, need in starved)
        raise SelectionError(f"not enough correctly classified samples ({detail})")
    indices = np.sort(np.concatenate(chosen))
    return EvalSet(indices=indices, source_x=x, source_y=y)


def transferability(gen_model, targets: Sequence, evalsets: Sequence[EvalSet], kind: str,
                    cfg: AttackConfig) -> list:
    """Per target, the fraction of its evaluation set that it misclassifies
    once ``kind`` has attacked ``gen_model`` on that set.

    The sets must all index the same ``x`` and ``y`` arrays, since their
    indices key the union; sets over other arrays are refused before any
    run. Each set is re-verified against the generator and its target. The
    generator is then attacked once, on the rows of the sorted union of the
    sets' dataset indices, gathered straight from the arrays they index,
    and each target is scored on its own rows. The attacks are
    batch-invariant (see ``attacks``), so each rate equals attacking its
    set alone."""
    if len({(id(evalset.source_x), id(evalset.source_y)) for evalset in evalsets}) > 1:
        raise SelectionError("evaluation sets index different arrays")
    for target, evalset in zip(targets, evalsets, strict=True):
        evalset.verify([gen_model, target])
    union = np.unique(np.concatenate([evalset.indices for evalset in evalsets]))
    x, y = evalsets[0].source_x[union], evalsets[0].source_y[union]
    x_adv = attacks.run_attack(kind, [gen_model], x, y, cfg, index=union)
    return [float(np.mean(target.predict(x_adv[np.searchsorted(union, evalset.indices)])
                          != evalset.y))
            for target, evalset in zip(targets, evalsets)]


@dataclass
class TransferMatrix:
    names: list
    n: int
    per_attack: dict           # attack name -> [M, M] array

    @property
    def max_matrix(self) -> np.ndarray:
        """The elementwise max across attacks."""
        return np.max(np.stack(list(self.per_attack.values())), axis=0)

    def write_csv(self, out_dir: Path) -> list:
        paths = []
        for attack_name, matrix in {**self.per_attack, "max": self.max_matrix}.items():
            rows = [[name] + [f"{v:.6f}" for v in row] for name, row in zip(self.names, matrix)]
            paths.append(_write_rows(Path(out_dir) / f"transfer_{attack_name}.csv",
                                     ["generator"] + self.names, rows))
        return paths

    def as_dict(self) -> dict:
        return {"models": self.names, "n": self.n,
                "per_attack": {k: v.tolist() for k, v in self.per_attack.items()},
                "max": self.max_matrix.tolist()}


def transfer_matrix(models: Sequence, names: Sequence[str], x: np.ndarray, y: np.ndarray,
                    n: int, cfg: AttackConfig,
                    attack_names: Sequence[str] = ("fgsm", "pgd", "mim"),
                    seed: int = 0) -> TransferMatrix:
    """All-pairs transferability, one evaluation set per model pair, plus the
    elementwise max across attacks.

    Row i of each matrix is one ``transferability`` run of generator i
    against every model on its pair sets: M x A attack runs instead of
    M^2 x A."""
    if not attack_names:
        raise ConfigError("transfer matrix needs at least one attack kind")
    m = len(models)
    if len(names) != m:
        raise ConfigError(f"{len(names)} names for {m} models")
    y = np.asarray(y)
    # one prediction pass per model; each pair's mask is the AND of two
    correct = [model.predict(x) == y for model in models]
    evalsets = {(i, j): _draw_eval_set(correct[i] & correct[j], x, y, n,
                                       max(models[i].n_classes, models[j].n_classes), seed)
                for i in range(m) for j in range(i, m)}
    per_attack = {
        attack_name: np.array([
            transferability(models[i], models,
                            [evalsets[min(i, j), max(i, j)] for j in range(m)],
                            attack_name, cfg)
            for i in range(m)])
        for attack_name in attack_names}
    return TransferMatrix(names=list(names), n=n, per_attack=per_attack)


@dataclass
class SweepGrid:
    kinds: list
    eps_values: list
    still_correct: np.ndarray     # [kinds, eps, n] bool, in the evaluation set's row order

    @property
    def robust_accuracy(self) -> np.ndarray:
        """[kinds, eps]: the share of samples still classified correctly."""
        return self.still_correct.mean(axis=-1)

    @property
    def success_rate(self) -> np.ndarray:
        return 1.0 - self.robust_accuracy

    def write_csv(self, path: Path) -> Path:
        header = (["surrogate"] + [f"eps={e:g}" for e in self.eps_values]
                  + [f"success_eps={e:g}" for e in self.eps_values])
        rows = [[kind] + [f"{v:.6f}" for v in acc_row] + [f"{v:.6f}" for v in suc_row]
                for kind, acc_row, suc_row in zip(self.kinds, self.robust_accuracy,
                                                  self.success_rate)]
        return _write_rows(path, header, rows)

    def as_dict(self) -> dict:
        return {"surrogates": self.kinds, "eps": list(self.eps_values),
                "robust_accuracy": self.robust_accuracy.tolist(),
                "success_rate": self.success_rate.tolist()}


def sweep_columns(eps_values: Sequence[float], specs: Sequence, cfg: AttackConfig) -> list:
    """The sweep grid's one check: each eps column's PGD settings from ``cfg``,
    None for a zero budget (no attack: the column scores the clean inputs)."""
    if not specs or not eps_values:
        raise ConfigError("surrogate sweep needs at least one kernel and one eps")
    return [replace(cfg, eps_max=float(eps), eps_step=min(cfg.eps_step, eps / 4.0))
            if eps else None for eps in eps_values]


def surrogate_sweep(snn, eps_values: Sequence[float], specs: Sequence[SurrogateSpec],
                    evalset: EvalSet, cfg: AttackConfig) -> SweepGrid:
    """Per-sample PGD outcomes over a (kernel, eps) grid.

    Each kernel attacks a ``snn.with_surrogate`` view that shares the weights,
    so ``snn`` never changes. ``sweep_columns`` checks the whole grid before
    the first attack. Each eps restarts from the clean inputs. Robust accuracy
    and its complement derive from the outcomes; tables in this area mix the two.
    """
    columns = sweep_columns(eps_values, specs, cfg)
    evalset.verify([snn])
    x, y = evalset.x, evalset.y
    still_correct = np.zeros((len(specs), len(eps_values), len(y)), dtype=bool)
    for si, spec in enumerate(specs):
        view = snn.with_surrogate(spec)
        for ei, cfg_eps in enumerate(columns):
            x_adv = x if cfg_eps is None else attacks.run_attack(
                "pgd", [view], x, y, cfg_eps, index=evalset.indices)
            still_correct[si, ei] = view.predict(x_adv) == y
    return SweepGrid(kinds=[s.kind for s in specs], eps_values=list(eps_values),
                     still_correct=still_correct)


def multi_model_comparison(pairs: Sequence[tuple], x: np.ndarray, y: np.ndarray, n: int,
                           single_cfg: AttackConfig, saga_cfg: AttackConfig,
                           seed: int = 0, pair_names: Optional[Sequence] = None) -> list:
    """Joint-success table per model pair: best single MIM, best single PGD,
    the fixed blend SAGA and the self-tuning blend Auto-SAGA. Both blends take
    ``saga_cfg``, whose ``alphas`` are SAGA's coefficients and Auto-SAGA's
    start (uniform when None).

    Each pair's 2M + 2 runs (MIM then PGD per model, then SAGA, then
    Auto-SAGA) go through ``attacks.run_attack`` on the pair's evaluation set,
    which is re-verified before each run."""
    if pair_names and len(pair_names) != len(pairs):
        raise ConfigError(f"{len(pair_names)} pair names for {len(pairs)} pairs")
    rows = []
    for pi, pair in enumerate(pairs):
        models = list(pair)
        evalset = select_eval_set(models, x, y, n, seed=seed)
        x_set, y_set = evalset.x, evalset.y

        def joint(kind, attacked, cfg):
            evalset.verify(models)
            x_adv = attacks.run_attack(kind, attacked, x_set, y_set, cfg,
                                       index=evalset.indices)
            return AttackReport.build(models, x_set, x_adv, y_set,
                                      iterations=cfg.n_iter).joint_rate

        mims, pgds = zip(*[(joint("mim", [m], single_cfg), joint("pgd", [m], single_cfg))
                           for m in models])
        basic = joint("saga", models, saga_cfg)
        auto = joint("autosaga", models, saga_cfg)
        name = pair_names[pi] if pair_names else f"pair{pi}"
        rows.append({"pair": name, "max_mim": max(mims), "max_pgd": max(pgds),
                     "basic_saga": basic, "auto_saga": auto, "n": n})
    return rows


def write_comparison_csv(rows: list, path: Path) -> Path:
    return _write_rows(path, ["pair", "max_mim", "max_pgd", "basic_saga", "auto_saga", "n"],
                       [[row["pair"], f"{row['max_mim']:.6f}", f"{row['max_pgd']:.6f}",
                         f"{row['basic_saga']:.6f}", f"{row['auto_saga']:.6f}", row["n"]]
                        for row in rows])


def _write_rows(path: Path, header: list, rows: list) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_json(payload: dict, path: Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
