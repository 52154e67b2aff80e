"""Experiment orchestration: balanced evaluation-set selection, pairwise
transferability matrices, the surrogate-kernel robustness sweep, and the
four-column multi-model attack comparison.

Every evaluation set contains only samples that all models under test
classify correctly, with class counts differing by at most one; that
precondition is re-verified before each attack run. All runs are
deterministic under a fixed seed, which is recorded alongside the outputs.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import attacks
from .attacks import AttackConfig
from .errors import SelectionError
from .surrogate import SurrogateSpec


@dataclass
class EvalSet:
    indices: np.ndarray        # positions in the source dataset
    x: np.ndarray
    y: np.ndarray
    class_counts: np.ndarray

    def verify(self, models: Sequence) -> None:
        """Re-check the all-correct precondition before an attack run."""
        for i, model in enumerate(models):
            pred = model.predict(self.x)
            if not np.all(pred == self.y):
                raise SelectionError(f"evaluation set no longer all-correct for model {i}")


def select_eval_set(models: Sequence, x: np.ndarray, y: np.ndarray, n: int, *,
                    seed: int = 0) -> EvalSet:
    """Randomly pick n class-balanced samples that every model classifies
    correctly. Fails loudly, naming the starved classes, when the data cannot
    supply the per-class quota."""
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
    indices = np.sort(np.concatenate(chosen)) if chosen else np.array([], dtype=int)
    counts = np.bincount(y[indices], minlength=c)
    return EvalSet(indices=indices, x=x[indices], y=y[indices], class_counts=counts)


def transferability(gen_model, eval_model, attack_fn: Callable, evalset: EvalSet) -> float:
    """Fraction of adversarial examples crafted on gen_model that eval_model
    misclassifies. The evaluation set guarantees clean correctness."""
    evalset.verify([gen_model, eval_model])
    x_adv = attack_fn(gen_model, evalset.x, evalset.y)
    return float(np.mean(eval_model.predict(x_adv) != evalset.y))


@dataclass
class TransferMatrix:
    names: list
    n: int
    per_attack: dict           # attack name -> [M, M] array
    max_matrix: np.ndarray

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

    Each generator is attacked once per attack kind, on the sorted union of
    its pairs' evaluation sets, and each pair is scored on its own rows of
    the result. The attacks are batch-invariant (see ``attacks``), so every
    entry equals attacking that pair's set alone: M x A attack runs instead
    of M^2 x A."""
    m = len(models)
    names = list(names)
    y = np.asarray(y)
    # one prediction pass per model; each pair's mask is the AND of two
    correct = [model.predict(x) == y for model in models]
    evalsets = {}
    for i in range(m):
        for j in range(m):
            key = frozenset((i, j))
            if key not in evalsets:
                evalsets[key] = _draw_eval_set(
                    correct[i] & correct[j], x, y, n,
                    max(models[i].n_classes, models[j].n_classes), seed)

    per_attack = {}
    for attack_name in attack_names:
        matrix = np.zeros((m, m))
        for i in range(m):
            sets = [evalsets[frozenset((i, j))] for j in range(m)]
            for j, evalset in enumerate(sets):
                evalset.verify([models[i], models[j]])
            union = np.unique(np.concatenate([evalset.indices for evalset in sets]))
            x_adv = attacks.run_attack(attack_name, [models[i]], x[union], y[union], cfg,
                                       index=union)
            for j, evalset in enumerate(sets):
                rows = np.searchsorted(union, evalset.indices)
                matrix[i, j] = float(np.mean(models[j].predict(x_adv[rows]) != evalset.y))
        per_attack[attack_name] = matrix
    max_matrix = np.max(np.stack(list(per_attack.values())), axis=0)
    return TransferMatrix(names=names, n=n, per_attack=per_attack, max_matrix=max_matrix)


@dataclass
class SweepGrid:
    kinds: list
    eps_values: list
    robust_accuracy: np.ndarray   # [kinds, eps]
    success_rate: np.ndarray

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


def surrogate_sweep(snn, eps_values: Sequence[float], specs: Sequence[SurrogateSpec],
                    evalset: EvalSet, cfg: AttackConfig) -> SweepGrid:
    """PGD robust accuracy over a (kernel, eps) grid.

    The forward pass is untouched; only the backward kernel is swapped, on a
    shallow copy that shares the weights, so ``snn`` itself never changes.
    Each eps restarts the attack from the clean inputs. Both robust accuracy
    and its complement are reported, since tables in this area mix the two.
    """
    evalset.verify([snn])
    acc = np.zeros((len(specs), len(eps_values)))
    for si, spec in enumerate(specs):
        view = copy.copy(snn)
        view.surrogate = spec
        for ei, eps in enumerate(eps_values):
            if eps == 0.0:
                x_adv = evalset.x
            else:
                step = min(cfg.eps_step, eps / 4.0)
                cfg_eps = replace(cfg, eps_max=float(eps), eps_step=step)
                x_adv = attacks.run_attack("pgd", [view], evalset.x, evalset.y, cfg_eps,
                                           index=evalset.indices)
            acc[si, ei] = float(np.mean(view.predict(x_adv) == evalset.y))
    return SweepGrid(kinds=[s.kind for s in specs], eps_values=list(eps_values),
                     robust_accuracy=acc, success_rate=1.0 - acc)


def joint_success(models: Sequence, x_adv: np.ndarray, labels: np.ndarray) -> float:
    """Fraction misclassified by every model simultaneously."""
    flags = np.ones(len(labels), dtype=bool)
    for model in models:
        flags &= model.predict(x_adv) != labels
    return float(flags.mean())


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
    rows = []
    for pi, pair in enumerate(pairs):
        models = list(pair)
        evalset = select_eval_set(models, x, y, n, seed=seed)

        def joint(kind, attacked, cfg):
            evalset.verify(models)
            x_adv = attacks.run_attack(kind, attacked, evalset.x, evalset.y, cfg,
                                       index=evalset.indices)
            return joint_success(models, x_adv, evalset.y)

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
