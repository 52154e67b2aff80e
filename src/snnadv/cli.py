"""Command-line entry points.

Every run resolves its configuration (flags > environment > config file >
defaults), writes its artifacts (checkpoints, CSV/JSON reports) under the
output directory, and then echoes the configuration, seed included, there.
Errors exit nonzero with a single machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, config as cfgmod, convert as convertmod, data as datamod
from . import harness
from .ann import build_mlp
from .attacks import AttackConfig, AttackReport, attack_kind, blend_alphas, run_attack, steps_taken
from .attention import TinyAttentionNet
from .dynamics import READOUT_MEMBRANE, NeuronConfig, SpikingNet, build_snn_mlp
from .errors import ConfigError, SnnAdvError
from .surrogate import KINDS, SurrogateSpec
from .train import evaluate, make_optimizer, train_epochs

# command key -> AttackConfig field, for whichever of these keys a schema has:
# the field gives the key's default and receives its value
_ATTACK_FIELDS = {"eps": "eps_max", "eps-step": "eps_step", "steps": "n_iter", "mu": "mu",
                  "kappa": "kappa", "r": "coeff_lr", "u": "fit_u",
                  "random-start": "random_start", "seed": "seed"}


def _owned(owner, field: str) -> tuple:
    """The schema entry (type, default) of a setting whose default ``owner`` holds."""
    default = getattr(owner, field)
    return type(default), default


def _attack_keys(*keys) -> dict:
    return {key: _owned(AttackConfig, _ATTACK_FIELDS[key]) for key in keys}


_COMMON = {
    "out": (str, "run"),
    "seed": (int, 0),
    "data": (str, "auto"),       # auto | mnist | digits | blobs
    "n-train": (int, 10000),
    "n-test": (int, 2000),
}

_SURROGATE_KEYS = {f"surrogate-{name}": _owned(SurrogateSpec, name)
                   for name in ("sigma", "alpha", "beta")}

# the attack budget of attack, transfer-matrix and multi-attack
_BUDGET = {**_attack_keys("eps", "steps"), "n": (int, 200)}

_SCHEMAS = {
    "train": {
        **_COMMON,
        "kind": (str, "ann"),            # ann | snn | attention
        "arch": (str, "784-128-10"),
        "epochs": (int, 10),
        "lr": (float, 0.0),              # 0 keeps the optimizer's default
        "optimizer": (str, "auto"),      # auto | adam | sgd
        "batch-size": (int, 128),
        "surrogate": _owned(SurrogateSpec, "kind"),
        **_SURROGATE_KEYS,
        "timesteps": (int, 8),
        "readout": (str, READOUT_MEMBRANE),
        "reset": _owned(NeuronConfig, "reset"),
        "adapt-decay": (float, -1.0),    # < 0 disables adaptation
        "patch": (int, 4),
        "embed": (int, 32),
        "att-layers": (int, 2),
        "att-heads": (int, 2),
    },
    "convert": {
        **_COMMON,
        "ann": (str, ""),
        "mode": (str, convertmod.WEIGHT_BALANCE),
        "percentile": (float, 99.9),
        "n-calib": (int, 512),
        "timesteps": (int, 64),
        "surrogate": _owned(SurrogateSpec, "kind"),
        **_SURROGATE_KEYS,
        "fine-tune-epochs": (int, 1),
        "lr": (float, 1e-3),
        "batch-size": (int, 128),
    },
    "attack": {
        **_COMMON,
        "kind": (str, "pgd"),
        "models": (str, ""),
        **_BUDGET,
        **_attack_keys("eps-step", "mu", "kappa", "r", "u", "random-start"),
        "alphas": (str, ""),
        "surrogate": (str, ""),          # override the checkpoint's kernel
        **_SURROGATE_KEYS,
    },
    "sweep-surrogate": {
        **_COMMON,
        "model": (str, ""),
        "eps": (str, "0.0062,0.0124,0.0186,0.0248,0.031"),
        "surrogates": (str, ",".join(KINDS)),
        **_SURROGATE_KEYS,
        "steps": (int, 20),              # a grid cell takes fewer steps than an attack
        **_attack_keys("eps-step"),
        "n": (int, 200),
    },
    "transfer-matrix": {
        **_COMMON,
        "models": (str, ""),
        "attacks": (str, "fgsm,pgd,mim"),
        **_BUDGET,
        **_attack_keys("eps-step"),
    },
    "multi-attack": {
        **_COMMON,
        "pairs": (str, ""),
        **_BUDGET,
        "single-eps-step": _owned(AttackConfig, "eps_step"),
        "saga-eps-step": (float, 0.005),
        **_attack_keys("r", "u", "kappa"),
        "alphas": (str, ""),             # both blends' coefficients; uniform when empty
    },
}


class _Parser(argparse.ArgumentParser):
    """Refuses unknown flags, missing values and subcommands by ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    """Flags keep their values as text, which config._coerce parses like file values."""
    parser = _Parser(prog="snnadv", description="spiking-network adversarial toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="KEY=VALUE config file")
        for key, (typ, default) in schema.items():
            if typ is bool:
                group = p.add_mutually_exclusive_group()
                group.add_argument(f"--{key}", dest=key, action="store_const", const=True,
                                   default=None)
                group.add_argument(f"--no-{key}", dest=key, action="store_const", const=False,
                                   default=None)
            else:
                p.add_argument(f"--{key}", dest=key, default=None, help=f"default: {default}")
    ins = sub.add_parser("inspect")
    ins.add_argument("checkpoint")
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    flags = {key: getattr(args, key) for key in _SCHEMAS[command]}
    cfg = cfgmod.resolve_config(_SCHEMAS[command], config_file=args.config, flags=flags)
    if cfg["seed"] < 0:  # before anything seeded is built
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def _load_dataset(cfg: dict, scored: bool = False):
    """The run's data split; a ``scored`` run scores its model on the test set."""
    # the evaluation-set size and the calibration slice, where a command has them
    for key in ("n", "n-calib"):
        if cfg.get(key, 1) < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    if scored and cfg["n-test"] < 1:
        raise ConfigError(f"n-test must be >= 1 to score the model, got {cfg['n-test']}")
    return datamod.load_split(cfg["data"], cfg["n-train"], cfg["n-test"], seed=cfg["seed"])


def _surrogate_from(cfg: dict, kind: str | None = None) -> SurrogateSpec:
    return SurrogateSpec(kind=kind or cfg["surrogate"],
                         sigma=cfg["surrogate-sigma"],
                         alpha=cfg["surrogate-alpha"],
                         beta=cfg["surrogate-beta"])


def _attack_config(cfg: dict, kinds=(), **overrides) -> AttackConfig:
    """The settings ``cfg`` states for attacks of ``kinds``, which get
    run_attack's own check here, before any data is built."""
    for kind in kinds:
        attack_kind(kind)
    fields = {field: cfg[key] for key, field in _ATTACK_FIELDS.items() if key in cfg}
    return AttackConfig(**{**fields, **overrides})


def _numbers(key: str, text: str, typ=float, sep: str = ",") -> list:
    """Config value ``text`` as a ``sep``-separated list of ``typ``."""
    try:
        return [typ(part) for part in text.split(sep)]
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {text!r} as {typ.__name__} "
                          f"values separated by {sep!r}") from exc


def _alphas(cfg: dict) -> tuple | None:
    """The blend coefficients of ``alphas``, None when it is empty."""
    return tuple(_numbers("alphas", cfg["alphas"])) if cfg["alphas"] else None


def _parse_arch(arch: str) -> list:
    dims = _numbers("arch", arch, int, sep="-")
    if len(dims) < 2:
        raise ConfigError(f"arch needs at least two widths, got {arch!r}")
    return dims


def _portable(cfg: dict) -> dict:
    # checkpoint-embedded echo: identical bytes regardless of the target dir
    return {k: v for k, v in cfg.items() if k != "out"}


def _load_models(spec: str) -> tuple[list, list]:
    """The checkpoints of comma-separated ``spec`` and their report names:
    each file stem when the run's distinct paths have distinct stems, else
    each path as given without ``.snnm``, so that two ``model.snnm`` stay
    apart."""
    paths = [p for p in spec.split(",") if p]
    if not paths:
        raise ConfigError("no model checkpoints given")
    distinct = set(paths)
    if len({Path(p).stem for p in distinct}) == len(distinct):
        names = [Path(p).stem for p in paths]
    else:
        names = [p.removesuffix(".snnm") for p in paths]
    return [checkpoint.load_model(path)[0] for path in paths], names


def cmd_train(cfg: dict, out_dir: Path) -> None:
    dims = _parse_arch(cfg["arch"])
    kind = cfg["kind"]
    if kind not in ("ann", "snn", "attention"):
        raise ConfigError(f"unknown model kind {kind!r}")
    if kind == "attention" and cfg["data"] == "blobs":  # the one source without images
        raise ConfigError("attention models need image data")
    seed = cfg["seed"]
    optimizer = make_optimizer(kind, cfg["optimizer"], cfg["lr"])
    # the MLPs are built, so their settings checked, before the data
    if kind == "ann":
        model = build_mlp(dims, seed=seed)
    elif kind == "snn":
        adapt = None if cfg["adapt-decay"] < 0 else cfg["adapt-decay"]
        model = build_snn_mlp(dims, T=cfg["timesteps"], seed=seed,
                              neuron=NeuronConfig(reset=cfg["reset"], adapt_decay=adapt),
                              surrogate=_surrogate_from(cfg), readout=cfg["readout"])
    train_x, train_y, test_x, test_y, source = _load_dataset(cfg, scored=True)
    if kind == "attention":  # its image shape comes from the rows
        model = TinyAttentionNet(image_shape=train_x.shape[1:], patch=cfg["patch"],
                                 embed=cfg["embed"], n_layers=cfg["att-layers"],
                                 n_heads=cfg["att-heads"], seed=seed)
    history = train_epochs(model, train_x, train_y, epochs=cfg["epochs"],
                           optimizer=optimizer, seed=seed, batch_size=cfg["batch-size"],
                           test_x=test_x, test_y=test_y)
    checkpoint.save_model(out_dir / "model.snnm", model, seed=seed,
                          config_echo=_portable(cfg))
    harness.write_json({"source": source, **history.as_dict()}, out_dir / "history.json")
    print(f"saved {out_dir / 'model.snnm'}")


def cmd_convert(cfg: dict, out_dir: Path) -> None:
    if not cfg["ann"]:
        raise ConfigError("convert needs --ann checkpoint path")
    surrogate = _surrogate_from(cfg)
    ann, _ = checkpoint.load_model(cfg["ann"])
    train_x, train_y, test_x, test_y, source = _load_dataset(cfg, scored=True)
    calib = train_x[:cfg["n-calib"]]
    snn = convertmod.convert_ann_to_snn(ann, calib, mode=cfg["mode"],
                                        percentile=cfg["percentile"],
                                        T=cfg["timesteps"], surrogate=surrogate)
    report = convertmod.fine_tune(snn, train_x, train_y, epochs=cfg["fine-tune-epochs"],
                                  seed=cfg["seed"], lr=cfg["lr"],
                                  batch_size=cfg["batch-size"], test_x=test_x, test_y=test_y)
    report["source"] = source
    report["test_acc"] = evaluate(snn, test_x, test_y)
    checkpoint.save_model(out_dir / "converted.snnm", snn, seed=cfg["seed"],
                          config_echo=_portable(cfg))
    harness.write_json(report, out_dir / "convert_report.json")
    print(f"saved {out_dir / 'converted.snnm'} test_acc {report['test_acc']:.4f}")


def cmd_attack(cfg: dict, out_dir: Path) -> None:
    attack_cfg = _attack_config(cfg, [cfg["kind"]], alphas=_alphas(cfg))
    models, names = _load_models(cfg["models"])
    blend_alphas(attack_cfg.alphas, len(models))  # for every kind, before the data
    if cfg["surrogate"]:  # through views: the loaded nets keep their own kernels
        spec = _surrogate_from(cfg)
        models = [m.with_surrogate(spec) if isinstance(m, SpikingNet) else m for m in models]
    train_x, train_y, test_x, test_y, _ = _load_dataset(cfg)
    evalset = harness.select_eval_set(models, test_x, test_y, cfg["n"], seed=cfg["seed"])
    x_adv = run_attack(cfg["kind"], models, evalset.x, evalset.y, attack_cfg,
                       index=evalset.indices)
    report = AttackReport.build(models, evalset.x, x_adv, evalset.y,
                                iterations=steps_taken(cfg["kind"], attack_cfg), names=names)
    harness.write_json(report.as_dict(), out_dir / "attack_report.json")
    rates = " ".join(f"{name}={rate:.3f}" for name, rate in
                     zip(names, report.per_model_rate))
    print(f"{cfg['kind']} success: {rates} joint={report.joint_rate:.3f}")


def cmd_sweep_surrogate(cfg: dict, out_dir: Path) -> None:
    eps_values = _numbers("eps", cfg["eps"])
    specs = [_surrogate_from(cfg, kind=k) for k in cfg["surrogates"].split(",") if k]
    if not cfg["model"]:
        raise ConfigError("sweep needs --model checkpoint path")
    # eps_max placeholder; the sweep rebuilds the config per grid column
    attack_cfg = _attack_config(cfg, eps_max=1.0)
    harness.sweep_columns(eps_values, specs, attack_cfg)
    model, _ = checkpoint.load_model(cfg["model"])
    if not isinstance(model, SpikingNet):
        raise ConfigError("surrogate sweep expects a spiking checkpoint")
    train_x, train_y, test_x, test_y, _ = _load_dataset(cfg)
    evalset = harness.select_eval_set([model], test_x, test_y, cfg["n"], seed=cfg["seed"])
    grid = harness.surrogate_sweep(model, eps_values, specs, evalset, attack_cfg)
    grid.write_csv(out_dir / "sweep.csv")
    harness.write_json(grid.as_dict(), out_dir / "sweep.json")
    print(f"wrote {out_dir / 'sweep.csv'}")


def cmd_transfer_matrix(cfg: dict, out_dir: Path) -> None:
    kinds = harness.attack_kinds([a.strip() for a in cfg["attacks"].split(",") if a.strip()])
    attack_cfg = _attack_config(cfg)
    models, names = _load_models(cfg["models"])
    train_x, train_y, test_x, test_y, _ = _load_dataset(cfg)
    matrix = harness.transfer_matrix(models, names, test_x, test_y, cfg["n"], attack_cfg,
                                     attack_names=kinds, seed=cfg["seed"])
    matrix.write_csv(out_dir)
    harness.write_json(matrix.as_dict(), out_dir / "transfer.json")
    print(f"wrote transfer matrices under {out_dir}")


def cmd_multi_attack(cfg: dict, out_dir: Path) -> None:
    if not cfg["pairs"]:
        raise ConfigError("multi-attack needs --pairs a.snnm:b.snnm[,c:d]")
    paths = []
    for pair_spec in cfg["pairs"].split(","):
        parts = [p for p in pair_spec.split(":") if p]
        if len(parts) != 2:
            raise ConfigError(f"bad pair spec {pair_spec!r}")
        paths += parts
    single_cfg = _attack_config(cfg, eps_step=cfg["single-eps-step"])
    saga_cfg = _attack_config(cfg, eps_step=cfg["saga-eps-step"], alphas=_alphas(cfg))
    blend_alphas(saga_cfg.alphas, 2)
    models, model_names = _load_models(",".join(paths))
    pairs = list(zip(models[::2], models[1::2]))
    names = [f"{a}+{b}" for a, b in zip(model_names[::2], model_names[1::2])]
    train_x, train_y, test_x, test_y, _ = _load_dataset(cfg)
    rows = harness.multi_model_comparison(pairs, test_x, test_y, cfg["n"], single_cfg,
                                          saga_cfg, seed=cfg["seed"], pair_names=names)
    harness.write_comparison_csv(rows, out_dir / "comparison.csv")
    harness.write_json({"rows": rows}, out_dir / "comparison.json")
    for row in rows:
        print(f"{row['pair']}:", *(f"{c}={row[c]:.3f}" for c in harness.COMPARISON_COLUMNS))


def cmd_inspect(path: str) -> int:
    model, meta = checkpoint.load_model(path)
    print(f"kind: {meta['kind']}")
    print(f"seed: {meta['seed']}")
    print(f"arch: {json.dumps(meta['arch'], sort_keys=True)}")
    ok = True
    for name, p in model.params():
        finite = bool(np.all(np.isfinite(p)))
        ok &= finite
        print(f"tensor {name}: shape {tuple(p.shape)} dtype {p.dtype} "
              f"finite {'yes' if finite else 'NO'}")
    print(f"invariants: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "inspect":
            return cmd_inspect(args.checkpoint)
        cfg = _resolve(args.command, args)
        handler = {
            "train": cmd_train,
            "convert": cmd_convert,
            "attack": cmd_attack,
            "sweep-surrogate": cmd_sweep_surrogate,
            "transfer-matrix": cmd_transfer_matrix,
            "multi-attack": cmd_multi_attack,
        }[args.command]
        out_dir = Path(cfg["out"])
        handler(cfg, out_dir)
        # written last: a run directory that holds config.txt holds a complete run
        cfgmod.write_config_echo(out_dir, cfg)
        return 0
    except (SnnAdvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
