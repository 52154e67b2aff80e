"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 assert directional desk-scale reproductions whose stated
margins do not materialize at the pinned scale (analysis in the project
notes); they run faithfully as stated and are expected to fail honestly.
"""

import time
import zlib

import numpy as np

from snnadv import checkpoint, numerics
from snnadv.ann import build_cnn, build_mlp
from snnadv.attacks import AttackConfig, auto_saga, fgsm, loss_input_grad, mim, pgd, project, saga
from snnadv.attention import TinyAttentionNet, rollout_matrix
from snnadv.cli import main as cli_main
from snnadv.data import synth_digits
from snnadv.dynamics import (NeuronConfig, SynapseConfig, build_snn_mlp,
                             step_adaptive, step_lif_hard, step_lif_soft, synapse_filter)
from snnadv.errors import FormatError
from snnadv.harness import (multi_model_comparison, select_eval_set,
                            surrogate_sweep, transferability)
from snnadv.surrogate import KINDS, SurrogateSpec, surrogate_grad
from snnadv.train import evaluate

from oracles import (finite_difference_grad, load_idx_images, max_rel_err, ones_mask,
                     relaxed, save_idx_images)

ARCTAN = SurrogateSpec(kind="arctan")


def report(criterion: str, ok: bool, detail: str, elapsed: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.1f}s) {detail}")
    return ok


# -- criterion 1: gradient oracle suite ------------------------------------


def _ce_loss_fn(net, y):
    return lambda xv: numerics.softmax_cross_entropy(net.forward(xv), y)[0]


def _input_grad(net, x, y):
    logits, cache = net.forward_cached(x)
    _, dlogits = numerics.softmax_cross_entropy(logits, y)
    return net.backward(cache, dlogits).reshape(np.asarray(x).shape)


def _random_dense(rng, dtype):
    dims = [int(rng.integers(3, 7)), int(rng.integers(4, 9)), int(rng.integers(2, 5))]
    net = build_mlp(dims, seed=int(rng.integers(2**31))).astype(dtype)
    x = rng.uniform(0.0, 1.0, size=(2, dims[0]))
    y = rng.integers(0, dims[-1], size=2)
    return net, x, y


def _random_conv(rng, dtype):
    net = build_cnn((1, 6, 6), [int(rng.integers(2, 4))], int(rng.integers(6, 10)),
                    3, seed=int(rng.integers(2**31))).astype(dtype)
    x = rng.uniform(0.0, 1.0, size=(2, 1, 6, 6))
    y = rng.integers(0, 3, size=2)
    return net, x, y


def _random_attention(rng, dtype):
    net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8,
                           n_layers=int(rng.integers(1, 3)), n_heads=int(rng.integers(1, 3)),
                           n_classes=3, ffn_hidden=10,
                           seed=int(rng.integers(2**31))).astype(dtype)
    x = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    y = rng.integers(0, 3, size=2)
    return net, x, y


def _random_relaxed_snn(rng, dtype):
    kind = ("sigmoid", "arctan", "erfc")[int(rng.integers(3))]
    reset = ("hard_zero", "soft_subtract")[int(rng.integers(2))]
    adapt = (None, 0.5)[int(rng.integers(2))]
    synapse = (SynapseConfig(), SynapseConfig(alphas=(0.4,), betas=(1.0, 0.3)))[
        int(rng.integers(2))]
    readout = ("membrane", "spike_count")[int(rng.integers(2))]
    dims = [int(rng.integers(3, 6)), int(rng.integers(4, 8)), 3]
    net = relaxed(build_snn_mlp(dims, T=3, seed=int(rng.integers(2**31)),
                                neuron=NeuronConfig(leak=float(rng.uniform(0.5, 1.0)),
                                                    threshold=1.0, reset=reset,
                                                    adapt_decay=adapt),
                                synapse=synapse, surrogate=SurrogateSpec(kind=kind),
                                readout=readout, dtype=dtype))
    x = rng.uniform(0.2, 1.5, size=(2, dims[0]))
    y = rng.integers(0, 3, size=2)
    return net, x, y


def test_criterion_1_gradient_oracles():
    # the FD oracle always runs on the 64-bit net (FD through a 32-bit forward
    # is unreliable); the 1e-3 tolerance covers the float32 analytic backward
    t0 = time.perf_counter()
    families = {"dense": _random_dense, "conv": _random_conv,
                "attention": _random_attention, "bptt_relaxed": _random_relaxed_snn}
    worst = {}
    ok = True
    for name, make in families.items():
        errs = []
        # crc32, not hash(): string hashes are salted per process
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for case in range(50):
            net64, x, y = make(rng, np.float64)
            fd = finite_difference_grad(_ce_loss_fn(net64, y), x, h=1e-6)
            if case % 2 == 0:
                got, tol = _input_grad(net64, x, y), 1e-5
            else:
                net32 = net64.astype(np.float32)
                got, tol = _input_grad(net32, x.astype(np.float32), y), 1e-3
            err = max_rel_err(got, fd)
            errs.append((err, tol))
            ok &= err <= tol
        worst[name] = max(e / t for e, t in errs)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120
    detail = " ".join(f"{k}:worst_err/tol={v:.2e}" for k, v in worst.items())
    assert report("1 gradient-oracles", ok, detail, elapsed)


# -- criterion 2: surrogate kernel suite ------------------------------------


def test_criterion_2_kernel_suite():
    t0 = time.perf_counter()
    grid = np.linspace(-4.0, 6.0, 10_000)
    ok = True
    for kind in KINDS:
        spec = SurrogateSpec(kind=kind)
        vals = surrogate_grad(spec, grid)
        ok &= bool(np.all(vals >= 0.0))
        peak = surrogate_grad(spec, np.array([1.0]))[0]
        ok &= bool(peak >= vals.max() - 1e-9)
        d = np.linspace(0.0, 4.0, 5000)
        ok &= bool(np.allclose(surrogate_grad(spec, 1.0 + d),
                               surrogate_grad(spec, 1.0 - d), atol=1e-12))
    ok &= abs(surrogate_grad(SurrogateSpec(kind="sigmoid"), np.array([1.0]))[0] - 0.25) < 1e-9
    ok &= abs(surrogate_grad(SurrogateSpec(kind="arctan"), np.array([1.0]))[0] - 1.0) < 1e-9
    sigma = 0.4
    want = 1.0 / (np.sqrt(2 * np.pi) * sigma)
    ok &= abs(surrogate_grad(SurrogateSpec(kind="erfc", sigma=sigma),
                             np.array([1.0]))[0] - want) < 1e-9
    # forward invariance: identical spike trains under kernel swap
    net = build_snn_mlp([6, 10, 4], T=6, seed=0)
    x = np.random.default_rng(0).uniform(0, 1.3, (8, 6)).astype(np.float32)
    traces = []
    for kind in KINDS:
        net.surrogate = SurrogateSpec(kind=kind)
        logits, trace = net.forward_cached(x)
        traces.append((logits, [lt.o.copy() for lt in trace.layers]))
    base_logits, base_spikes = traces[0]
    for logits, spikes in traces[1:]:
        ok &= bool(np.array_equal(base_logits, logits))
        ok &= all(np.array_equal(a, b) for a, b in zip(base_spikes, spikes))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    assert report("2 kernel-suite", ok, f"{len(KINDS)} kernels over 10^4 grid", elapsed)


# -- criterion 3: attack algebra --------------------------------------------


def test_criterion_3_attack_algebra(blob_net, blob_data):
    t0 = time.perf_counter()
    x, y = blob_data
    ok = True
    cfg1 = AttackConfig(eps_max=0.1, eps_step=0.1, n_iter=1, random_start=False)
    ok &= bool(np.array_equal(fgsm(blob_net, x, y, 0.1), pgd(blob_net, x, y, cfg1)))
    steps = 5
    cfg = AttackConfig(eps_max=0.2, eps_step=0.04, n_iter=steps, mu=0.0)
    got = mim(blob_net, x, y, cfg)
    xi = np.clip(x, 0, 1)
    for _ in range(steps):
        _, g = loss_input_grad(blob_net, xi, y)
        xi = project(xi + (0.2 / steps) * np.sign(g).astype(x.dtype), x, 0.2)
    ok &= bool(np.array_equal(got, xi))
    cfg2 = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=6, random_start=False)
    ok &= bool(np.array_equal(saga([blob_net], x, y, cfg2),
                              pgd(blob_net, x, y, cfg2)))
    tr_a, tr_p = [], []
    auto_saga([blob_net], x, y, cfg2, trace=tr_a)
    pgd(blob_net, x, y, cfg2, trace=tr_p)
    ok &= all(np.array_equal(a, b) for a, b in zip(tr_a, tr_p))
    # projection invariant over 10^3 random configs
    rng = np.random.default_rng(123)
    xs, ys = x[:4], y[:4]
    for _ in range(1000):
        eps = float(rng.uniform(0.003, 0.8))
        cfg_f = AttackConfig(eps_max=eps,
                             eps_step=float(rng.uniform(0.2, 1.0)) * eps,
                             n_iter=int(rng.integers(1, 4)),
                             mu=float(rng.uniform(0.0, 1.5)),
                             seed=int(rng.integers(2**31)))
        kind = ("pgd", "mim", "saga")[int(rng.integers(3))]
        if kind == "pgd":
            adv = pgd(blob_net, xs, ys, cfg_f)
        elif kind == "mim":
            adv = mim(blob_net, xs, ys, cfg_f)
        else:
            adv = saga([blob_net], xs, ys, cfg_f)
        ok &= bool(np.max(np.abs(adv - xs)) <= eps + 1e-6)
        ok &= bool(adv.min() >= 0.0 and adv.max() <= 1.0)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 180
    assert report("3 attack-algebra", ok, "trace equalities + 1000-config fuzz", elapsed)


# -- criterion 4: surrogate-sweep directional reproduction -------------------


def test_criterion_4_surrogate_sweep_direction(bp_snn, digits):
    t0 = time.perf_counter()
    _, _, test_x, test_y = digits
    train_acc = bp_snn.history.train_acc[-1]
    trained_ok = train_acc >= 0.90 and len(bp_snn.history.epochs) <= 10
    es = select_eval_set([bp_snn], test_x, test_y, 200, seed=0)
    cfg = AttackConfig(eps_max=1.0, eps_step=0.05, n_iter=20, seed=0)
    grid = surrogate_sweep(bp_snn, [0.05, 0.1, 0.2],
                           [ARCTAN, SurrogateSpec(kind="piecewise_exp")], es, cfg)
    arctan_robust = grid.robust_accuracy[0]
    pwe_robust = grid.robust_accuracy[1]
    gap = pwe_robust[2] - arctan_robust[2]
    elapsed = time.perf_counter() - t0
    ok = trained_ok and gap >= 0.10 and elapsed < 900
    detail = (f"train_acc={train_acc:.3f} robust@0.2 arctan={arctan_robust[2]:.3f} "
              f"pwe={pwe_robust[2]:.3f} gap={gap:+.3f} (need >= +0.10)")
    assert report("4 surrogate-direction", ok, detail, elapsed)


# -- criterion 5: transferability directional reproduction -------------------


def test_criterion_5_transferability_direction(ann_mlp, converted_snn, indep_snn, digits):
    t0 = time.perf_counter()
    _, _, test_x, test_y = digits
    es = select_eval_set([ann_mlp, converted_snn, indep_snn], test_x, test_y, 200, seed=0)
    cfg = AttackConfig(eps_max=0.2, eps_step=0.05, n_iter=20, seed=0)
    t_conv, t_indep = transferability(ann_mlp, [converted_snn, indep_snn], [es, es], "pgd",
                                      cfg)
    gap = t_conv - t_indep
    elapsed = time.perf_counter() - t0
    ok = gap >= 0.10 and elapsed < 600
    detail = (f"T(A->S_c)={t_conv:.3f} T(A->S_i)={t_indep:.3f} gap={gap:+.3f} "
              f"(need >= +0.10)")
    assert report("5 transfer-direction", ok, detail, elapsed)


# -- criterion 6: auto-saga dominance ----------------------------------------


def test_criterion_6_auto_saga_dominance(bp_snn, ann_mlp, attention_net, digits):
    t0 = time.perf_counter()
    _, _, test_x, test_y = digits
    clean = [evaluate(m, test_x, test_y) for m in (bp_snn, ann_mlp, attention_net)]
    ok = all(acc >= 0.85 for acc in clean)
    single = AttackConfig(eps_max=0.2, eps_step=0.01, n_iter=40, seed=0)
    sagac = AttackConfig(eps_max=0.2, eps_step=0.005, n_iter=40, kappa=0.0,
                         coeff_lr=10_000.0, fit_u=1.0, seed=0)
    rows = multi_model_comparison([(bp_snn, ann_mlp), (bp_snn, attention_net)],
                                  test_x, test_y, 200, single, sagac, seed=0,
                                  pair_names=["snn+ann", "snn+attention"])
    details = []
    for row in rows:
        dom = (row["auto_saga"] >= row["basic_saga"] - 1e-12
               and row["auto_saga"] >= max(row["max_pgd"], row["max_mim"]) - 1e-12)
        ok &= dom
        details.append(f"{row['pair']}: mim={row['max_mim']:.3f} pgd={row['max_pgd']:.3f} "
                       f"saga={row['basic_saga']:.3f} auto={row['auto_saga']:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1200
    assert report("6 auto-saga-dominance",
                  ok, f"clean={['%.3f' % c for c in clean]} " + " | ".join(details),
                  elapsed)


# -- criterion 7: dynamics fixtures ------------------------------------------


def test_criterion_7_dynamics_fixtures():
    t0 = time.perf_counter()
    ok = True
    # hard reset hand trace
    cfg = NeuronConfig(leak=0.5, threshold=1.0)
    v = np.zeros(1, dtype=np.float32)
    o = np.zeros(1, dtype=np.float32)
    spikes = []
    for _ in range(4):
        v, o = step_lif_hard(v, o, np.array([0.6], dtype=np.float32), cfg)
        spikes.append(int(o[0]))
    ok &= spikes == [0, 0, 1, 0]
    # soft reset period-2
    cfg = NeuronConfig(leak=1.0, threshold=1.0, reset="soft_subtract")
    v = np.zeros(1, dtype=np.float32)
    o = np.zeros(1, dtype=np.float32)
    trace = []
    for _ in range(6):
        v, o = step_lif_soft(v, o, np.array([0.5], dtype=np.float32), cfg)
        trace.append(float(v[0]))
    ok &= trace == [0.5, 1.0, 0.5, 1.0, 0.5, 1.0]
    # IIR geometric impulse response
    imp = np.zeros((5, 1), dtype=np.float32)
    imp[0] = 1.0
    out = synapse_filter(SynapseConfig(alphas=(0.5,), betas=(1.0,)), imp)[:, 0]
    ok &= np.array_equal(out, np.array([1.0, 0.5, 0.25, 0.125, 0.0625], dtype=np.float32))
    # adaptive phi=0 equals delayed soft inhibition, exactly (dyadic currents)
    cfg = NeuronConfig(leak=1.0, threshold=1.0, adapt_decay=0.0)
    v = np.zeros(1, dtype=np.float32)
    k = np.zeros(1, dtype=np.float32)
    o = np.zeros(1, dtype=np.float32)
    got = []
    for _ in range(6):
        v, k, o = step_adaptive(v, k, o, np.array([0.5], dtype=np.float32), cfg)
        got.append(float(v[0]))
    v_ref = o1 = o2 = 0.0
    want = []
    for _ in range(6):
        v_ref = v_ref + 0.5 - 1.0 * o2
        want.append(v_ref)
        o2, o1 = o1, (1.0 if v_ref >= 1.0 else 0.0)
    ok &= got == want
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report("7 dynamics-fixtures", ok, "hard/soft/IIR/adaptive exact", elapsed)


# -- criterion 8: persistence and reproducibility ----------------------------


def test_criterion_8_io(tmp_path):
    t0 = time.perf_counter()
    ok = True
    # IDX: standard header accepted, bad magic rejected with observed value
    x, _ = synth_digits(12, seed=0)
    img_path = tmp_path / "imgs"
    save_idx_images(img_path, x)
    ok &= load_idx_images(img_path).shape == (12, 28, 28)
    bad = tmp_path / "bad"
    import struct as _struct
    bad.write_bytes(_struct.pack(">IIII", 0x00000700, 1, 2, 2) + b"\x00" * 4)
    try:
        load_idx_images(bad)
        ok = False
    except FormatError as exc:
        ok &= "0x00000700" in str(exc)
    # checkpoint bit-fidelity
    net = build_snn_mlp([6, 8, 3], T=4, seed=1)
    ck = tmp_path / "m.snnm"
    checkpoint.save_model(ck, net, seed=7)
    loaded, meta = checkpoint.load_model(ck)
    ck2 = tmp_path / "m2.snnm"
    checkpoint.save_model(ck2, loaded, seed=meta["seed"])
    ok &= ck.read_bytes() == ck2.read_bytes()
    # run directory reproducibility from echoed config + seed
    args = ["train", "--data", "blobs", "--kind", "ann", "--arch", "2-6-2",
            "--epochs", "1", "--n-train", "80", "--n-test", "20", "--seed", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ok &= cli_main(args + ["--out", str(out_a)]) == 0
    ok &= cli_main(["train", "--config", str(out_a / "config.txt"),
                    "--out", str(out_b)]) == 0
    for name in ("model.snnm", "history.json"):
        ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    elapsed = time.perf_counter() - t0
    assert report("8 io-reproducibility", ok, "idx + checkpoint + run-dir replay", elapsed)


# -- criterion 9: rollout suite ----------------------------------------------


def test_criterion_9_rollout_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        tokens = int(rng.integers(3, 9))
        heads = int(rng.integers(1, 4))
        layers = int(rng.integers(1, 4))
        recs = []
        for _ in range(layers):
            m = rng.uniform(0, 1, size=(2, heads, tokens, tokens))
            recs.append(m / m.sum(axis=-1, keepdims=True))
        mixed = 0.5 * recs[0].mean(axis=1) + 0.5 * np.eye(tokens)
        ok &= bool(np.max(np.abs(mixed.sum(axis=-1) - 1.0)) < 1e-5)
        chain = rollout_matrix(recs)
        ok &= bool(np.max(np.abs(chain.sum(axis=-1) - 1.0)) < 1e-5)
    g = rng.standard_normal((4, 7)).astype(np.float32)
    ok &= bool(np.array_equal(g * ones_mask(g), g))
    elapsed = time.perf_counter() - t0
    assert report("9 rollout-suite", ok, "100 random stochastic chains", elapsed)
