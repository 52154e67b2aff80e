"""Batch and thread-count invariance of the attacks, the keyed random start,
and the M x A transfer matrix that rests on them.

A sample's adversarial example, and its Auto-SAGA coefficient path, must not
depend on which samples share its batch or in what order, nor on how many
BLAS threads compute it. The floor is 16 rows: below it BLAS picks other
kernels and the bytes may differ, so every batch here keeps at least 16 rows.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snnadv
from snnadv import attacks, harness
from snnadv.ann import build_mlp
from snnadv.attacks import AttackConfig, keyed_uniform, pgd
from snnadv.errors import ConfigError
from snnadv.harness import select_eval_set, transfer_matrix

FLOOR = 16           # the smallest batch whose bytes match a larger batch's
N = 2 * FLOOR + 8    # rows in the reference batch
CFG = AttackConfig(eps_max=0.031, eps_step=0.01, n_iter=3, seed=11)
# kappa 1 keeps the margin active and a small coeff_lr keeps the alpha paths
# off the one-hot and uniform corners, so they carry the gradients' bytes
BLEND_CFG = AttackConfig(eps_max=0.031, eps_step=0.005, n_iter=3, kappa=1.0, coeff_lr=1.0,
                         seed=11)
# blend partners: each family leads one model set
PARTNER = {"snn": "ann", "ann": "attention", "attention": "snn"}


def _run(kind, models, x, y, index):
    """Adversarial batch (or the input gradient) and, for Auto-SAGA, the
    alpha path [iters, n, m]. The attacks' outputs pass through a sign, so
    the input gradient and the alpha path are what show a last-bit change."""
    if kind == "grad":
        return attacks.loss_input_grad(models[0], x, y)[1], None
    if kind == "fgsm":
        return attacks.fgsm(models[0], x, y, CFG.eps_max), None
    if kind == "pgd":
        return attacks.pgd(models[0], x, y, CFG, index=index), None
    if kind == "mim":
        return attacks.mim(models[0], x, y, CFG), None
    if kind == "saga":
        return attacks.saga(models, x, y, BLEND_CFG), None
    return attacks.auto_saga(models, x, y, BLEND_CFG)


@pytest.fixture(scope="module")
def families(bp_snn, ann_mlp, attention_net, digits):
    _, _, test_x, test_y = digits
    nets = {"snn": bp_snn, "ann": ann_mlp, "attention": attention_net}
    # scattered dataset indices, images shaped for the rollout mask
    index = np.sort(np.random.default_rng(4).choice(len(test_y), N, replace=False))
    return nets, test_x[index].reshape(N, 1, 28, 28), test_y[index], index


@pytest.fixture(scope="module")
def references():
    """Full-batch results, computed once per (kind, family)."""
    return {}


@pytest.mark.parametrize("family", ["snn", "ann", "attention"])
@pytest.mark.parametrize("kind", ["grad", "fgsm", "pgd", "mim", "saga", "auto_saga"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_permuted_and_split_batches_give_the_same_bytes(families, references, kind, family,
                                                        data):
    nets, x, y, index = families
    models = [nets[family]] if kind in ("grad", "fgsm", "pgd", "mim") else \
        [nets[family], nets[PARTNER[family]]]
    if (kind, family) not in references:
        references[kind, family] = _run(kind, models, x, y, index)
    want_adv, want_alpha = references[kind, family]
    perm = np.array(data.draw(st.permutations(range(N))))
    # parts of FLOOR rows each, plus a share of the slack
    n_parts = data.draw(st.integers(1, N // FLOOR))
    slack = N - n_parts * FLOOR
    shares = sorted(data.draw(st.lists(st.integers(0, slack), min_size=n_parts - 1,
                                       max_size=n_parts - 1)))
    sizes = FLOOR + np.diff([0] + shares + [slack])
    for rows in np.split(perm, np.cumsum(sizes)[:-1]):
        adv, alpha = _run(kind, models, x[rows], y[rows], index[rows])
        assert np.array_equal(adv, want_adv[rows])
        if alpha is not None:
            assert np.array_equal(alpha, want_alpha[:, rows])


class _Flat:
    """A model with zero input gradient, so PGD returns its random start."""

    def forward_cached(self, x):
        return np.zeros((len(x), 2), dtype=np.float32), None

    def backward(self, cache, dlogits):
        return np.zeros((len(dlogits), 64), dtype=np.float32)


class TestKeyedStart:
    def test_start_in_the_ball_with_uniform_moments(self):
        eps = 0.03
        x = np.full((400, 64), 0.5, dtype=np.float32)
        cfg = AttackConfig(eps_max=eps, eps_step=0.01, n_iter=1, seed=2)
        delta = pgd(_Flat(), x, np.zeros(400, dtype=int), cfg).astype(np.float64) - x
        assert np.max(np.abs(delta)) <= eps + 1e-7
        assert abs(delta.mean()) < 0.01 * eps
        assert delta.var() == pytest.approx(eps ** 2 / 3, rel=0.02)

    def test_draws_span_minus_one_to_one(self):
        u = keyed_uniform(0, np.arange(200), 784)
        assert u.dtype == np.float32 and u.shape == (200, 784)
        assert u.min() >= -1.0 and u.max() < 1.0
        assert abs(u.mean()) < 0.01 and u.var() == pytest.approx(1 / 3, rel=0.01)
        # the 24-bit draws are exact multiples of 2^-23
        assert np.array_equal(u, np.round(u * 2.0 ** 23) / 2.0 ** 23)

    def test_matches_a_scalar_reference(self):
        # the hash written out on Python ints, masked to 32 bits by hand
        def reference(seed, i, p, row_size):
            mask = 2**32 - 1
            h = (i * row_size + p) * 0x9E3779B9 + int(
                np.random.SeedSequence(seed).generate_state(1, np.uint32)[0])
            h &= mask
            for shift, mult in ((16, 0x85EBCA6B), (13, 0xC2B2AE35)):
                h = ((h ^ (h >> shift)) * mult) & mask
            h ^= h >> 16
            return (h >> 8) * 2.0 ** -23 - 1.0

        index = np.array([0, 3, 1999, 5_000_000])
        got = keyed_uniform(12345, index, 784)
        for r, i in enumerate(index):
            for p in (0, 1, 391, 783):
                assert got[r, p] == reference(12345, int(i), p, 784)

    def test_each_index_draws_the_same_row_in_any_batch(self):
        index = np.array([7, 1999, 0, 42, 5])
        rows = keyed_uniform(3, index, 784)
        assert np.array_equal(keyed_uniform(3, index[::-1], 784), rows[::-1])
        assert np.array_equal(keyed_uniform(3, index[[1]], 784), rows[[1]])
        assert np.array_equal(keyed_uniform(3, np.arange(50), 784)[42], rows[3])

    def test_seeds_and_indices_draw_different_rows(self):
        a = keyed_uniform(3, np.arange(4), 784)
        assert not np.array_equal(a, keyed_uniform(4, np.arange(4), 784))
        assert len({row.tobytes() for row in a}) == 4

    def test_pgd_start_follows_the_index(self):
        x = np.full((4, 64), 0.5, dtype=np.float32)
        labels = np.zeros(4, dtype=int)
        cfg = AttackConfig(eps_max=0.03, eps_step=0.01, n_iter=1, seed=2)
        fwd = pgd(_Flat(), x, labels, cfg, index=np.array([10, 11, 12, 13]))
        rev = pgd(_Flat(), x, labels, cfg, index=np.array([13, 12, 11, 10]))
        assert np.array_equal(fwd, rev[::-1])
        assert np.array_equal(pgd(_Flat(), x, labels, cfg),
                              pgd(_Flat(), x, labels, cfg, index=np.arange(4)))

    @pytest.mark.parametrize("index", [np.arange(3), np.arange(5), np.array([0, 1, 2, -1]),
                                       np.zeros((4, 1), dtype=int), np.linspace(0, 3, 4)])
    def test_bad_indices_rejected(self, index):
        x = np.full((4, 64), 0.5, dtype=np.float32)
        with pytest.raises(ConfigError):
            pgd(_Flat(), x, np.zeros(4, dtype=int), AttackConfig(), index=index)

    def test_key_must_fit_32_bits(self):
        with pytest.raises(ConfigError, match="2\\*\\*32"):
            keyed_uniform(0, np.array([2**32 // 784]), 784)
        keyed_uniform(0, np.array([2**32 // 784 - 1]), 784)


class TestMatrixMatchesPerPairReference:
    @pytest.mark.parametrize("kind", ["fgsm", "pgd", "mim"])
    def test_equal_bytes_and_one_run_per_generator(self, kind, blob_net, blob_data,
                                                   monkeypatch):
        x, y = blob_data
        models = [blob_net, build_mlp([6, 10, 2], seed=99), build_mlp([6, 12, 2], seed=7)]
        cfg = AttackConfig(eps_max=0.2, eps_step=0.05, n_iter=5, seed=3)
        runs = []
        run_attack = attacks.run_attack
        monkeypatch.setattr(attacks, "run_attack",
                            lambda *a, **k: runs.append(len(a[2])) or run_attack(*a, **k))
        tm = transfer_matrix(models, ["a", "b", "c"], x, y, 24, cfg, attack_names=(kind,),
                             seed=1)
        assert len(runs) == 3 and min(runs) >= 24
        monkeypatch.undo()
        want = np.zeros((3, 3))
        for i, gen in enumerate(models):
            for j, target in enumerate(models):
                es = select_eval_set([gen] if i == j else [gen, target], x, y, 24, seed=1)
                x_adv = attacks.run_attack(kind, [gen], es.x, es.y, cfg, index=es.indices)
                want[i, j] = float(np.mean(target.predict(x_adv) != es.y))
        assert np.array_equal(tm.per_attack[kind], want)

    def test_verifies_every_pair_before_each_generator_run(self, blob_net, blob_data,
                                                           monkeypatch):
        x, y = blob_data
        models = [blob_net, build_mlp([6, 10, 2], seed=99)]
        verified = []
        verify = harness.EvalSet.verify
        monkeypatch.setattr(harness.EvalSet, "verify",
                            lambda self, ms: verified.append(len(ms)) or verify(self, ms))
        transfer_matrix(models, ["a", "b"], x, y, 16, CFG, attack_names=("fgsm", "pgd"))
        assert verified == [2] * 8

    def test_selection_predicts_each_model_once(self, blob_net, blob_data, monkeypatch):
        x, y = blob_data
        models = [blob_net, build_mlp([6, 10, 2], seed=99)]
        pool_passes = []
        for model in models:
            monkeypatch.setattr(model, "predict", lambda xs, predict=model.predict:
                                pool_passes.append(len(xs) == len(x)) or predict(xs))
        unions = []
        run_attack = attacks.run_attack
        monkeypatch.setattr(attacks, "run_attack", lambda *a, index=None, **k:
                            unions.append(index) or run_attack(*a, index=index, **k))
        transfer_matrix(models, ["a", "b"], x, y, 16, CFG, attack_names=("fgsm",))
        assert sum(pool_passes) == len(models)
        monkeypatch.undo()
        # each generator's run covers exactly its pairs' select_eval_set indices
        for i, gen in enumerate(models):
            sets = [select_eval_set([gen] if i == j else [gen, target], x, y, 16, seed=0)
                    for j, target in enumerate(models)]
            assert np.array_equal(unions[i], np.unique(np.concatenate([s.indices for s in sets])))


# one line per net: its name, the sha256 of its input gradient and of a 3-step
# PGD on seeded, untrained nets, and the share of non-zero gradient entries
THREAD_PROBE = """
import hashlib
import numpy as np
from snnadv import attacks
from snnadv.ann import build_mlp
from snnadv.attention import TinyAttentionNet
from snnadv.dynamics import build_snn_mlp
rng = np.random.default_rng(5)
x = rng.uniform(0, 1, (40, 784)).astype(np.float32)
y = rng.integers(0, 10, 40)
cfg = attacks.AttackConfig(eps_max=0.031, eps_step=0.01, n_iter=3, seed=11)
nets = {"attention": TinyAttentionNet(seed=1), "snn": build_snn_mlp([784, 128, 10], seed=2),
        "mlp": build_mlp([784, 128, 10], seed=3)}
for name, net in nets.items():
    grad = attacks.loss_input_grad(net, x, y)[1]
    adv = attacks.pgd(net, x, y, cfg)
    digest = hashlib.sha256(grad.tobytes() + adv.tobytes()).hexdigest()
    print(name, digest, np.count_nonzero(grad) / grad.size)
"""


@pytest.fixture(scope="module")
def thread_runs():
    """name -> [(digest, nonzero share) with 1 BLAS thread, the same with 2]."""
    src = str(Path(snnadv.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        for line in out.stdout.splitlines():
            name, digest, share = line.split()
            runs.setdefault(name, []).append((digest, float(share)))
    return runs


# OpenBLAS blocks the reduction axis of a threaded GEMM differently from a
# single-threaded one for some K above 512, so the 784-wide input layers of
# the SNN and the MLP give other bytes with 2 threads
K_SPLIT = pytest.mark.xfail(strict=True, reason="the 784-wide input GEMM's bytes "
                            "depend on the BLAS thread count")


@pytest.mark.parametrize("name", ["attention", pytest.param("snn", marks=K_SPLIT),
                                  pytest.param("mlp", marks=K_SPLIT)])
def test_one_and_two_blas_threads_give_the_same_bytes(thread_runs, name):
    one, two = thread_runs[name]
    assert one[1] > 0.1  # the gradient carries bytes worth comparing
    assert one == two
