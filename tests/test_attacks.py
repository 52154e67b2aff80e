import hashlib
import importlib.util
import inspect
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from snnadv import attacks, numerics
from snnadv.ann import AnnNet, Dense, build_mlp
from snnadv.attention import TinyAttentionNet
from snnadv.attacks import (AttackConfig, AttackReport, auto_saga, fgsm, loss_input_grad,
                            margin_loss, mim, pgd, project, run_attack, saga)
from snnadv.dynamics import build_snn_mlp
from snnadv.errors import ConfigError

from conftest import traced_peak
from oracles import finite_difference_grad, max_rel_err, ones_mask

NAN, INF = float("nan"), float("inf")

class TestProject:
    def test_inside_ball_unchanged(self):
        x = np.array([0.4, 0.5])
        x_adv = np.array([0.45, 0.48])
        assert np.array_equal(project(x_adv, x, 0.1), x_adv)

    def test_ball_face(self):
        assert project(np.array([0.9]), np.array([0.5]), 0.1)[0] == pytest.approx(0.6)

    def test_pixel_floor_dominates(self):
        assert project(np.array([-0.5]), np.array([0.0]), 0.2)[0] == 0.0

    def test_shapes_must_match(self):
        with pytest.raises(ConfigError, match=r"^projection shapes differ: \(2, 3\) vs \(2, 4\)$"):
            project(np.zeros((2, 3)), np.zeros((2, 4)), 0.1)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(3, 4))
        x_adv = x + rng.uniform(-0.5, 0.5, size=x.shape)
        once = project(x_adv, x, 0.15)
        assert np.array_equal(project(once, x, 0.15), once)


PIXELS = st.floats(-0.5, 1.5, width=32)


class TestIterateClamp:
    """``_iterate`` clips each step into bounds computed once; that must be
    ``project`` exactly, whatever x is."""

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float32, 12, elements=PIXELS),
           start=arrays(np.float32, 12, elements=PIXELS),
           grads=arrays(np.float32, (3, 12), elements=st.floats(-1, 1, width=32)),
           eps=st.floats(1e-4, 1.0), step=st.floats(1e-4, 1.0))
    def test_one_clip_equals_project(self, x, start, grads, eps, step):
        calls = iter(grads)
        got = attacks._iterate(x, eps, step, len(grads), lambda _: next(calls), x_adv=start)
        want = start
        for g in grads:
            want = project(want + step * numerics.sign(g).astype(x.dtype), x, eps)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_never_writes_its_inputs_or_the_directions(self):
        # MIM returns its momentum buffer, which it reads again next iteration
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (4, 9)).astype(np.float32)
        start = np.clip(x + 0.02, 0.0, 1.0)
        held = rng.normal(size=x.shape).astype(np.float32)
        seen = []

        def direction(x_adv):
            seen.append((x_adv, x_adv.copy()))
            return held

        kept = [a.copy() for a in (x, start, held)]
        out = attacks._iterate(x, 0.05, 0.01, 4, direction, x_adv=start)
        for arr, copy in zip((x, start, held), kept):
            assert arr.tobytes() == copy.tobytes()
        for arr, copy in seen:
            assert arr.tobytes() == copy.tobytes()
        assert not any(np.shares_memory(out, a) for a in (x, start, held))


class TestConfig:
    def test_step_cannot_exceed_budget(self):
        with pytest.raises(ConfigError):
            AttackConfig(eps_max=0.01, eps_step=0.05)

    def test_negative_alphas_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(alphas=(0.5, -0.1))

    def test_invalid_iterations(self):
        with pytest.raises(ConfigError):
            AttackConfig(n_iter=0)

    @pytest.mark.parametrize("field,value,match", [
        ("eps_max", 1.5, r"eps_max must be in \[0, 1\]"),
        ("eps_step", 0.0, "eps_step must be > 0"),
        ("mu", -1.0, "mu must be >= 0"),
        ("kappa", -1.0, "kappa must be >= 0"),
        ("coeff_lr", 0.0, "coefficient learning rate and fitting factor must be > 0"),
        ("seed", -1, "^seed must be >= 0, got -1$"),
        # an all-zero row blends no gradient, so the attack would never move
        ("alphas", (0.0, 0.0), r"^blend coefficients must not all be zero, got \(0.0, 0.0\)$"),
    ])
    def test_out_of_range_field_rejected(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            AttackConfig(**{field: value})

    @pytest.mark.parametrize("field,value,match", [
        ("eps_max", NAN, r"^eps_max must be in \[0, 1\], got nan$"),
        ("eps_step", NAN, "^eps_step must be > 0 and finite, got nan$"),
        ("eps_step", INF, "^eps_step must be > 0 and finite, got inf$"),
        ("mu", NAN, "^mu must be >= 0 and finite, got nan$"),
        ("mu", INF, "^mu must be >= 0 and finite, got inf$"),
        ("kappa", NAN, "^kappa must be >= 0 and finite, got nan$"),
        ("kappa", INF, "^kappa must be >= 0 and finite, got inf$"),
        ("coeff_lr", NAN, "^coefficient learning rate and fitting factor must be > 0 and "
                          "finite, got nan and 1.0$"),
        ("coeff_lr", INF, "and finite, got inf and 1.0$"),
        ("fit_u", NAN, "and finite, got 10000.0 and nan$"),
        ("fit_u", INF, "and finite, got 10000.0 and inf$"),
        ("alphas", (0.5, NAN), r"^blend coefficients must be non-negative and finite, "
                               r"got \(0.5, nan\)$"),
        ("alphas", (INF, 0.5), r"and finite, got \(inf, 0.5\)$"),
    ])
    def test_non_finite_field_rejected(self, field, value, match):
        # every check is written so that NaN fails it
        with pytest.raises(ConfigError, match=match):
            AttackConfig(**{field: value})


class TestFgsm:
    def test_negative_eps_rejected(self, blob_net, blob_data):
        x, y = blob_data
        with pytest.raises(ConfigError, match="^eps must be >= 0, got -0.1$"):
            fgsm(blob_net, x, y, -0.1)

    def test_zero_eps_returns_input(self, blob_net, blob_data):
        x, y = blob_data
        assert np.array_equal(fgsm(blob_net, x, y, 0.0), np.clip(x, 0, 1))

    def test_moves_each_pixel_by_eps_or_not_at_all(self, blob_net, blob_data):
        x, y = blob_data
        eps = 0.07
        _, grad = loss_input_grad(blob_net, x, y)
        x_adv = fgsm(blob_net, x, y, eps)
        raw = x + eps * np.sign(grad).astype(x.dtype)
        assert np.array_equal(x_adv, np.clip(raw, 0, 1))
        moved = np.abs(raw - x)
        assert np.all((moved <= 1e-9) | (np.abs(moved - eps) <= 1e-7))

    def test_logistic_toy_closed_form(self):
        # two-class linear model: logits = [w.x, 0]; for true class 0 the loss
        # gradient is -w * p1, so the attack moves along -sign(w)
        w = np.array([[2.0], [-1.0]], dtype=np.float32)
        logits_w = np.concatenate([w, np.zeros_like(w)], axis=1)
        net = AnnNet([Dense(logits_w)])
        x = np.array([[0.5, 0.5]], dtype=np.float32)
        y = np.array([0])
        eps = 0.1
        x_adv = fgsm(net, x, y, eps)
        assert np.allclose(x_adv, [[0.4, 0.6]], atol=1e-6)

    def test_zero_gradient_leaves_pixels_unchanged(self):
        net = AnnNet([Dense(np.zeros((3, 2), dtype=np.float32))])
        x = np.array([[0.2, 0.5, 0.8]], dtype=np.float32)
        assert np.array_equal(fgsm(net, x, np.array([0]), 0.3), x)


class TestPgd:
    def test_one_step_equals_fgsm(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.1, eps_step=0.1, n_iter=1, random_start=False)
        assert np.array_equal(pgd(blob_net, x, y, cfg), fgsm(blob_net, x, y, 0.1))
        # outside [0, 1] both start from the batch clipped to the pixel range
        rng = np.random.default_rng(0)
        net = build_mlp([6, 16, 2], seed=5)
        x = rng.uniform(-0.3, 1.3, (32, 6)).astype(np.float32)
        y = rng.integers(0, 2, 32)
        assert np.array_equal(pgd(net, x, y, cfg), fgsm(net, x, y, 0.1))

    def test_projection_invariant(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.12, eps_step=0.03, n_iter=8, seed=4)
        x_adv = pgd(blob_net, x, y, cfg)
        assert np.max(np.abs(x_adv - x)) <= 0.12 + 1e-6
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_iterative_beats_single_step(self, blob_net, blob_data):
        x, y = blob_data
        single = fgsm(blob_net, x, y, 0.3)
        cfg = AttackConfig(eps_max=0.3, eps_step=0.05, n_iter=20, seed=0)
        multi = pgd(blob_net, x, y, cfg)
        rate = lambda adv: float((blob_net.predict(adv) != y).mean())
        assert rate(multi) >= rate(single)

    def test_seeded_determinism(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=5, seed=9)
        a = pgd(blob_net, x, y, cfg)
        b = pgd(blob_net, x, y, cfg)
        assert np.array_equal(a, b)


class TestMim:
    def test_mu_zero_equals_iterative_fgsm(self, blob_net, blob_data):
        x, y = blob_data
        steps = 5
        cfg = AttackConfig(eps_max=0.2, eps_step=0.04, n_iter=steps, mu=0.0)
        got = mim(blob_net, x, y, cfg)
        xi = np.clip(x, 0, 1)
        for _ in range(steps):
            _, g = loss_input_grad(blob_net, xi, y)
            xi = project(xi + (0.2 / steps) * np.sign(g).astype(x.dtype), x, 0.2)
        assert np.array_equal(got, xi)

    def test_constant_gradient_direction_matches_mu_zero(self):
        # linear two-class model: the loss-gradient direction never changes,
        # so momentum accumulation and fresh gradients share the same signs
        w = np.array([[2.0], [-1.0], [0.5]], dtype=np.float32)
        net = AnnNet([Dense(np.concatenate([w, np.zeros_like(w)], axis=1))])
        x = np.full((2, 3), 0.5, dtype=np.float32)
        y = np.array([0, 0])
        a = mim(net, x, y, AttackConfig(eps_max=0.2, eps_step=0.04, n_iter=5, mu=1.0))
        b = mim(net, x, y, AttackConfig(eps_max=0.2, eps_step=0.04, n_iter=5, mu=0.0))
        assert np.array_equal(a, b)

    def test_projection_invariant_every_iteration(self, blob_net, blob_data):
        x, y = blob_data
        trace = []
        mim(blob_net, x, y, AttackConfig(eps_max=0.15, eps_step=0.01, n_iter=6, mu=1.0),
            trace=trace)
        for step in trace:
            assert np.max(np.abs(step - x)) <= 0.15 + 1e-6
            assert step.min() >= 0.0 and step.max() <= 1.0

    def test_zero_gradient_guard(self):
        net = AnnNet([Dense(np.zeros((3, 2), dtype=np.float32))])
        x = np.array([[0.2, 0.5, 0.8]], dtype=np.float32)
        out = mim(net, x, np.array([0]), AttackConfig(eps_max=0.2, eps_step=0.04, n_iter=4))
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, x)


class TestOwnCopies:
    """PGD and MIM hold few input-sized arrays of their own: PGD's keyed draw
    becomes its start in place, and MIM normalizes its gradient and updates
    its momentum in place."""

    @pytest.mark.parametrize("kind", ["pgd", "mim"])
    def test_peak_in_input_sizes(self, kind):
        # a small net in one block, so its own buffers are small beside x
        net = build_mlp([784, 16, 10], seed=0)
        net.block_rows = 512
        rng = np.random.default_rng(22)
        x = rng.uniform(0, 1, (512, 784)).astype(np.float32)
        y = rng.integers(0, 10, 512)
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=3)
        _, peak = traced_peak(run_attack, kind, [net], x, y, cfg, np.arange(1000, 1512))
        assert peak <= 6.5 * x.nbytes


class TestSaga:
    def test_single_model_equals_pgd(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=6, random_start=False)
        assert np.array_equal(saga([blob_net], x, y, cfg), pgd(blob_net, x, y, cfg))

    def test_zero_weight_removes_model(self, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=6, random_start=False)
        both = saga([blob_net, other], x, y, replace(cfg, alphas=(1.0, 0.0)))
        alone = saga([blob_net], x, y, cfg)
        assert np.array_equal(both, alone)

    @pytest.mark.parametrize("kept,dropped", [("snn", "attention"), ("attention", "snn"),
                                              ("mlp", "attention"), ("attention", "mlp")])
    def test_zero_weight_removes_attention_pair_model(self, kept, dropped):
        models, x, y = _guard_models(), *_guard_batch()
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=4)
        both = saga([models[kept], models[dropped]], x, y, replace(cfg, alphas=(1.0, 0.0)))
        alone = saga([models[kept]], x, y, cfg)
        assert both.tobytes() == alone.tobytes()

    def test_model_and_coefficient_counts_checked(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2)
        two = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2, alphas=(0.5, 0.5))
        with pytest.raises(ConfigError, match="^need at least one model$"):
            saga([], x, y, replace(cfg, alphas=()))
        with pytest.raises(ConfigError, match="^need at least one model$"):
            saga([], x, y, cfg)
        with pytest.raises(ConfigError, match="^need at least one model$"):
            auto_saga([], x, y, cfg)
        with pytest.raises(ConfigError, match="^2 coefficients for 1 models$"):
            saga([blob_net], x, y, two)
        with pytest.raises(ConfigError, match="^2 coefficients for 1 models$"):
            auto_saga([blob_net], x, y, two)

    @pytest.mark.parametrize("m", [1, 2])
    def test_no_coefficients_blend_uniformly(self, m):
        models, x, y = TestOneForwardPerIteration._pair()
        models = models[:m]
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=3)
        uniform = saga(models, x, y, replace(cfg, alphas=(1.0 / m,) * m))
        assert saga(models, x, y, cfg).tobytes() == uniform.tobytes()

    # sha256 of the saga output on the attention+MLP pair, 20 rows, per
    # coefficient case; computed when saga still took its coefficients apart
    # from the config
    PINS = {"given": "be9c67758d07a63a966faae76b04c85ff4f71ef6dc7381525e9798ffd31c9a56",
            "uniform": "71ca3f0bea3e5bcbb274c52112f59269a48fe5482a670bf584b9a507b9a0dc15"}

    @pytest.mark.parametrize("case,alphas", [("given", (0.3, 0.7)), ("uniform", None)],
                             ids=["given", "uniform"])
    def test_output_is_pinned(self, case, alphas):
        models, x, y = TestOneForwardPerIteration._pair(20)
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=3, alphas=alphas)
        out = saga(models, x, y, cfg)
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.PINS[case]

    def test_balanced_pair_runs_and_projects(self, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=5, alphas=(0.5, 0.5))
        x_adv = saga([blob_net, other], x, y, cfg)
        assert np.max(np.abs(x_adv - x)) <= 0.1 + 1e-6


def _guard_models() -> dict:
    return {"snn": build_snn_mlp([64, 12, 3], T=4, seed=5),
            "attention": TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                                          n_heads=2, n_classes=3, seed=6),
            "mlp": build_mlp([64, 12, 3], seed=7)}


def _guard_batch() -> tuple:
    rng = np.random.default_rng(17)
    return rng.uniform(0, 1, (24, 64)).astype(np.float32), rng.integers(0, 3, 24)


GUARD_PAIRS = [("snn", "attention"), ("mlp", "snn"), ("mlp", "attention")]
GUARD_ALPHAS = {"uniform": None, "given": (0.7, 0.3), "one-hot": (1.0, 0.0)}
GUARD_CASES = [(pair, alphas) for pair in GUARD_PAIRS for alphas in GUARD_ALPHAS]
GUARD_IDS = [f"{'+'.join(pair)}-{alphas}" for pair, alphas in GUARD_CASES]


class TestBlendPins:
    """SAGA and Auto-SAGA on three small pairs over 24 rows, with a
    coefficient step (coeff_lr 50) large enough that the walk moves and some
    rows collapse. sha256 of Auto-SAGA's adversarial batch and coefficient
    path, of SAGA's batch, and Auto-SAGA's logged collapse count."""

    CFG = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=4, coeff_lr=50.0)
    # computed while SAGA still ran its own blend loop
    PINS = {
        ("snn+attention", "uniform"): (
            "f5dd724e3e0efbc5fb7c73186808d1e3f176114c8b0b5be8dbd1dcc34902a979",
            "6e01ba740791c4fa71841ec146b08517f6630caaddb5abb84a52b6924bb7957a", 0),
        ("snn+attention", "given"): (
            "e24d0622421941b9232e423f259566446883fa7aadd9dc3d83bd1c847aff6de8",
            "52bdb15f01464efc33d4635c6477898df0d1b8bf08911110dc70623d84716c9e", 0),
        ("snn+attention", "one-hot"): (
            "5ce86e1ce50370cf81b3a6db589b2e5f07ea755955fb32a3bf19ff571054cdc1",
            "bff8792701edf96a38362454549316243870c16b7bd6f301a1543e1d0c4c2db7", 0),
        ("mlp+snn", "uniform"): (
            "6ed7249e924b1c5e5187ec51b24963d880606d935d705e6bce08f6a7e10e3e07",
            "45df38a485b7a6d68a53fb2af56fbbe07bd195bbb9ed48dd8ef2b1358c7d08ce", 0),
        ("mlp+snn", "given"): (
            "c2ecc5225e7c1c4795fc73c91905e9d7806281faa06456bcf9fc36fee3568ef4",
            "5dc9964e523955c87e30db0bb6b906b89d9080b9b583a3a74f8306caaacdd420", 1),
        ("mlp+snn", "one-hot"): (
            "b6fab738e2b8cb56aa1339aa8461846d96841e42689f26810fa69444fa8284fb",
            "e3379526d629f2fbd65b82e2be28218d38eadad49615be7a98de5c096c008177", 3),
        ("mlp+attention", "uniform"): (
            "ecbecbbc6811c0689003926f66494692ecdfa25ecaa32ca4977c44d8b7c5f877",
            "b1cc13cca9f645a1d8dec604ec377746dd0b247509c96f8e4c1566e5b0332e3d", 17),
        ("mlp+attention", "given"): (
            "d9ae086b57a28515989cb02f442a3af40a55580ae1826a716630d97ba22957d2",
            "d580b5f142912a2251695006a797be9247be3443422ea7b9e3b4df655f3f6277", 16),
        ("mlp+attention", "one-hot"): (
            "99815fd5591169bb96adafc947400eab642cbf9516d531ae200a194707c9f359",
            "e3379526d629f2fbd65b82e2be28218d38eadad49615be7a98de5c096c008177", 4),
    }

    @staticmethod
    def _run(pair, alphas, cfg):
        models = _guard_models()
        x, y = _guard_batch()
        cfg = replace(cfg, alphas=GUARD_ALPHAS[alphas])
        pair = [models[name] for name in pair]
        return pair, x, y, cfg

    @pytest.mark.parametrize("pair,alphas", GUARD_CASES, ids=GUARD_IDS)
    def test_outputs_are_pinned(self, pair, alphas, caplog):
        models, x, y, cfg = self._run(pair, alphas, self.CFG)
        caplog.set_level(logging.WARNING, logger=attacks.__name__)
        x_adv, hist = auto_saga(models, x, y, cfg)
        collapses = sum(r.args[0] for r in caplog.records
                        if r.msg.startswith("blend coefficients"))
        assert np.any(hist[-1] != hist[0])
        got = (hashlib.sha256(x_adv.tobytes() + hist.tobytes()).hexdigest(),
               hashlib.sha256(saga(models, x, y, cfg).tobytes()).hexdigest(), collapses)
        assert got == self.PINS["+".join(pair), alphas]

    @pytest.mark.parametrize("pair,alphas", GUARD_CASES, ids=GUARD_IDS)
    def test_one_step_saga_is_one_step_auto_saga(self, pair, alphas):
        models, x, y, cfg = self._run(pair, alphas, replace(self.CFG, n_iter=1))
        assert saga(models, x, y, cfg).tobytes() == auto_saga(models, x, y, cfg)[0].tobytes()


class TestAllOnesMask:
    """A model without a rollout mask enters the blends as alpha * grad,
    byte for byte the all-ones-mask term alpha * ones_mask(x) * grad."""

    @staticmethod
    def reference(model, alpha, x, cache, grad):
        rollout = getattr(model, "rollout_mask", None)
        return alpha * (ones_mask(x) if rollout is None else rollout(x, cache)) * grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blends_equal_the_ones_mask_reference(self, monkeypatch, dtype):
        rng = np.random.default_rng(21)
        x = rng.uniform(0, 1, (6, 12)).astype(dtype)
        y = rng.integers(0, 3, 6)
        models = [build_snn_mlp([12, 8, 3], T=3, seed=2), build_mlp([12, 6, 3], seed=3)]
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=4)

        def run():
            blends = []  # every direction, before its sign is taken
            monkeypatch.setattr(numerics, "sign", lambda a: blends.append(a.copy()) or np.sign(a))
            return (saga(models, x, y, replace(cfg, alphas=(0.3, 0.7))),
                    *auto_saga(models, x, y, cfg), *blends)

        got = run()
        monkeypatch.setattr(attacks, "_blend_term", self.reference)
        for g, w in zip(got, run(), strict=True):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestOneForwardPerIteration:
    """The blends take the rollout mask from the records of the forward that
    produced the gradient, so an attention model runs one forward per
    iteration."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = TinyAttentionNet.forward_cached

        def counting(self, x):
            calls.append(len(x))
            return original(self, x)

        monkeypatch.setattr(TinyAttentionNet, "forward_cached", counting)
        return calls

    @staticmethod
    def _pair(n=5):
        att = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                               n_heads=2, n_classes=3, seed=4)
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (n, 64)).astype(np.float32)
        return [att, build_mlp([64, 6, 3], seed=4)], x, rng.integers(0, 3, n)

    def test_saga(self, counted):
        models, x, y = self._pair()
        saga(models, x, y, AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=3))
        assert counted == [5, 5, 5]

    def test_auto_saga(self, counted):
        models, x, y = self._pair()
        auto_saga(models, x, y, AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=3))
        assert counted == [5, 5, 5]


class TestOneCacheAtATime:
    """The blends take each model's margin gradient right after its
    cross-entropy gradient, from the same forward, and drop that forward's
    cache before the next model's forward."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    def test_margin_gradients_equal_a_separate_forward(self, dtype, kappa):
        models = [build_snn_mlp([64, 8, 3], T=3, seed=4, dtype=dtype),
                  TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                                   n_heads=2, n_classes=3, seed=4, dtype=dtype)]
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 1, (16, 64)).astype(dtype)
        y = rng.integers(0, 3, 16)
        rows = attacks.blend_alphas((0.3, 0.7), 2, len(x))
        blend, grads, margin_grads = attacks._blend(models, rows, x, y, kappa)
        for model, grad, margin_grad in zip(models, grads, margin_grads, strict=True):
            logits, cache = model.forward_cached(x)
            want = model.backward(cache, margin_loss(logits, y, kappa)[1]).reshape(x.shape)
            assert margin_grad.dtype == want.dtype and margin_grad.tobytes() == want.tobytes()
            assert grad.tobytes() == loss_input_grad(model, x, y)[1].tobytes()
        plain_blend, plain_grads, no_margin = attacks._blend(models, rows, x, y)
        assert plain_blend.tobytes() == blend.tobytes() and no_margin == []
        assert [g.tobytes() for g in plain_grads] == [g.tobytes() for g in grads]

    def test_auto_saga_peaks_less_than_one_snn_cache_above_attention_pgd(self):
        # the SNN's forward cache is gone before the attention net's forward,
        # so the pair costs little more than the attention net alone
        rng = np.random.default_rng(18)
        x = rng.uniform(0, 1, (200, 784)).astype(np.float32)
        y = rng.integers(0, 10, 200)
        snn = build_snn_mlp([784, 128, 10], T=8, seed=0)
        att = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                               n_heads=2, seed=0)
        cfg = AttackConfig(eps_max=0.031, eps_step=0.005, n_iter=2)
        _, snn_cache = traced_peak(snn.forward_cached, x)
        _, att_alone = traced_peak(pgd, att, x, y, cfg)
        _, pair = traced_peak(auto_saga, [snn, att], x, y, cfg)
        assert pair < att_alone + snn_cache


@pytest.mark.parametrize("model", [
    build_mlp([64, 6, 3], seed=4),
    build_snn_mlp([64, 6, 3], T=3, seed=4),
    TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2, n_heads=2,
                     n_classes=3, seed=4)], ids=["ann", "snn", "attention"])
def test_loss_input_grad_returns_the_forward_logits(model):
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, (20, 64)).astype(np.float32)
    logits = loss_input_grad(model, x, rng.integers(0, 3, 20))[0]
    assert logits.tobytes() == model.forward(x).tobytes()


class TestMarginLoss:
    def test_sign_tracks_misclassification(self):
        logits = np.array([[2.0, 0.5, 0.1],    # correct, margin negative
                           [0.1, 3.0, 0.2]])   # wrong, margin positive
        labels = np.array([0, 0])
        # kappa=0 floors correct samples at exactly zero; positive iff fooled
        value, _ = margin_loss(logits, labels, kappa=0.0)
        assert value[0] == 0.0 and value[1] > 0.0
        value, _ = margin_loss(logits, labels, kappa=0.3)
        assert -0.3 <= value[0] < 0.0 < value[1]

    def test_floor_at_minus_kappa(self):
        logits = np.array([[5.0, 0.0]])
        value, dlogits = margin_loss(logits, np.array([0]), kappa=0.5)
        assert value[0] == pytest.approx(-0.5)
        assert np.array_equal(dlogits, np.zeros_like(dlogits))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 1, 2])

        def f(z):
            return float(margin_loss(z, labels, kappa=0.0)[0].sum())

        _, dlogits = margin_loss(logits, labels, kappa=0.0)
        fd = finite_difference_grad(f, logits, h=1e-6)
        assert max_rel_err(dlogits, fd) <= 1e-5


class TestAutoSaga:
    def test_single_model_direction_equals_pgd(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=6, random_start=False)
        tr_auto, tr_pgd = [], []
        auto_saga([blob_net], x, y, cfg, trace=tr_auto)
        pgd(blob_net, x, y, cfg, trace=tr_pgd)
        for a, b in zip(tr_auto, tr_pgd):
            assert np.array_equal(a, b)

    def test_given_coefficients_start_the_walk(self, blob_net, blob_data):
        # (1, 0) blends the first model's gradient alone into the first step
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=4, alphas=(1.0, 0.0),
                           random_start=False)
        tr_auto, tr_pgd = [], []
        _, hist = auto_saga([blob_net, other], x, y, cfg, trace=tr_auto)
        pgd(blob_net, x, y, cfg, trace=tr_pgd)
        assert tr_auto[0].tobytes() == tr_pgd[0].tobytes()
        assert np.array_equal(hist[0], np.tile([1.0, 0.0], (len(x), 1)))

    def test_coefficients_stay_on_simplex(self, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=8)
        _, hist = auto_saga([blob_net, other], x, y, cfg)
        assert np.all(hist >= 0.0)
        assert np.allclose(hist.sum(axis=2), 1.0, atol=1e-9)

    def test_duplicate_models_keep_balanced_coefficients(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=10)
        x_adv, hist = auto_saga([blob_net, blob_net], x, y, cfg)
        joint = float(np.all([blob_net.predict(x_adv) != y] * 2, axis=0).mean())
        single = float((blob_net.predict(pgd(blob_net, x, y,
                        AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=10,
                                     random_start=False))) != y).mean())
        assert abs(joint - single) <= 0.05
        assert np.max(np.abs(hist.mean(axis=(0, 1)) - 0.5)) <= 0.05

    def test_collapsed_rows_reset_to_uniform(self, blob_data, monkeypatch, caplog):
        # two copies of one net share every gradient, and a cross-entropy seed
        # for the margin makes df/dalpha = 2 u eps_step sum(sech^2 grad^2) > 0
        # for both; a large coeff_lr then drives each row below zero at every
        # step, so every row collapses and resets at every step
        x, y = blob_data
        net = build_mlp([6, 10, 2], seed=99)
        monkeypatch.setattr(attacks, "margin_loss", lambda logits, labels, kappa:
                            numerics.softmax_cross_entropy(logits, labels, mean=False))
        cfg = AttackConfig(eps_max=0.15, eps_step=0.03, n_iter=4, coeff_lr=1e8,
                           alphas=(0.9, 0.1))
        caplog.set_level(logging.WARNING, logger=attacks.__name__)
        _, hist = auto_saga([net, net], x, y, cfg)
        assert np.array_equal(hist[0], np.tile([0.9, 0.1], (len(x), 1)))
        assert np.all(hist[1:] == 0.5)
        collapses = [r.args[0] for r in caplog.records if r.msg.startswith("blend coefficients")]
        assert collapses == [cfg.n_iter * len(x)]


class TestReportAndFuzz:
    def test_report_joint_not_above_per_model(self, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.25, eps_step=0.05, n_iter=8, seed=1)
        x_adv = pgd(blob_net, x, y, cfg)
        report = AttackReport.build([blob_net, other], x, x_adv, y, iterations=8)
        assert report.joint_rate <= report.per_model_rate.min() + 1e-12
        assert np.max(report.linf) <= 0.25 + 1e-6

    def test_run_attack_dispatch(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2, random_start=False)
        for kind in ("fgsm", "pgd", "mim", "saga", "autosaga"):
            out = run_attack(kind, [blob_net], x, y, cfg)
            assert np.max(np.abs(out - x)) <= 0.1 + 1e-6
        with pytest.raises(ConfigError):
            run_attack("unknown", [blob_net], x, y, cfg)

    def test_projection_fuzz_small(self, blob_net, blob_data):
        # the acceptance suite runs the full 10^3-config version
        x, y = blob_data
        rng = np.random.default_rng(7)
        for _ in range(50):
            eps = float(rng.uniform(0.005, 0.6))
            cfg = AttackConfig(eps_max=eps, eps_step=float(rng.uniform(0.001, eps)),
                               n_iter=int(rng.integers(1, 4)),
                               seed=int(rng.integers(2**31)))
            x_adv = pgd(blob_net, x[:4], y[:4], cfg)
            assert np.max(np.abs(x_adv - x[:4])) <= eps + 1e-6
            assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0


class TestNoCrossCalls:
    """The benchmark wraps each public attack by name and counts its runs, so
    no attack may reach another through the module namespace, and
    ``run_attack`` must look them up at call time."""

    CALLS = {
        "fgsm": lambda m, x, y, cfg: attacks.fgsm(m, x, y, cfg.eps_max),
        "pgd": lambda m, x, y, cfg: attacks.pgd(m, x, y, cfg),
        "mim": lambda m, x, y, cfg: attacks.mim(m, x, y, cfg),
        "saga": lambda m, x, y, cfg: attacks.saga([m], x, y, cfg),
        "auto_saga": lambda m, x, y, cfg: attacks.auto_saga([m], x, y, cfg),
    }

    @pytest.mark.parametrize("broken", sorted(CALLS))
    def test_others_run_with_one_attack_broken(self, broken, blob_net, blob_data,
                                               monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError(f"{broken} was called")

        monkeypatch.setattr(attacks, broken, fail)
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2)
        for name, call in self.CALLS.items():
            if name != broken:
                call(blob_net, x[:8], y[:8], cfg)

    def test_run_attack_uses_the_patched_function(self, monkeypatch):
        marker = np.zeros((1, 2))
        monkeypatch.setattr(attacks, "pgd", lambda model, x, labels, cfg, trace=None: marker)
        out = run_attack("pgd", [None], np.ones((1, 2)), np.zeros(1, dtype=int), AttackConfig())
        assert out is marker


class TestBenchHooks:
    """``perfbench`` patches each point of ``tracing.trace_points()`` in its
    owner's ``__dict__`` and binds each traced attack's arguments by name, so
    a rename here would otherwise show only when the benchmark runs."""

    @pytest.fixture(scope="class")
    def tracing(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_trace_points_are_own_attributes(self, tracing):
        for owner, attr, _, _ in tracing.trace_points():
            assert attr in owner.__dict__, f"{owner.__name__}.{attr}"

    def test_attacks_keep_the_parameters_the_checker_binds(self, tracing):
        for loop in tracing.ATTACK_LOOPS:
            module, name = loop.split(".")
            assert module == "attacks"
            params = set(inspect.signature(attacks.__dict__[name]).parameters)
            assert {"x", "labels", "eps" if name == "fgsm" else "cfg"} <= params, name
            assert params & {"model", "models"}, name
