import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from snnadv import attacks
from snnadv.ann import build_mlp
from snnadv.attacks import AttackConfig, AttackReport, pgd
from snnadv.errors import ConfigError, SelectionError
from snnadv.harness import (COMPARISON_COLUMNS, EvalSet, multi_model_comparison,
                            select_eval_set, surrogate_sweep, transfer_matrix, transferability,
                            write_comparison_csv)
from snnadv.surrogate import SurrogateSpec

from conftest import traced_kept


class _Oracle:
    """Stub model with a fixed correctness policy."""

    def __init__(self, labels, wrong_on_perturbed=False, wrong_class=3, n_classes=10):
        self.labels = np.asarray(labels)
        self.wrong_on_perturbed = wrong_on_perturbed
        self.wrong_class = wrong_class
        self.n_classes = n_classes
        self._clean = None

    def bind_clean(self, x):
        self._clean = np.asarray(x).copy()
        return self

    def predict(self, x):
        x = np.asarray(x)
        if self._clean is not None and self.wrong_on_perturbed:
            idx_match = x.shape == self._clean.shape and np.allclose(x, self._clean)
            if not idx_match:
                return (self.labels[: len(x)] + 1) % self.n_classes
        preds = self.labels[: len(x)].copy()
        return preds


class _ClassBlind(_Oracle):
    def predict(self, x):
        preds = self.labels[: len(x)].copy()
        preds[preds == self.wrong_class] = (self.wrong_class + 1) % self.n_classes
        return preds


class TestSelectEvalSet:
    def test_perfect_models_balanced(self):
        y = np.arange(10).repeat(5)
        x = np.zeros((len(y), 4), dtype=np.float32)
        model = _Oracle(y)
        es = select_eval_set([model], x, y, 10, seed=0)
        assert len(es.indices) == 10
        assert np.bincount(es.y, minlength=10).tolist() == [1] * 10

    def test_uneven_quota_differs_by_at_most_one(self):
        y = np.arange(10).repeat(5)
        x = np.zeros((len(y), 4), dtype=np.float32)
        es = select_eval_set([_Oracle(y)], x, y, 13, seed=0)
        counts = np.bincount(es.y, minlength=10)
        assert counts.sum() == 13
        assert counts.max() - counts.min() <= 1

    def test_starved_class_reported_by_name(self):
        y = np.arange(10).repeat(5)
        x = np.zeros((len(y), 4), dtype=np.float32)
        blind = _ClassBlind(y, wrong_class=3)
        with pytest.raises(SelectionError, match="class 3"):
            select_eval_set([blind], x, y, 10, seed=0)

    def test_empty_pool_names_starved_classes(self, blob_net, blob_data):
        x, y = blob_data
        with pytest.raises(SelectionError, match="class 0: have 0, need 2; class 1"):
            select_eval_set([blob_net], x[:0], y[:0], 4, seed=0)

    def test_empty_set_verifies(self, blob_net, blob_data):
        x, y = blob_data
        es = select_eval_set([blob_net], x, y, 0, seed=0)
        assert es.x.shape == (0, x.shape[1])
        es.verify([blob_net])

    def test_selection_reverified_correct(self, blob_net, blob_data):
        x, y = blob_data
        es = select_eval_set([blob_net], x, y, 20, seed=0)
        assert np.all(blob_net.predict(es.x) == es.y)
        es.verify([blob_net])

    def test_set_keeps_its_indices_not_its_rows(self):
        y = np.arange(10).repeat(40)
        x = np.random.default_rng(0).random((len(y), 784), dtype=np.float32)
        oracle = _Oracle(y)
        select = lambda: select_eval_set([oracle], x, y, 300, seed=0)
        select()  # lazy set-up stays out of the trace
        es, kept = traced_kept(select)
        assert kept <= es.indices.nbytes + 4096, kept
        assert es.x.tobytes() == x[es.indices].tobytes() and es.x.dtype == x.dtype
        assert es.y.tobytes() == y[es.indices].tobytes() and es.y.dtype == y.dtype

    def test_verify_detects_drift(self, blob_data):
        x, y = blob_data
        es = EvalSet(indices=np.arange(4), source_x=x[:4], source_y=(y[:4] + 1) % 2)
        oracle = _Oracle(y[:4])  # predicts the true labels, not the flipped ones
        with pytest.raises(SelectionError):
            es.verify([oracle])

    def test_verify_predicts_a_model_named_twice_once(self, blob_data):
        x, y = blob_data
        es = EvalSet(indices=np.arange(4), source_x=x[:4], source_y=y[:4])
        calls = []

        class _Counting(_Oracle):
            def predict(self, x):
                calls.append(self)
                return super().predict(x)

        good, bad = _Counting(y[:4]), _Counting((y[:4] + 1) % 2)
        es.verify([good, good])
        assert calls == [good]
        # a failing model is reported at its first index
        with pytest.raises(SelectionError, match="for model 1$"):
            es.verify([good, bad, bad, good])
        assert calls == [good, good, bad]


class TestTransferability:
    """The rates from fake adversarial batches: ``run_attack`` returns
    ``perturb(x)``."""

    @pytest.fixture
    def fake_attack(self, monkeypatch):
        def install(perturb):
            monkeypatch.setattr(attacks, "run_attack",
                                lambda kind, models, x, labels, cfg, index=None: perturb(x))
        return install

    def test_always_fooled_oracle_gives_one(self, blob_net, blob_data, fake_attack):
        x, y = blob_data
        es = select_eval_set([blob_net], x, y, 20, seed=1)
        fooled = _Oracle(es.y, wrong_on_perturbed=True, n_classes=2).bind_clean(es.x)
        fake_attack(lambda xs: np.clip(xs + 0.05, 0, 1))
        assert transferability(blob_net, [fooled], [es], "pgd", AttackConfig()) == [1.0]

    def test_identity_attack_gives_zero(self, blob_net, blob_data, fake_attack):
        x, y = blob_data
        es = select_eval_set([blob_net], x, y, 20, seed=1)
        fake_attack(lambda xs: xs)
        assert transferability(blob_net, [blob_net], [es], "pgd", AttackConfig()) == [0.0]

    def test_manual_fixture_fraction(self, fake_attack):
        y = np.array([0, 1, 2, 3, 4])
        x = np.zeros((5, 2), dtype=np.float32)
        gen = _Oracle(y, n_classes=5)
        # evaluator misclassifies exactly classes 1 and 3 after perturbation
        class _Two(_Oracle):
            def predict(self, xs):
                preds = self.labels[: len(xs)].copy()
                if not np.allclose(xs, 0.0):
                    preds[1] = 0
                    preds[3] = 0
                return preds
        ev = _Two(y, n_classes=5)
        es = EvalSet(indices=np.arange(5), source_x=x, source_y=y)
        fake_attack(lambda xs: xs + 0.1)
        assert transferability(gen, [ev], [es], "pgd", AttackConfig()) == [pytest.approx(2 / 5)]

    @pytest.mark.parametrize("other", ["x", "y"])
    def test_sets_over_other_arrays_are_refused_before_any_run(self, other, blob_net,
                                                               blob_data, monkeypatch):
        x, y = blob_data
        sources = {"x": x, "y": y}
        sources[other] = sources[other].copy()
        # both sets hold index 0, each of its own arrays
        sets = [EvalSet(indices=np.array([0, 1]), source_x=x, source_y=y),
                EvalSet(indices=np.array([0, 2]), source_x=sources["x"],
                        source_y=sources["y"])]

        def refuse(*args, **kwargs):
            raise AssertionError("a set was verified or attacked")

        monkeypatch.setattr(EvalSet, "verify", refuse)
        monkeypatch.setattr(attacks, "run_attack", refuse)
        with pytest.raises(SelectionError, match="^evaluation sets index different arrays$"):
            transferability(blob_net, [blob_net, blob_net], sets, "pgd", AttackConfig())

    @pytest.mark.parametrize("kind", ["fgsm", "pgd", "mim"])
    def test_one_pair_equals_its_matrix_cell(self, kind, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.2, eps_step=0.05, n_iter=5, seed=3)
        tm = transfer_matrix([blob_net, other], ["a", "b"], x, y, 16, cfg,
                             attack_names=(kind,), seed=0)
        pair_set = select_eval_set([blob_net, other], x, y, 16, seed=0)
        [rate] = transferability(blob_net, [other], [pair_set], kind, cfg)
        assert np.float64(rate).tobytes() == tm.per_attack[kind][0, 1].tobytes()


class TestTransferMatrix:
    def test_single_model_diagonal_is_whitebox_rate(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.3, eps_step=0.05, n_iter=10, seed=0)
        tm = transfer_matrix([blob_net], ["net"], x, y, 20, cfg,
                             attack_names=("pgd",), seed=0)
        es = select_eval_set([blob_net], x, y, 20, seed=0)
        x_adv = pgd(blob_net, es.x, es.y, cfg, index=es.indices)
        want = float((blob_net.predict(x_adv) != es.y).mean())
        assert tm.per_attack["pgd"][0, 0] == pytest.approx(want)
        assert tm.max_matrix[0, 0] == pytest.approx(want)

    def test_entries_in_unit_interval(self, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.2, eps_step=0.05, n_iter=5, seed=0)
        tm = transfer_matrix([blob_net, other], ["a", "b"], x, y, 16, cfg,
                             attack_names=("fgsm", "pgd", "mim"), seed=0)
        for matrix in list(tm.per_attack.values()) + [tm.max_matrix]:
            assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)
        assert np.all(tm.max_matrix >= tm.per_attack["fgsm"] - 1e-12)
        assert np.array_equal(tm.max_matrix, np.maximum.reduce(list(tm.per_attack.values())))

    def test_deterministic(self, blob_net, blob_data):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.2, eps_step=0.05, n_iter=3, seed=5)
        a = transfer_matrix([blob_net], ["net"], x, y, 10, cfg, attack_names=("pgd",))
        b = transfer_matrix([blob_net], ["net"], x, y, 10, cfg, attack_names=("pgd",))
        assert np.array_equal(a.per_attack["pgd"], b.per_attack["pgd"])


class TestSurrogateSweep:
    def test_zero_eps_column_is_clean_accuracy(self, bp_snn, digits):
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 50, seed=0)
        cfg = AttackConfig(eps_max=1.0, eps_step=0.02, n_iter=3, seed=0)
        grid = surrogate_sweep(bp_snn, [0.0, 0.05], [SurrogateSpec(kind="arctan")],
                               es, cfg)
        assert grid.robust_accuracy[0, 0] == 1.0
        assert grid.success_rate[0, 0] == 0.0

    def test_grid_keeps_each_samples_outcome(self, bp_snn, digits):
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 50, seed=0)
        cfg = AttackConfig(eps_max=1.0, eps_step=0.02, n_iter=3, seed=0)
        specs = [SurrogateSpec(kind="arctan"), SurrogateSpec(kind="sigmoid")]
        grid = surrogate_sweep(bp_snn, [0.0, 0.05], specs, es, cfg)
        assert grid.still_correct.dtype == bool and grid.still_correct.shape == (2, 2, 50)
        # rows in the set's order: each cell is its own PGD run, scored sample by sample
        for si, spec in enumerate(specs):
            view = bp_snn.with_surrogate(spec)
            x_adv = pgd(view, es.x, es.y, replace(cfg, eps_max=0.05, eps_step=0.0125),
                        index=es.indices)
            assert np.array_equal(grid.still_correct[si, 1], view.predict(x_adv) == es.y)
        assert grid.still_correct[:, 0].all() and not grid.still_correct[:, 1].all()
        want = np.array([[np.mean(cell) for cell in row] for row in grid.still_correct])
        assert grid.robust_accuracy.tobytes() == want.tobytes()
        assert grid.success_rate.tobytes() == (1.0 - want).tobytes()

    def test_robust_accuracy_non_increasing_in_eps(self, bp_snn, digits):
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 50, seed=0)
        cfg = AttackConfig(eps_max=1.0, eps_step=0.02, n_iter=10, seed=0)
        grid = surrogate_sweep(bp_snn, [0.0, 0.05, 0.1, 0.2],
                               [SurrogateSpec(kind="arctan")], es, cfg)
        row = grid.robust_accuracy[0]
        assert np.all(np.diff(row) <= 1e-12)

    def test_forward_spec_restored(self, bp_snn, digits):
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 20, seed=0)
        original = bp_snn.surrogate
        cfg = AttackConfig(eps_max=1.0, eps_step=0.02, n_iter=2, seed=0)
        surrogate_sweep(bp_snn, [0.05], [SurrogateSpec(kind="sigmoid")], es, cfg)
        assert bp_snn.surrogate == original

    def test_model_untouched_when_an_attack_raises(self, bp_snn, digits, monkeypatch):
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 10, seed=0)
        original = bp_snn.surrogate
        seen = []

        def pgd_failing_on_second_kernel(model, x, labels, cfg, trace=None, index=None):
            seen.append((model.surrogate.kind, model.layers is bp_snn.layers))
            if len(seen) == 2:
                raise RuntimeError("attack failed")
            return x

        monkeypatch.setattr(attacks, "pgd", pgd_failing_on_second_kernel)
        cfg = AttackConfig(eps_max=1.0, eps_step=0.02, n_iter=2, seed=0)
        with pytest.raises(RuntimeError):
            surrogate_sweep(bp_snn, [0.05], [SurrogateSpec(kind="sigmoid"),
                                             SurrogateSpec(kind="erfc")], es, cfg)
        assert bp_snn.surrogate is original
        # each kernel is attacked on a view that shares the trained weights
        assert seen == [("sigmoid", True), ("erfc", True)]

    @pytest.mark.parametrize("eps,kinds,message", [
        ([0.05], [], "surrogate sweep needs at least one kernel and one eps"),
        ([], ["arctan"], "surrogate sweep needs at least one kernel and one eps"),
        ([0.0, 0.05, -0.1], ["arctan", "sigmoid"], r"eps_max must be in \[0, 1\], got -0.1"),
    ], ids=["no-kernel", "no-eps", "negative-eps"])
    def test_grid_is_checked_before_the_first_attack(self, bp_snn, digits, monkeypatch,
                                                     eps, kinds, message):
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 10, seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("an attack ran")

        monkeypatch.setattr(attacks, "run_attack", refuse)
        cfg = AttackConfig(eps_max=1.0, eps_step=0.02, n_iter=2, seed=0)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            surrogate_sweep(bp_snn, eps, [SurrogateSpec(kind=k) for k in kinds], es, cfg)


class TestMultiModelComparison:
    def test_duplicate_pair_saturates_equal(self, blob_net, blob_data):
        x, y = blob_data
        single = AttackConfig(eps_max=0.5, eps_step=0.05, n_iter=20, seed=0)
        sagac = AttackConfig(eps_max=0.5, eps_step=0.05, n_iter=20, seed=0)
        rows = multi_model_comparison([(blob_net, blob_net)], x, y, 20, single, sagac,
                                      seed=0)
        row = rows[0]
        # at a saturating budget every column reaches the white-box joint rate
        assert row["max_mim"] == row["max_pgd"] == row["basic_saga"] == row["auto_saga"] == 1.0

    def test_columns_in_unit_interval(self, blob_net, blob_data, tmp_path):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        single = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=5, seed=0)
        sagac = AttackConfig(eps_max=0.1, eps_step=0.01, n_iter=5, seed=0)
        rows = multi_model_comparison([(blob_net, other), (other, blob_net)], x, y, 16,
                                      single, sagac, seed=0)
        assert COMPARISON_COLUMNS == ("max_mim", "max_pgd", "basic_saga", "auto_saga")
        for row in rows:
            assert list(row) == ["pair", *COMPARISON_COLUMNS, "n"]
            assert all(0.0 <= row[key] <= 1.0 for key in COMPARISON_COLUMNS)
        lines = write_comparison_csv(rows, tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == ",".join(["pair", *COMPARISON_COLUMNS, "n"])
        assert lines[1] == ",".join(["pair0", *(f"{rows[0][k]:.6f}" for k in COMPARISON_COLUMNS),
                                     "16"])

    def test_joint_success_definition(self, blob_data):
        x, y = blob_data
        always = _Oracle(y, wrong_on_perturbed=True, n_classes=2).bind_clean(x)
        never = _Oracle(y, n_classes=2)
        joint = lambda models: AttackReport.build(models, x, x + 0.1, y, iterations=1).joint_rate
        assert joint([always, never]) == 0.0
        assert joint([always]) == 1.0


# sha256 of json.dumps(rows, sort_keys=True) for each case of test_rows_are_pinned,
# computed before the comparison ran its attacks through ``run_attack``
COMPARISON_PINS = {
    "snn+attention": "d19a135e172a7baf49ee9a611acc0ac2e5dbab8b10d1d605fa15cb3287fdfe9a",
    "mlp+snn": "35190249c5148a5c4e7c799a45ca7de8ba17a300432df1e6b000e0f9161a4fdd",
}


class TestComparisonPins:
    """The comparison's rows, byte for byte, on the trained fixtures: one
    pair blends uniformly, the other with given coefficients."""

    @pytest.mark.parametrize("name,alphas", [("snn+attention", None),
                                             ("mlp+snn", (0.7, 0.3))],
                             ids=["snn+attention-uniform", "mlp+snn-given"])
    def test_rows_are_pinned(self, name, alphas, bp_snn, ann_mlp, attention_net, digits):
        _, _, test_x, test_y = digits
        pair = {"snn+attention": (bp_snn, attention_net), "mlp+snn": (ann_mlp, bp_snn)}[name]
        single = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=5, seed=3)
        sagac = AttackConfig(eps_max=0.1, eps_step=0.01, n_iter=5, coeff_lr=100.0,
                             alphas=alphas, seed=3)
        rows = multi_model_comparison([pair], test_x, test_y, 40, single, sagac, seed=2,
                                      pair_names=[name])
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == COMPARISON_PINS[name], rows


class TestAttackRouting:
    """The harness starts every attack through ``attacks.run_attack``."""

    @pytest.fixture
    def routed(self, monkeypatch):
        calls = []
        run_attack = attacks.run_attack

        def recording(kind, models, x, labels, cfg, index=None):
            calls.append((kind, list(models), index))
            return run_attack(kind, models, x, labels, cfg, index=index)

        monkeypatch.setattr(attacks, "run_attack", recording)
        return calls

    def test_comparison_makes_2m_plus_2_runs_per_pair(self, routed, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2, seed=0)
        pairs = [(blob_net, other), (other, blob_net)]
        multi_model_comparison(pairs, x, y, 16, cfg, cfg, seed=0)
        assert len(routed) == 2 * (2 * 2 + 2)
        for pair, runs in zip(pairs, (routed[:6], routed[6:])):
            evalset = select_eval_set(list(pair), x, y, 16, seed=0)
            # MIM then PGD per model, then SAGA, then Auto-SAGA
            assert [kind for kind, _, _ in runs] == ["mim", "pgd", "mim", "pgd", "saga",
                                                     "autosaga"]
            assert [models for _, models, _ in runs] == [[pair[0]], [pair[0]], [pair[1]],
                                                         [pair[1]], list(pair), list(pair)]
            assert all(np.array_equal(index, evalset.indices) for _, _, index in runs)

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_comparison_verifies_each_pair_set_once_before_its_runs(self, routed, monkeypatch,
                                                                     blob_net, blob_data,
                                                                     n_pairs):
        x, y = blob_data
        verify = EvalSet.verify

        def recording(evalset, models):
            routed.append(("verify", list(models), evalset.indices))
            verify(evalset, models)

        monkeypatch.setattr(EvalSet, "verify", recording)
        other = build_mlp([6, 10, 2], seed=99)
        pairs = [(blob_net, other), (other, blob_net)][:n_pairs]
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2, seed=0)
        multi_model_comparison(pairs, x, y, 16, cfg, cfg, seed=0)
        assert [kind for kind, _, _ in routed] \
            == ["verify", "mim", "pgd", "mim", "pgd", "saga", "autosaga"] * n_pairs
        assert [models for kind, models, _ in routed if kind == "verify"] \
            == [list(pair) for pair in pairs]

    def test_transferability_makes_one_run_on_the_union(self, routed, blob_net, blob_data):
        x, y = blob_data
        other = build_mlp([6, 10, 2], seed=99)
        sets = [select_eval_set([blob_net], x, y, 16, seed=1),
                select_eval_set([blob_net, other], x, y, 16, seed=0)]
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2, seed=0)
        transferability(blob_net, [blob_net, other], sets, "pgd", cfg)
        [(kind, models, index)] = routed
        assert kind == "pgd" and models == [blob_net]
        union = np.union1d(sets[0].indices, sets[1].indices)
        assert len(union) > 16 and np.array_equal(index, union)

    @pytest.mark.parametrize("run,message", [
        (lambda models, x, y, cfg: transfer_matrix(models, ["a"], x, y, 16, cfg),
         "1 names for 2 models"),
        (lambda models, x, y, cfg: transfer_matrix(models, ["a", "b", "c"], x, y, 16, cfg),
         "3 names for 2 models"),
        (lambda models, x, y, cfg: multi_model_comparison(
            [tuple(models), tuple(models[::-1])], x, y, 16, cfg, cfg, pair_names=["p"]),
         "1 pair names for 2 pairs"),
    ], ids=["matrix-short", "matrix-long", "comparison-short"])
    def test_name_list_of_another_length_is_refused_before_any_run(self, routed, blob_net,
                                                                    blob_data, run, message):
        x, y = blob_data
        cfg = AttackConfig(eps_max=0.1, eps_step=0.02, n_iter=2, seed=0)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run([blob_net, build_mlp([6, 10, 2], seed=99)], x, y, cfg)
        assert routed == []

    def test_sweep_makes_one_run_per_kernel_and_nonzero_eps(self, routed, bp_snn, digits):
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 10, seed=0)
        cfg = AttackConfig(eps_max=1.0, eps_step=0.02, n_iter=2, seed=0)
        specs = [SurrogateSpec(kind="sigmoid"), SurrogateSpec(kind="erfc")]
        surrogate_sweep(bp_snn, [0.0, 0.05, 0.1], specs, es, cfg)
        assert [(kind, len(models), models[0].surrogate.kind) for kind, models, _ in routed] \
            == [("pgd", 1, "sigmoid")] * 2 + [("pgd", 1, "erfc")] * 2
        assert all(models[0].layers is bp_snn.layers for _, models, _ in routed)
        assert all(np.array_equal(index, es.indices) for _, _, index in routed)
