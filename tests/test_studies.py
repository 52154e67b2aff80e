"""Desk-scale studies backing the two directional findings whose acceptance
margins do not materialize at the pinned configuration (see the failing
acceptance criteria 4 and 5 for the as-stated runs).

These tests document where each finding DOES reproduce at this scale:
the kernel-choice effect appears through the printed (reciprocal)
piecewise-exponential form, whose unrolled gradients explode, and the
conversion-transferability gap reproduces with the stated margin at
perturbation budgets below the desk models' saturation point. Across model
families, examples crafted on attention rarely fool the SNNs, while those
crafted on the ANN often do.
"""

import numpy as np
import pytest

from snnadv import numerics
from snnadv.attacks import AttackConfig
from snnadv.errors import EvaluationError
from snnadv.harness import select_eval_set, surrogate_sweep, transfer_matrix, transferability
from snnadv.surrogate import SurrogateSpec

ARCTAN = SurrogateSpec(kind="arctan")


class TestKernelChoiceStudy:
    def test_decaying_kernels_are_equally_effective_at_depth_one(self, bp_snn, digits):
        # with one hidden spiking layer every gradient path carries a single
        # kernel factor, so sharp and fat-tailed kernels attack equally well
        _, _, test_x, test_y = digits
        es = select_eval_set([bp_snn], test_x, test_y, 100, seed=0)
        cfg = AttackConfig(eps_max=1.0, eps_step=0.05, n_iter=20, seed=0)
        grid = surrogate_sweep(bp_snn, [0.2],
                               [ARCTAN, SurrogateSpec(kind="piecewise_exp")], es, cfg)
        arctan_r, pwe_r = grid.robust_accuracy[:, 0]
        assert abs(arctan_r - pwe_r) < 0.10

    def test_literal_pwe_form_masks_gradients_entirely(self, bp_snn, digits):
        # the printed reciprocal form grows as e^(beta|d|); unrolled products
        # overflow and the toolkit surfaces the non-finite gradient instead of
        # silently feeding garbage to the attack: gradient masking, made loud
        _, _, test_x, test_y = digits
        net = bp_snn.astype(np.float64).with_surrogate(
            SurrogateSpec(kind="piecewise_exp", pwe_literal=True))
        logits, cache = net.forward_cached(test_x[:8])
        _, dlogits = numerics.softmax_cross_entropy(logits, test_y[:8])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvaluationError):
                net.backward(cache, dlogits)


class TestTransferabilityStudy:
    def test_converted_gap_reproduces_below_saturation(self, ann_mlp, converted_snn,
                                                       indep_snn, digits):
        # the stated +10-point margin holds at eps=0.05; by eps=0.2 every
        # desk-scale model is past saturation and both rates pin at 1.0
        _, _, test_x, test_y = digits
        es = select_eval_set([ann_mlp, converted_snn, indep_snn], test_x, test_y,
                             200, seed=0)
        cfg = AttackConfig(eps_max=0.05, eps_step=0.0125, n_iter=20, seed=0)
        t_conv, t_indep = transferability(ann_mlp, [converted_snn, indep_snn], [es, es],
                                          "pgd", cfg)
        assert t_conv >= t_indep + 0.10

    def test_saturation_at_pinned_budget(self, indep_snn, digits):
        # random +-0.2 sign noise alone breaks the independent SNN on a large
        # fraction of samples: structured transfer cannot stay below ~100%
        _, _, test_x, test_y = digits
        es = select_eval_set([indep_snn], test_x, test_y, 200, seed=0)
        rng = np.random.default_rng(0)
        noise = 0.2 * rng.choice([-1.0, 1.0], size=es.x.shape).astype(np.float32)
        noisy_acc = float((indep_snn.predict(np.clip(es.x + noise, 0, 1)) == es.y).mean())
        assert noisy_acc < 0.80


class TestModelFamilyTransferStudy:
    def test_attention_transfers_less_to_snns_than_the_ann(self, ann_mlp, bp_snn, converted_snn,
                                                            attention_net, digits):
        # experiment 2 below saturation, on a grid fixed before it was run: at every
        # budget and for both attacks, attention -> SNN transfer stays below ANN -> SNN
        _, _, test_x, test_y = digits
        names = ["ann", "snn", "converted", "attention"]
        models = [ann_mlp, bp_snn, converted_snn, attention_net]
        misses = []
        for eps in (0.03, 0.05, 0.1):
            cfg = AttackConfig(eps_max=eps, eps_step=eps / 4, n_iter=20, seed=0)
            matrix = transfer_matrix(models, names, test_x, test_y, 200, cfg,
                                     attack_names=("pgd", "mim"), seed=0)
            for attack, rates in matrix.per_attack.items():
                for target in (1, 2):  # the two SNNs
                    if not rates[3, target] < rates[0, target]:
                        misses.append(f"{attack}@{eps} {names[target]}: attention "
                                      f"{rates[3, target]:.3f} >= ann {rates[0, target]:.3f}")
        assert not misses, "; ".join(misses)
