import numpy as np
import pytest

from snnadv import numerics
from snnadv.errors import DimensionError, EvaluationError, IndexRangeError

from oracles import finite_difference_grad, max_rel_err


class TestSoftmaxCrossEntropy:
    def test_uniform_softmax(self):
        loss, _ = numerics.softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert abs(loss - np.log(2.0)) < 1e-7

    def test_stability_no_overflow(self):
        loss, dlogits = numerics.softmax_cross_entropy(np.array([[1000.0, 0.0]]),
                                                       np.array([0]))
        assert loss < 1e-6
        assert np.all(np.isfinite(dlogits))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 5))
        labels = np.array([0, 3, 2])
        _, dlogits = numerics.softmax_cross_entropy(logits, labels)
        fd = finite_difference_grad(
            lambda z: numerics.softmax_cross_entropy(z, labels)[0], logits, h=1e-6)
        assert max_rel_err(dlogits, fd) <= 1e-4

    def test_summed_loss_seeds_each_row_alone(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 5))
        labels = np.array([1, 0, 4, 2])
        loss, dlogits = numerics.softmax_cross_entropy(logits, labels, mean=False)
        fd = finite_difference_grad(
            lambda z: numerics.softmax_cross_entropy(z, labels, mean=False)[0], logits, h=1e-6)
        assert max_rel_err(dlogits, fd) <= 1e-4
        assert loss == pytest.approx(4 * numerics.softmax_cross_entropy(logits, labels)[0])
        # a row's seed is the same bytes alone as inside the batch
        for i in range(4):
            alone = numerics.softmax_cross_entropy(logits[i:i + 1], labels[i:i + 1], mean=False)
            assert np.array_equal(alone[1][0], dlogits[i])

    def test_label_out_of_range(self):
        with pytest.raises(IndexRangeError):
            numerics.softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_logits_must_be_two_dimensional(self):
        with pytest.raises(DimensionError,
                           match=r"^logits must be 2-d \(batch x classes\), got \(3,\)$"):
            numerics.softmax_cross_entropy(np.zeros(3), np.array([0]))

    def test_labels_must_match_the_batch(self):
        with pytest.raises(DimensionError, match=r"^labels shape \(1,\) does not match batch 2$"):
            numerics.softmax_cross_entropy(np.zeros((2, 3)), np.array([0]))

    def test_infinite_loss_with_a_finite_gradient_rejected(self):
        # the float32 logit gap overflows to inf: the true class gets probability 0,
        # while the gradient stays finite
        logits = np.array([[3e38, -3e38]], dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(
                EvaluationError, match="^non-finite cross-entropy loss$"):
            numerics.softmax_cross_entropy(logits, np.array([1]))


class TestFiniteDifference:
    def test_linear_function(self):
        g = finite_difference_grad(lambda x: float(x.sum()), np.zeros((2, 3)))
        assert np.allclose(g, 1.0, atol=1e-9)

    def test_quadratic(self):
        g = finite_difference_grad(lambda x: 0.5 * float((x * x).sum()),
                                   np.array([1.0, 2.0]))
        assert np.allclose(g, [1.0, 2.0], atol=1e-8)

    def test_bad_step_rejected(self):
        with pytest.raises(EvaluationError):
            finite_difference_grad(lambda x: 0.0, np.zeros(2), h=0.0)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(EvaluationError):
            finite_difference_grad(lambda x: float("nan"), np.zeros(2))
