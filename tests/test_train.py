import numpy as np
import pytest

from snnadv.ann import build_mlp
from snnadv.dynamics import build_snn_mlp
from snnadv.errors import TrainingError
from snnadv.surrogate import SurrogateSpec
from snnadv.train import EVAL_BATCH, Adam, SGD, evaluate, predict_batched, train_epochs


class _FixedPredictor:
    """Stub classifier returning preset labels; enough for evaluate()."""

    def __init__(self, preds, n_classes=10):
        self.preds = np.asarray(preds)
        self.n_classes = n_classes

    def predict(self, x):
        return self.preds[: len(x)]


class TestTrainLoop:
    def test_zero_lr_leaves_weights_unchanged(self, blob_data):
        x, y = blob_data
        for opt in (SGD(lr=0.0, momentum=0.9), Adam(lr=0.0)):
            net = build_mlp([6, 8, 2], seed=1)
            before = [p.copy() for _, p in net.params()]
            train_epochs(net, x, y, epochs=2, optimizer=opt, seed=0, verbose=False)
            for b, (_, p) in zip(before, net.params()):
                assert np.array_equal(b, p)

    def test_blobs_reach_99_percent(self, blob_net, blob_data):
        x, y = blob_data
        assert evaluate(blob_net, x, y).accuracy >= 0.99

    def test_loss_decreases_over_first_epochs(self, blob_data):
        x, y = blob_data
        net = build_mlp([6, 8, 2], seed=2)
        history = train_epochs(net, x, y, epochs=3, seed=0, verbose=False)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_seed_determinism(self, blob_data):
        x, y = blob_data
        weights = []
        for _ in range(2):
            net = build_mlp([6, 8, 2], seed=4)
            train_epochs(net, x, y, epochs=3, seed=11, verbose=False)
            weights.append([p.copy() for _, p in net.params()])
        for a, b in zip(*weights):
            assert np.array_equal(a, b)

    def test_divergence_raises_with_epoch_index(self, blob_data):
        x, y = blob_data
        net = build_mlp([6, 8, 2], seed=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train_epochs(net, x, y, epochs=50, optimizer=SGD(lr=1e12, momentum=0.99),
                             seed=0, verbose=False)

    def test_spiking_model_requires_spec(self, blob_data):
        x, y = blob_data
        snn = build_snn_mlp([6, 8, 2], T=4, seed=0)
        with pytest.raises(TrainingError):
            train_epochs(snn, x, y, epochs=1, seed=0, verbose=False)

    def test_spiking_model_trains_on_blobs(self, blob_data):
        from snnadv.dynamics import NeuronConfig
        x, y = blob_data
        snn = build_snn_mlp([6, 16, 2], T=4, seed=0,
                            neuron=NeuronConfig(leak=0.9, threshold=0.5))
        train_epochs(snn, x, y, epochs=25, seed=0, spec=SurrogateSpec(kind="arctan"),
                     verbose=False)
        assert evaluate(snn, x, y).accuracy >= 0.95


class TestEvaluate:
    def test_perfect_predictor(self):
        y = np.array([0, 1, 2, 1])
        model = _FixedPredictor(y, n_classes=3)
        assert evaluate(model, np.zeros((4, 2)), y).accuracy == 1.0

    def test_constant_predictor_on_balanced_data(self):
        y = np.arange(10).repeat(5)
        model = _FixedPredictor(np.zeros(len(y), dtype=int), n_classes=10)
        assert evaluate(model, np.zeros((len(y), 2)), y).accuracy == pytest.approx(0.10)

    def test_matches_hand_count(self):
        y = np.array([0, 1, 1, 2, 0])
        preds = np.array([0, 1, 2, 2, 1])  # 3 correct out of 5
        model = _FixedPredictor(preds, n_classes=3)
        result = evaluate(model, np.zeros((5, 2)), y)
        assert result.accuracy == pytest.approx(3 / 5)
        assert result.per_class_total.tolist() == [2, 2, 1]
        assert result.per_class_correct.tolist() == [1, 1, 1]

    def test_empty_data_rejected(self):
        model = _FixedPredictor(np.zeros(0, dtype=int), n_classes=3)
        with pytest.raises(TrainingError):
            evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestPredictBatched:
    @pytest.mark.parametrize("model", [build_mlp([4, 5, 3], seed=0),
                                       build_snn_mlp([4, 5, 3], T=3, seed=0)],
                             ids=["ann", "snn"])
    def test_zero_rows_give_empty_predictions(self, model):
        x = np.random.default_rng(0).uniform(0, 1, (EVAL_BATCH + 3, 4)).astype(np.float32)
        full = predict_batched(model, x)
        assert np.array_equal(full, model.predict(x))
        empty = predict_batched(model, x[:0])
        assert empty.shape == (0,) and empty.dtype == full.dtype
