import hashlib

import numpy as np
import pytest

from snnadv import numerics
from snnadv.ann import build_mlp
from snnadv.attention import TinyAttentionNet
from snnadv.data import synth_blobs, synth_digits
from snnadv.dynamics import NeuronConfig, build_snn_mlp
from snnadv.errors import ConfigError, TrainingError
from snnadv.surrogate import SurrogateSpec
from snnadv.train import Adam, SGD, evaluate, make_optimizer, train_epochs

from conftest import cache_arrays, forward_inputs, held_nbytes, traced_peak


class _FixedPredictor:
    """Stub classifier returning preset labels; enough for evaluate()."""

    def __init__(self, preds):
        self.preds = np.asarray(preds)

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

    @pytest.mark.parametrize("optimizer", [SGD, Adam])
    @pytest.mark.parametrize("lr", [-1.0, float("inf"), float("nan")])
    def test_negative_or_non_finite_rate_rejected(self, optimizer, lr):
        # a negative rate would train by gradient ascent
        with pytest.raises(ConfigError, match=f"^learning rate must be finite and >= 0, got {lr}$"):
            optimizer(lr=lr)

    @pytest.mark.parametrize("kind,name,lr,want", [
        ("snn", "auto", 0.0, (Adam, 1e-3)), ("ann", "auto", 0.0, (SGD, 0.05)),
        ("attention", "auto", 0.0, (SGD, 0.05)), ("snn", "sgd", 0.2, (SGD, 0.2)),
        ("attention", "adam", 0.01, (Adam, 0.01))])
    def test_one_optimizer_rule(self, kind, name, lr, want):
        # auto: Adam for spiking models, SGD for the rest; lr 0: the class's default
        optimizer = make_optimizer(kind, name, lr)
        assert (type(optimizer), optimizer.lr) == want

    def test_blobs_reach_99_percent(self, blob_net, blob_data):
        x, y = blob_data
        assert evaluate(blob_net, x, y) >= 0.99

    def test_loss_decreases_over_first_epochs(self, blob_data):
        x, y = blob_data
        net = build_mlp([6, 8, 2], seed=2)
        history = train_epochs(net, x, y, epochs=3, seed=0, verbose=False)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.epochs == [0, 1, 2]

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

    def test_spiking_model_trains_with_the_kernel_it_carries(self, blob_data):
        x, y = blob_data
        weights = []
        for pass_spec in (False, True):
            snn = build_snn_mlp([6, 8, 2], T=4, seed=0,
                                neuron=NeuronConfig(leak=0.9, threshold=0.5),
                                surrogate=SurrogateSpec(kind="sigmoid", alpha=2.0))
            initial = b"".join(p.tobytes() for _, p in snn.params())
            train_epochs(snn, x, y, epochs=1, seed=0,
                         spec=snn.surrogate if pass_spec else None, verbose=False)
            weights.append(b"".join(p.tobytes() for _, p in snn.params()))
        assert weights[0] == weights[1] != initial

    def test_spec_trains_through_a_view_and_leaves_the_kernel(self, blob_data):
        x, y = blob_data
        carried, spec = SurrogateSpec(kind="sigmoid", alpha=2.0), SurrogateSpec(kind="erfc")
        snn, twin = (build_snn_mlp([6, 8, 2], T=4, seed=0,
                                   neuron=NeuronConfig(leak=0.9, threshold=0.5),
                                   surrogate=kernel) for kernel in (carried, spec))
        train_epochs(snn, x, y, epochs=1, seed=0, spec=spec, verbose=False)
        train_epochs(twin, x, y, epochs=1, seed=0, verbose=False)
        assert snn.surrogate == carried
        # the view trained snn's own weights with spec's kernel
        assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(snn.params(), twin.params()))

    def test_spiking_model_trains_on_blobs(self, blob_data):
        from snnadv.dynamics import NeuronConfig
        x, y = blob_data
        snn = build_snn_mlp([6, 16, 2], T=4, seed=0,
                            neuron=NeuronConfig(leak=0.9, threshold=0.5))
        train_epochs(snn, x, y, epochs=25, seed=0, spec=SurrogateSpec(kind="arctan"),
                     verbose=False)
        assert evaluate(snn, x, y) >= 0.95


ARCTAN = SurrogateSpec(kind="arctan")

# sha256 of the sorted (name, bytes) params after two epochs (seed 4, batch
# 64), and the last epoch's train_acc, as first trained; one and two BLAS
# threads give the same bytes at these sizes
TWO_EPOCH_PINS = {
    "ann": ("fe964bd23c9f28cdd2b9786029fe56dbbec4723ce94fade1bf97678a52309360", 1.0),
    "snn": ("a2582996a2e1fed24630468f03f083e509b71a5f52740016fdfb339dc1336118", 0.825),
    "attention": ("08f6753d8cff713fe73c84a07a636c7b1273b112ff3946aa7cbe199a722d02c6",
                  0.12333333333333334),
}


def _two_epoch_case(family):
    """(model, x, y, spec) of one pinned two-epoch run."""
    if family == "attention":
        x, y = synth_digits(300, seed=2)
        return TinyAttentionNet(image_shape=(1, 28, 28), patch=7, embed=8, n_layers=1,
                                n_heads=2, seed=3), x, y, None
    x, y = synth_blobs(400, classes=2, dim=6, seed=3)
    if family == "ann":
        return build_mlp([6, 16, 2], seed=3), x, y, None
    return build_snn_mlp([6, 16, 2], T=4, seed=3,
                         neuron=NeuronConfig(leak=0.9, threshold=0.5)), x, y, ARCTAN


class TestTrainAccuracy:
    @pytest.mark.parametrize("family", list(TWO_EPOCH_PINS))
    def test_two_epoch_weights_are_pinned(self, family):
        # scoring reads the weights only: where it happens cannot move them
        model, x, y, spec = _two_epoch_case(family)
        history = train_epochs(model, x, y, epochs=2, seed=4, batch_size=64, spec=spec,
                               verbose=False)
        digest = hashlib.sha256()
        for name, p in sorted(model.params(), key=lambda item: item[0]):
            digest.update(name.encode())
            digest.update(p.tobytes())
        assert (digest.hexdigest(), history.train_acc[-1]) == TWO_EPOCH_PINS[family]

    @pytest.mark.parametrize("family", ["ann", "snn"])
    def test_train_acc_is_running_batch_accuracy_then_a_full_score(self, family,
                                                                    monkeypatch):
        model, x, y, spec = _two_epoch_case(family)
        hits = []  # correct predictions of each training batch, in order
        loss_fn = numerics.softmax_cross_entropy

        def counting(logits, labels, **kwargs):
            hits.append(int(np.sum(np.argmax(logits, axis=1) == labels)))
            return loss_fn(logits, labels, **kwargs)

        monkeypatch.setattr(numerics, "softmax_cross_entropy", counting)
        history = train_epochs(model, x, y, epochs=3, seed=4, batch_size=64, spec=spec,
                               verbose=False)
        per_epoch = -(-len(y) // 64)
        assert len(hits) == 3 * per_epoch
        for epoch in (0, 1):
            running = sum(hits[epoch * per_epoch:(epoch + 1) * per_epoch]) / len(y)
            assert history.train_acc[epoch] == running
        assert history.train_acc[-1] == evaluate(model, x, y)

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            train_epochs(build_mlp([6, 4, 2], seed=0), np.zeros((0, 6), np.float32),
                         np.zeros(0, dtype=int), epochs=2, verbose=False)


class TestEvaluate:
    def test_perfect_predictor(self):
        y = np.array([0, 1, 2, 1])
        model = _FixedPredictor(y)
        assert evaluate(model, np.zeros((4, 2)), y) == 1.0

    def test_constant_predictor_on_balanced_data(self):
        y = np.arange(10).repeat(5)
        model = _FixedPredictor(np.zeros(len(y), dtype=int))
        assert evaluate(model, np.zeros((len(y), 2)), y) == pytest.approx(0.10)

    def test_matches_hand_count(self):
        y = np.array([0, 1, 1, 2, 0])
        preds = np.array([0, 1, 2, 2, 1])  # 3 correct out of 5
        model = _FixedPredictor(preds)
        assert evaluate(model, np.zeros((5, 2)), y) == pytest.approx(3 / 5)

    def test_empty_data_rejected(self):
        model = _FixedPredictor(np.zeros(0, dtype=int))
        with pytest.raises(TrainingError):
            evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestClassifierPredict:
    @pytest.mark.parametrize("model", [
        build_mlp([64, 5, 3], seed=0),
        build_snn_mlp([64, 5, 3], T=3, seed=0),
        TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=1, n_heads=2,
                         n_classes=3, seed=0)], ids=["ann", "snn", "attention"])
    def test_slices_give_the_argmax_of_one_forward(self, model):
        x = np.random.default_rng(0).uniform(0, 1, (2 * model.block_rows + 17, 1, 8, 8))
        x = x.astype(np.float32)
        whole = np.argmax(model.forward(x), axis=1)
        with forward_inputs(model) as inputs:
            assert np.array_equal(model.predict(x), whole)
        rows = [len(xs) for xs in inputs]
        assert max(rows) <= model.block_rows and sum(rows) == len(x)
        empty = model.predict(x[:0])
        assert empty.shape == (0,) and empty.dtype == np.intp


def test_an_epoch_holds_one_training_cache_at_a_time():
    # each step drops its cache and gradients, so the next batch's forward
    # does not run beside them: three steps peak where one does
    net = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                           n_heads=2, seed=0)
    x, y = synth_digits(384, seed=0)
    optimizer = SGD()

    def step():
        logits, cache = net.forward_cached(x[:128])
        _, dlogits = numerics.softmax_cross_entropy(logits, y[:128])
        grads = {}
        net.backward(cache, dlogits, grads)
        optimizer.step(net.params(), grads)

    _, one_step = traced_peak(step)
    cache = net.forward_cached(x[:128].copy())[1]
    _, epoch = traced_peak(lambda: train_epochs(net, x, y, epochs=1, batch_size=128,
                                                optimizer=optimizer, verbose=False))
    assert epoch < one_step + held_nbytes(cache_arrays(cache))
