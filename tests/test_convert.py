import numpy as np
import pytest

from snnadv.ann import AnnNet, Conv2d, Dense, ReLU, build_mlp
from snnadv.convert import THRESHOLD_BALANCE, WEIGHT_BALANCE, convert_ann_to_snn, fine_tune
from snnadv.errors import TrainingError, UnsupportedError
from snnadv.surrogate import SurrogateSpec
from snnadv.train import evaluate

ARCTAN = SurrogateSpec(kind="arctan")


def small_relu_ann(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.8, 0.8, size=(6, 5)).astype(np.float32)
    head = rng.uniform(-0.5, 0.5, size=(5, 3)).astype(np.float32)
    return AnnNet([Dense(w), ReLU(), Dense(head)]), w


class TestConversion:
    @pytest.mark.parametrize("mode", [WEIGHT_BALANCE, THRESHOLD_BALANCE])
    def test_hidden_rate_tracks_scaled_relu(self, mode):
        ann, w = small_relu_ann()
        rng = np.random.default_rng(1)
        calib = rng.uniform(0, 1, size=(64, 6)).astype(np.float32)
        snn = convert_ann_to_snn(ann, calib, mode=mode, percentile=100.0, T=64)
        x = rng.uniform(0, 1, size=(8, 6)).astype(np.float32)
        _, trace = snn.forward_cached(x)
        rate = trace.layers[0].o.mean(axis=0)
        scale = float(np.max(calib @ w))
        want = np.maximum(x @ w, 0.0) / scale
        assert np.max(np.abs(rate - want)) <= 2.0 / 64

    def test_zero_calibration_clamps_scale_to_one(self):
        ann, w = small_relu_ann()
        calib = np.zeros((4, 6), dtype=np.float32)
        snn = convert_ann_to_snn(ann, calib, percentile=100.0)
        # scale guard of 1 leaves weights untouched
        assert np.allclose(snn.layers[0].w, w)

    def test_single_sample_percentile_is_its_max(self):
        ann, w = small_relu_ann()
        calib = np.random.default_rng(2).uniform(0, 1, size=(1, 6)).astype(np.float32)
        snn = convert_ann_to_snn(ann, calib, mode=THRESHOLD_BALANCE, percentile=100.0)
        want = float(np.max(calib @ w))
        assert snn.layers[0].neuron.threshold == pytest.approx(want, rel=1e-6)

    def test_architecture_mirrored_up_to_scales(self):
        ann = build_mlp([8, 6, 4], seed=3)
        calib = np.random.default_rng(3).uniform(0, 1, (32, 8)).astype(np.float32)
        snn = convert_ann_to_snn(ann, calib)
        denses = [l for l in ann.layers if isinstance(l, Dense)]
        assert [(l.in_width, l.out_width) for l in snn.layers] \
            == [tuple(d.w.shape) for d in denses]
        for sl, dl in zip(snn.layers, denses):
            ratio = sl.w / dl.w
            assert np.allclose(ratio, ratio.flat[0], rtol=1e-5)

    def test_converted_neurons_are_soft_reset_if(self):
        ann = build_mlp([8, 6, 4], seed=3)
        calib = np.random.default_rng(4).uniform(0, 1, (16, 8)).astype(np.float32)
        snn = convert_ann_to_snn(ann, calib)
        for layer in snn.layers:
            assert layer.neuron.leak == 1.0
            assert layer.neuron.reset == "soft_subtract"

    def test_rate_error_shrinks_with_horizon(self):
        ann, w = small_relu_ann()
        rng = np.random.default_rng(5)
        calib = rng.uniform(0, 1, size=(64, 6)).astype(np.float32)
        scale = float(np.max(calib @ w))
        errs = []
        for T in (16, 32, 64, 128):
            snn = convert_ann_to_snn(ann, calib, percentile=100.0, T=T)
            _, trace = snn.forward_cached(calib)
            rate = trace.layers[0].o.mean(axis=0)
            want = np.maximum(calib @ w, 0.0) / scale
            errs.append(float(np.mean(np.abs(rate - want))))
        assert errs == sorted(errs, reverse=True)

    def test_non_relu_rejected(self):
        rng = np.random.default_rng(6)
        conv_ann = AnnNet([Conv2d(rng.standard_normal((2, 1, 3, 3)).astype(np.float32))])
        with pytest.raises(UnsupportedError):
            convert_ann_to_snn(conv_ann, np.zeros((2, 1, 4, 4), dtype=np.float32))

    @pytest.mark.parametrize("layers,mode,match", [
        ([(6, 5), (5, 3)], WEIGHT_BALANCE, "expects ReLU after every hidden dense layer"),
        ([(6, 3), "relu"], WEIGHT_BALANCE, "expects raw logits at the output"),
        (["relu", (6, 3)], WEIGHT_BALANCE, "dense/ReLU chains; found ReLU"),
        ([(6, 3)], "x", "unknown balancing mode 'x'"),
    ], ids=["no-relu-between", "trailing-relu", "leading-relu", "mode"])
    def test_unconvertible_setup_rejected(self, layers, mode, match):
        ann = AnnNet([ReLU() if spec == "relu" else Dense(np.zeros(spec, dtype=np.float32))
                      for spec in layers])
        with pytest.raises(UnsupportedError, match=match):
            convert_ann_to_snn(ann, np.zeros((2, 6), dtype=np.float32), mode=mode)

    def test_empty_calibration_rejected(self):
        ann, _ = small_relu_ann()
        with pytest.raises(TrainingError):
            convert_ann_to_snn(ann, np.zeros((0, 6), dtype=np.float32))


class TestFineTune:
    def test_zero_epochs_is_identity(self, ann_mlp, digits):
        train_x, train_y, _, _ = digits
        snn = convert_ann_to_snn(ann_mlp, train_x[:256], T=16, surrogate=ARCTAN)
        before = [l.w.copy() for l in snn.layers]
        report = fine_tune(snn, train_x[:512], train_y[:512], epochs=0, verbose=False)
        for w0, layer in zip(before, snn.layers):
            assert np.array_equal(w0, layer.w)
        assert report["recovery_delta"] == 0.0

    def test_fine_tune_does_not_collapse_accuracy(self, ann_mlp, digits):
        train_x, train_y, _, _ = digits
        snn = convert_ann_to_snn(ann_mlp, train_x[:512], T=16, surrogate=ARCTAN)
        report = fine_tune(snn, train_x[:2000], train_y[:2000], epochs=1, lr=1e-3,
                           seed=0, verbose=False)
        assert report["train_acc_after"] >= report["train_acc_before"] - 0.01

    def test_converted_tracks_source_accuracy(self, ann_mlp, converted_snn, digits):
        _, _, test_x, test_y = digits
        ann_acc = evaluate(ann_mlp, test_x, test_y)
        snn_acc = evaluate(converted_snn, test_x, test_y)
        assert snn_acc >= ann_acc - 0.03
