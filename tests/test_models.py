"""What the SNN, the ANN and the attention net share: one input check
(``numerics.as_batch``) and one weight init."""

import re

import numpy as np
import pytest

from snnadv import checkpoint
from snnadv.ann import Dense, build_cnn, build_mlp
from snnadv.attention import TinyAttentionNet
from snnadv.dynamics import build_snn_mlp
from snnadv.errors import ConfigError, DimensionError, EvaluationError

MODELS = {
    "snn": lambda: build_snn_mlp([784, 8, 10], T=2, seed=1),
    "mlp": lambda: build_mlp([784, 8, 10], seed=1),
    "cnn": lambda: build_cnn((1, 28, 28), [2], 8, 10, seed=1),
    "attention": lambda: TinyAttentionNet(patch=7, embed=8, n_layers=1, n_heads=2, seed=1),
}

IMAGES = np.random.default_rng(0).uniform(0, 1, (3, 1, 28, 28)).astype(np.float32)


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


class TestInputContract:
    def test_every_batch_layout_gives_the_same_logits(self, model):
        want = model.forward(IMAGES)
        for shape in ((3, 784), (3, 28, 28)):
            assert np.array_equal(model.forward(IMAGES.reshape(shape)), want)

    @pytest.mark.parametrize("x", [np.zeros((3, 783)), np.zeros(784)], ids=["wrong-size", "1-d"])
    def test_other_shapes_are_dimension_errors(self, model, x):
        with pytest.raises(DimensionError):
            model.forward(x)

    def test_nan_input_is_evaluation_error(self, model):
        x = IMAGES.copy()
        x[1, 0, 5, 5] = np.nan
        with pytest.raises(EvaluationError, match="network input"):
            model.forward(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_snn_mlp_takes_the_mlp_weights(dtype):
    dims = [12, 7, 5, 3]
    denses = [l for l in build_mlp(dims, seed=4, dtype=dtype).layers if isinstance(l, Dense)]
    for layer, dense in zip(build_snn_mlp(dims, seed=4, dtype=dtype).layers, denses, strict=True):
        assert layer.w.dtype == dtype
        assert np.array_equal(layer.w, dense.w) and np.array_equal(layer.b, dense.b)


class TestAstype:
    """``Classifier.astype``: a deep copy with every parameter cast."""

    def test_casts_every_parameter(self, model):
        source = dict(model.params())
        cast = dict(model.astype(np.float64).params())
        assert cast.keys() == source.keys()
        for name, p in cast.items():
            assert p.dtype == np.float64 and p.shape == source[name].shape
            assert np.array_equal(p, source[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_copy_shares_no_array_with_its_source(self, model, dtype):
        cast = model.astype(dtype)
        for p in dict(cast.params()).values():
            assert not any(np.shares_memory(p, q) for q in dict(model.params()).values())

    def test_float64_and_back_gives_the_original_bytes_and_logits(self, model):
        back = model.astype(np.float64).astype(np.float32)
        source = dict(model.params())
        for name, p in back.params():
            assert p.dtype == source[name].dtype and p.tobytes() == source[name].tobytes()
        assert back.forward(IMAGES).tobytes() == model.forward(IMAGES).tobytes()


class TestBuilderSizes:
    """A builder refuses a size that leaves a layer empty before it draws a
    weight, and every net it builds is one that load_model takes back."""

    @pytest.mark.parametrize("make,message", [
        (lambda: TinyAttentionNet(patch=7, embed=8, n_layers=1, ffn_hidden=0),
         "image sizes, n_classes and ffn_hidden must be >= 1, got (1, 28, 28), 10 and 0"),
        (lambda: TinyAttentionNet(image_shape=(0, 8, 8), patch=4, embed=8, n_layers=1),
         "image sizes, n_classes and ffn_hidden must be >= 1, got (0, 8, 8), 10 and 64"),
        (lambda: TinyAttentionNet(patch=7, embed=8, n_layers=1, n_classes=0),
         "image sizes, n_classes and ffn_hidden must be >= 1, got (1, 28, 28), 0 and 64"),
        (lambda: build_cnn((1, 8, 8), [0], 8, 3),
         "image sizes, channels, hidden and n_classes must be >= 1, got (1, 8, 8), [0], 8 "
         "and 3"),
        (lambda: build_cnn((1, 8, 8), [2], 0, 3),
         "image sizes, channels, hidden and n_classes must be >= 1, got (1, 8, 8), [2], 0 "
         "and 3"),
        (lambda: build_cnn((1, 8, 8), [2], 8, 0),
         "image sizes, channels, hidden and n_classes must be >= 1, got (1, 8, 8), [2], 8 "
         "and 0"),
        (lambda: build_cnn((0, 8, 8), [2], 8, 3),
         "image sizes, channels, hidden and n_classes must be >= 1, got (0, 8, 8), [2], 8 "
         "and 3"),
        # a 1x1 map pooled by 2 leaves nothing for the dense head
        (lambda: build_cnn((1, 4, 4), [2, 2, 2], 8, 3), "avgpool needs even extents, got 1x1"),
    ], ids=["attention-ffn", "attention-channels", "attention-classes", "cnn-channels",
            "cnn-hidden", "cnn-classes", "cnn-image", "cnn-pooled-away"])
    def test_zero_size_is_one_line_config_error(self, make, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize("make,width", [
        (lambda: TinyAttentionNet(image_shape=(1, 1, 1), patch=1, embed=1, n_layers=1,
                                  n_heads=1, n_classes=1, ffn_hidden=1), 1),
        (lambda: build_cnn((1, 2, 2), [1], 1, 1), 4),
        (lambda: build_mlp([1, 1]), 1),
        (lambda: build_snn_mlp([1, 1], T=1), 1),
    ], ids=["attention", "cnn", "mlp", "snn"])
    def test_smallest_nets_round_trip(self, make, width, tmp_path):
        model = make()
        checkpoint.save_model(tmp_path / "m.snnm", model)
        loaded, _ = checkpoint.load_model(tmp_path / "m.snnm")
        x = np.full((2, width), 0.5, dtype=np.float32)
        assert loaded.forward(x).tobytes() == model.forward(x).tobytes()
