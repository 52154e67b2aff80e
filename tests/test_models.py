"""What the SNN, the ANN and the attention net share: one input check
(``numerics.as_batch``) and one weight init."""

import numpy as np
import pytest

from snnadv.ann import Dense, build_cnn, build_mlp
from snnadv.attention import TinyAttentionNet
from snnadv.dynamics import build_snn_mlp
from snnadv.errors import DimensionError, EvaluationError

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
