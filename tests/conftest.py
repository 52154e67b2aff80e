"""Shared fixtures: datasets and trained models reused across the suite.

Training happens once per session; every fixture is seeded and deterministic.
"""

import logging
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from snnadv.ann import build_mlp
from snnadv.attention import TinyAttentionNet
from snnadv.convert import convert_ann_to_snn, fine_tune
from snnadv.data import synth_blobs, synth_digits
from snnadv.dynamics import NeuronConfig, build_snn_mlp
from snnadv.surrogate import SurrogateSpec
from snnadv.train import train_epochs

logging.getLogger("snnadv").setLevel(logging.ERROR)

ARCTAN = SurrogateSpec(kind="arctan")


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced while it ran, its result included."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_kept(fn, *args):
    """``fn(*args)`` and the bytes still traced when it returns: what its
    result keeps of what the call allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@contextmanager
def forward_inputs(model):
    """The inputs of every ``forward_cached`` call on ``model`` while the
    block runs, in call order; their lengths are the row blocks."""
    inputs = []
    forward_cached = model.forward_cached
    model.forward_cached = lambda x: inputs.append(x) or forward_cached(x)
    try:
        yield inputs
    finally:
        del model.forward_cached


def cache_arrays(cache):
    """Every array a forward cache holds, depth first."""
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (tuple, list)):
        for item in cache:
            yield from cache_arrays(item)


def held_nbytes(arrays):
    """The bytes of the distinct buffers behind ``arrays``: a view counts
    once, with the array it views."""
    held = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        held[id(a)] = a.nbytes
    return sum(held.values())


@pytest.fixture(scope="session")
def digits():
    train_x, train_y = synth_digits(10000, seed=0)
    test_x, test_y = synth_digits(2000, seed=1)
    return train_x, train_y, test_x, test_y


@pytest.fixture(scope="session")
def blob_data():
    x, y = synth_blobs(400, classes=2, dim=6, seed=3)
    return x, y


@pytest.fixture(scope="session")
def blob_net(blob_data):
    x, y = blob_data
    net = build_mlp([6, 16, 2], seed=5)
    train_epochs(net, x, y, epochs=15, seed=5, verbose=False)
    return net


@pytest.fixture(scope="session")
def ann_mlp(digits):
    train_x, train_y, _, _ = digits
    net = build_mlp([784, 128, 10], seed=0)
    train_epochs(net, train_x, train_y, epochs=5, seed=0, verbose=False)
    return net


@pytest.fixture(scope="session")
def bp_snn(digits):
    train_x, train_y, _, _ = digits
    net = build_snn_mlp([784, 128, 10], T=8, seed=0,
                        neuron=NeuronConfig(leak=0.9, threshold=1.0, reset="hard_zero"),
                        surrogate=ARCTAN)
    net.history = train_epochs(net, train_x, train_y, epochs=6, seed=0, verbose=False)
    return net


@pytest.fixture(scope="session")
def indep_snn(digits):
    train_x, train_y, _, _ = digits
    net = build_snn_mlp([784, 100, 10], T=8, seed=7,
                        neuron=NeuronConfig(leak=0.9, threshold=1.0, reset="hard_zero"),
                        surrogate=ARCTAN)
    train_epochs(net, train_x, train_y, epochs=6, seed=7, verbose=False)
    return net


@pytest.fixture(scope="session")
def converted_snn(ann_mlp, digits):
    train_x, train_y, _, _ = digits
    snn = convert_ann_to_snn(ann_mlp, train_x[:512], T=32, surrogate=ARCTAN)
    fine_tune(snn, train_x, train_y, epochs=1, seed=0, verbose=False)
    return snn


@pytest.fixture(scope="session")
def attention_net(digits):
    train_x, train_y, _, _ = digits
    net = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                           n_heads=2, seed=0)
    train_epochs(net, train_x, train_y, epochs=10, seed=0, verbose=False)
    return net
