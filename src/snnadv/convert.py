"""ANN-to-SNN conversion: copy weights into soft-reset integrate-and-fire
layers and balance them so spike rates track the source ReLU activations.

The per-layer scale is a high percentile of the pre-activation values seen on
a calibration slice (robust alternative to the strict maximum, which is
selectable via percentile=100). Weight balancing folds the scales into the
weights and keeps unit thresholds; threshold balancing keeps the weights and
moves the scale ratios into the firing thresholds.
"""

from __future__ import annotations

import numpy as np

from .ann import AnnNet, Dense, Flatten, ReLU
from .dynamics import (READOUT_MEMBRANE, SOFT_SUBTRACT, NeuronConfig, SpikingLayer,
                       SpikingNet)
from .errors import ConfigError, TrainingError, UnsupportedError
from .surrogate import SurrogateSpec
from .train import evaluate, make_optimizer, train_epochs

WEIGHT_BALANCE = "weight_balance"
THRESHOLD_BALANCE = "threshold_balance"


def _dense_chain(ann: AnnNet) -> list:
    """The ann's dense layers, once its non-Flatten layers are checked to
    alternate Dense, ReLU, ..., Dense."""
    layers = [l for l in ann.layers if not isinstance(l, Flatten)]
    for i, layer in enumerate(layers):
        if i % 2 == 0 and not isinstance(layer, Dense):
            raise UnsupportedError(
                f"conversion supports dense/ReLU chains; found {type(layer).__name__}")
        if i % 2 == 1 and not isinstance(layer, ReLU):
            raise UnsupportedError("conversion expects ReLU after every hidden dense layer")
    if len(layers) % 2 == 0:
        raise UnsupportedError("conversion expects raw logits at the output")
    return layers[::2]


def _layer_scales(denses: list, calib_x: np.ndarray, percentile: float) -> list:
    """High percentile of each hidden layer's pre-activation distribution."""
    x = np.asarray(calib_x, dtype=denses[0].w.dtype).reshape(len(calib_x), -1)
    scales = []
    for layer in denses[:-1]:
        pre, _ = layer.forward(x)
        scale = float(np.percentile(pre, percentile))
        if not np.isfinite(scale) or scale <= 0.0:
            scale = 1.0  # degenerate calibration: leave the layer unscaled
        scales.append(scale)
        x = np.maximum(pre, 0.0)
    return scales


def convert_ann_to_snn(ann: AnnNet, calib_x: np.ndarray, mode: str = WEIGHT_BALANCE,
                       percentile: float = 99.9, T: int = 64,
                       surrogate: SurrogateSpec = SurrogateSpec()) -> SpikingNet:
    """Mirror the ann's dense chain into soft-reset IF layers (leak 1).

    Deterministic given the calibration slice order.
    """
    if len(calib_x) == 0:
        raise TrainingError("conversion needs a non-empty calibration slice")
    if mode not in (WEIGHT_BALANCE, THRESHOLD_BALANCE):
        raise UnsupportedError(f"unknown balancing mode {mode!r}")
    if not 0.0 <= percentile <= 100.0:
        raise ConfigError(f"percentile must be in [0, 100], got {percentile}")
    denses = _dense_chain(ann)
    scales = _layer_scales(denses, calib_x, percentile)
    layers = []
    prev_scale = 1.0
    for layer, scale in zip(denses[:-1], scales):
        if mode == WEIGHT_BALANCE:
            w = layer.w * (prev_scale / scale)
            b = layer.b / scale
            threshold = 1.0
        else:
            w = layer.w.copy()
            b = layer.b / prev_scale
            threshold = scale / prev_scale
        neuron = NeuronConfig(leak=1.0, threshold=threshold, reset=SOFT_SUBTRACT)
        layers.append(SpikingLayer(w.astype(layer.w.dtype), b.astype(layer.w.dtype), neuron))
        prev_scale = scale
    head = denses[-1]
    # readout integrates w * rate + b; undo the normalized rate of the layer below
    layers.append(SpikingLayer((head.w * prev_scale).astype(head.w.dtype), head.b.copy(),
                               NeuronConfig(leak=1.0, threshold=1.0, reset=SOFT_SUBTRACT)))
    return SpikingNet(layers, T=T, surrogate=surrogate, readout=READOUT_MEMBRANE)


def fine_tune(snn: SpikingNet, train_x, train_y, *, epochs: int, seed: int = 0,
              lr: float = 0.0, batch_size: int = 128, spec: SurrogateSpec | None = None,
              test_x=None, test_y=None, verbose: bool = True) -> dict:
    """Retrain a converted net from its copied weights with the spiking
    models' optimizer of ``make_optimizer`` at ``lr`` (0 keeps its default)
    and the surrogate kernel the net carries, or ``spec`` through a view that
    keeps the net's own; reports the accuracy-recovery delta. Zero epochs
    leaves the weights untouched."""
    if epochs < 0:
        raise ConfigError(f"fine-tuning needs epochs >= 0, got {epochs}")
    optimizer = make_optimizer(snn.kind, lr=lr)
    before = evaluate(snn, train_x, train_y)
    history = None
    if epochs > 0:
        history = train_epochs(snn, train_x, train_y, epochs=epochs, seed=seed,
                               optimizer=optimizer, spec=spec, batch_size=batch_size,
                               test_x=test_x, test_y=test_y, verbose=verbose)
    # train_epochs ends its last epoch by scoring the weights on the training set
    after = history.train_acc[-1] if history else before
    return {"train_acc_before": before, "train_acc_after": after,
            "recovery_delta": after - before,
            "history": history.as_dict() if history else None}
