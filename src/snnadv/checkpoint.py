"""Binary model checkpoints ("SNNM" format).

Layout, all integers little-endian: 4-byte magic, u32 format version, model
kind tag, architecture descriptor (JSON), configuration echo (JSON), u64
training seed, then named tensors (dims as u32 counts, data as little-endian
float32/float64, one of the two for every tensor of a model). Loading a
saved model reproduces bit-identical weights; a length that points past the
end of the file, or a tensor named twice, is a FormatError.

This module alone owns the architecture descriptor: ``_ARCH`` names the
attention net's fields and ``_ANN_LAYERS`` is the one table of ANN layer
types, each read by both ``describe`` and ``_rebuild``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .ann import AnnNet, AvgPool2d, Conv2d, Dense, Flatten, ReLU
from .attention import TinyAttentionNet
from .data import _read_exact
from .dynamics import NeuronConfig, SpikingLayer, SpikingNet, SynapseConfig
from .errors import FormatError
from .surrogate import SurrogateSpec

MAGIC = b"SNNM"
VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}

# What ``describe`` writes, per model kind: a dict is an object with exactly
# these fields, a one-item list is a list of that type, a range is an int
# inside it, a type is a JSON leaf. ANN layers are checked per layer type
# against _ANN_LAYERS.
_NUM = (int, float)
_POS = range(1, 2**63)
_ARCH = {
    "snn": {"T": _POS, "readout": str, "encoding": str, "detach_reset": bool,
            "surrogate": {"kind": str, "sigma": _NUM, "alpha": _NUM, "beta": _NUM,
                          "pwe_literal": bool, "fs_conventional": bool},
            "layers": [{"in": _POS, "out": _POS,
                        "neuron": {"leak": _NUM, "threshold": _NUM, "reset": str,
                                   "adapt_decay": (*_NUM, type(None))},
                        "synapse": {"alphas": [_NUM], "betas": [_NUM]}}]},
    "ann": {"input_shape": (list, type(None)), "layers": [dict]},
    "attention": {"image_shape": [_POS], **dict.fromkeys(
        ("patch", "embed", "n_layers", "n_heads", "n_classes", "ffn_hidden"), _POS)},
}
# ANN layer type -> its class, the descriptor fields that name the weight
# shape's axes, and its other int constructor arguments with their ranges.
_ANN_LAYERS = {
    "dense": (Dense, ("in", "out"), {}),
    "conv2d": (Conv2d, ("out_c", "in_c", "kh", "kw"), {"pad": range(2**63)}),
    "relu": (ReLU, (), {}),
    "flatten": (Flatten, (), {}),
    "avgpool2": (AvgPool2d, (), {}),
}
_ANN_TYPE_NAMES = {cls: name for name, (cls, _, _) in _ANN_LAYERS.items()}


def _write_str(fh, text: str, width: str = "<H") -> None:
    raw = text.encode("utf-8")
    fh.write(struct.pack(width, len(raw)))
    fh.write(raw)


def _read_str(fh, width: str, what: str) -> str:
    size = struct.calcsize(width)
    (length,) = struct.unpack(width, _read_exact(fh, size, what, "checkpoint"))
    return _read_exact(fh, length, what, "checkpoint").decode("utf-8")


def _read_json(fh, what: str):
    try:
        return json.loads(_read_str(fh, "<I", what))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise FormatError(f"bad checkpoint {what}: {exc}") from exc


def _check(value, typ, where: str) -> None:
    """Raise FormatError naming the first field of ``value`` that ``typ`` rejects."""
    if isinstance(typ, dict):
        if not isinstance(value, dict):
            raise FormatError(f"checkpoint {where} is not an object: {value!r}")
        for key in sorted(set(typ) ^ set(value)):
            raise FormatError(f"checkpoint {where}.{key} is "
                              f"{'missing' if key in typ else 'an unknown field'}")
        for key, sub in typ.items():
            _check(value[key], sub, f"{where}.{key}")
    elif isinstance(typ, list):
        if not isinstance(value, list):
            raise FormatError(f"checkpoint {where} is not a list: {value!r}")
        for i, item in enumerate(value):
            _check(item, typ[0], f"{where}[{i}]")
    elif isinstance(typ, range):
        _check(value, int, where)
        if value not in typ:
            raise FormatError(f"checkpoint {where} must be at least {typ.start}, got {value}")
    elif not isinstance(value, typ) or isinstance(value, bool) != (typ is bool):
        raise FormatError(f"checkpoint {where} has the wrong type: {value!r}")


def _describe_ann_layer(layer) -> dict:
    name = _ANN_TYPE_NAMES.get(type(layer))
    if name is None:
        raise FormatError(f"cannot checkpoint ann layer type {type(layer).__name__}")
    _, axes, ints = _ANN_LAYERS[name]
    shape = layer.w.shape if axes else ()
    return {"type": name, **{axis: int(d) for axis, d in zip(axes, shape)},
            **{key: int(getattr(layer, key)) for key in ints}}


def _rebuild_ann_layer(spec: dict, where: str, dtype: np.dtype):
    if not isinstance(spec.get("type"), str) or spec["type"] not in _ANN_LAYERS:
        raise FormatError(f"checkpoint {where}.type is not an ann layer type: "
                          f"{spec.get('type')!r}")
    cls, axes, ints = _ANN_LAYERS[spec["type"]]
    _check(spec, {"type": str, **dict.fromkeys(axes, _POS), **ints}, where)
    weights = (np.zeros([spec[axis] for axis in axes], dtype=dtype),) if axes else ()
    return cls(*weights, **{key: spec[key] for key in ints})


def describe(model) -> dict:
    if isinstance(model, SpikingNet):
        return {
            "T": model.T, "readout": model.readout, "encoding": "direct",
            "detach_reset": model.detach_reset,
            "surrogate": asdict(model.surrogate),
            "layers": [{"in": layer.in_width, "out": layer.out_width,
                        "neuron": asdict(layer.neuron), "synapse": asdict(layer.synapse)}
                       for layer in model.layers],
        }
    if isinstance(model, AnnNet):
        return {"input_shape": list(model.input_shape) if model.input_shape else None,
                "layers": [_describe_ann_layer(layer) for layer in model.layers]}
    if isinstance(model, TinyAttentionNet):
        return {key: getattr(model, key) for key in _ARCH["attention"]}
    raise FormatError(f"cannot checkpoint model type {type(model).__name__}")


def _rebuild(kind: str, arch: dict, dtype: np.dtype):
    if kind not in _ARCH:
        raise FormatError(f"unknown model kind {kind!r}")
    if kind == "snn" and isinstance(arch, dict) and isinstance(arch.get("surrogate"), dict):
        # the retired kernel centre: it never moved the kernel, whatever its value
        arch["surrogate"].pop("threshold", None)
    _check(arch, _ARCH[kind], "architecture")
    if kind == "snn":
        if arch["encoding"] != "direct":
            raise FormatError(f"unsupported input encoding {arch['encoding']!r}")
        layers = [SpikingLayer(np.zeros((spec["in"], spec["out"]), dtype=dtype),
                               neuron=NeuronConfig(**spec["neuron"]),
                               synapse=SynapseConfig(**spec["synapse"]))
                  for spec in arch["layers"]]
        return SpikingNet(layers, T=arch["T"], surrogate=SurrogateSpec(**arch["surrogate"]),
                          readout=arch["readout"], detach_reset=arch["detach_reset"])
    if kind == "ann":
        if arch["input_shape"] is not None:
            _check(arch["input_shape"], [_POS], "architecture.input_shape")
        layers = [_rebuild_ann_layer(spec, f"architecture.layers[{i}]", dtype)
                  for i, spec in enumerate(arch["layers"])]
        shape = tuple(arch["input_shape"]) if arch["input_shape"] else None
        return AnnNet(layers, input_shape=shape)
    if len(arch["image_shape"]) not in (2, 3):
        raise FormatError(f"checkpoint architecture.image_shape has {len(arch['image_shape'])} "
                          "entries, not 2 or 3")
    return TinyAttentionNet(**arch, dtype=dtype)


def _one_dtype(tensors) -> np.dtype:
    """The dtype of every (name, array) pair, float32 or float64 (float32 for
    none); FormatError for any other dtype or for a mix."""
    for name, arr in tensors:
        if arr.dtype not in _DTYPE_TAGS:
            raise FormatError(f"unsupported tensor dtype {arr.dtype} for {name}")
    dtypes = {arr.dtype for _, arr in tensors}
    if len(dtypes) > 1:
        raise FormatError(f"model mixes tensor dtypes {sorted(map(str, dtypes))}")
    return dtypes.pop() if dtypes else np.dtype(np.float32)


def save_model(path, model, seed: int = 0, config_echo: dict | None = None) -> Path:
    """Write ``model`` to ``path``. Everything that can refuse the model runs
    before the file is opened, so a refused model leaves no file behind."""
    if not 0 <= seed < 2**64:
        raise FormatError(f"cannot checkpoint seed {seed}: it must lie in [0, 2**64)")
    path = Path(path)
    arch = json.dumps(describe(model), sort_keys=True)
    tensors = [(name, np.ascontiguousarray(p)) for name, p in model.params()]
    _one_dtype(tensors)
    echo = json.dumps(config_echo or {}, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_str(fh, model.kind)
        _write_str(fh, arch, "<I")
        _write_str(fh, echo, "<I")
        fh.write(struct.pack("<Q", seed))
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            _write_str(fh, name)
            fh.write(struct.pack("<B", _DTYPE_TAGS[arr.dtype]))
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    return path


def load_model(path):
    """Returns (model, metadata dict with kind/seed/config_echo/arch)."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic", "checkpoint")
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic: expected {MAGIC!r}, observed {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version", "checkpoint"))
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        kind = _read_str(fh, "<H", "kind")
        arch = _read_json(fh, "architecture")
        config_echo = _read_json(fh, "config echo")
        (seed,) = struct.unpack("<Q", _read_exact(fh, 8, "seed", "checkpoint"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count", "checkpoint"))
        tensors = {}
        for _ in range(count):
            name = _read_str(fh, "<H", "tensor name")
            if name in tensors:
                raise FormatError(f"tensor {name} appears twice in the checkpoint")
            (tag,) = struct.unpack("<B", _read_exact(fh, 1, "dtype tag", "checkpoint"))
            if tag not in _TAG_DTYPES:
                raise FormatError(f"unknown tensor dtype tag {tag}")
            dtype = _TAG_DTYPES[tag]
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "rank", "checkpoint"))
            dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "dims", "checkpoint"))
            size = math.prod(dims) * dtype.itemsize
            raw = _read_exact(fh, size, f"tensor {name}", "checkpoint")
            tensors[name] = np.frombuffer(raw, dtype=dtype.newbyteorder("<")) \
                .astype(dtype).reshape(dims)
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after checkpoint payload")
    model = _rebuild(kind, arch, _one_dtype(tensors.items()))
    params = dict(model.params())
    if set(params) != set(tensors):
        raise FormatError("checkpoint tensors do not match the architecture descriptor")
    for name, arr in tensors.items():
        if params[name].shape != arr.shape:
            raise FormatError(f"tensor {name} shape {arr.shape} != expected {params[name].shape}")
        params[name][...] = arr
    meta = {"kind": kind, "seed": seed, "config_echo": config_echo, "arch": arch}
    return model, meta
