import csv
import hashlib
import json
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnadv import attacks, checkpoint, cli, harness
from snnadv.ann import AnnNet, Conv2d, Dense, Flatten, ReLU, build_cnn, build_mlp, kaiming_uniform
from snnadv.attention import TinyAttentionNet
from snnadv.cli import _SCHEMAS, _build_parser, main as cli_main
from snnadv.config import parse_config_file, resolve_config, write_config_echo
from snnadv.data import (_GLYPHS, IMAGES_MAGIC, MNIST_ENV_VAR, _permute_rows, load_idx_labels,
                         load_split, synth_blobs, synth_digits)
from snnadv.dynamics import NeuronConfig, SpikingLayer, SynapseConfig, build_snn_mlp
from snnadv.errors import ConfigError, DimensionError, FormatError
from snnadv.surrogate import SurrogateSpec

from conftest import traced_peak
from oracles import load_idx_images, load_mnist_idx, save_idx_images, save_idx_labels


class TestIdxFormat:
    def test_roundtrip(self, tmp_path):
        x, y = synth_digits(20, seed=0)
        ip, lp = tmp_path / "imgs", tmp_path / "labels"
        save_idx_images(ip, x)
        save_idx_labels(lp, y)
        rx, ry = load_mnist_idx(ip, lp)
        assert rx.shape == (20, 28, 28)
        assert np.array_equal(ry, y)
        # u8 quantization error only
        assert np.max(np.abs(rx - x)) <= 0.5 / 255

    def test_bad_magic_reports_observed_value(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError, match="0xdeadbeef"):
            load_idx_images(path)

    def test_label_magic_checked(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">II", IMAGES_MAGIC, 1) + b"\x00")
        with pytest.raises(FormatError, match="magic"):
            load_idx_labels(path)

    def test_truncated_file_is_error_not_crash(self, tmp_path):
        path = tmp_path / "short"
        # a short file, then counts of 2**48 and 2**96 pixels, which no buffer holds
        for counts in [(10, 28, 28), (65536, 65536, 65536), (2**32 - 1,) * 3]:
            path.write_bytes(struct.pack(">IIII", IMAGES_MAGIC, *counts) + b"\x00" * 100)
            with pytest.raises(FormatError, match="truncated"):
                load_idx_images(path)

    def test_count_mismatch(self, tmp_path):
        ip, lp = tmp_path / "i", tmp_path / "l"
        save_idx_images(ip, np.zeros((3, 4, 4), dtype=np.uint8))
        save_idx_labels(lp, np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="count"):
            load_mnist_idx(ip, lp)

    def test_pixel_scaling_endpoints(self, tmp_path):
        img = np.zeros((1, 2, 2), dtype=np.uint8)
        img[0, 0, 0] = 255
        path = tmp_path / "px"
        save_idx_images(path, img)
        x = load_idx_images(path)
        assert x[0, 0, 0] == 1.0 and x[0, 1, 1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_save_quantizes_floats_to_the_same_bytes(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        images = rng.uniform(-0.2, 1.2, (7, 5, 4)).astype(dtype)  # clipped at both ends
        images[0, 0] = np.array([0.5, 1.5, 2.5, 254.5]) / 255  # rint rounds ties to even
        before = images.copy()
        save_idx_images(tmp_path / "x", images)
        want = np.clip(np.rint(before * 255.0), 0, 255).astype(np.uint8)
        assert (tmp_path / "x").read_bytes()[16:] == want.tobytes()
        assert images.tobytes() == before.tobytes()  # the input is left as it was

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16])
    def test_save_refuses_other_integer_dtypes(self, tmp_path, dtype):
        # an int64 array of 0..255 was scaled by 255 and saturated
        with pytest.raises(FormatError, match=np.dtype(dtype).name):
            save_idx_images(tmp_path / "x", np.full((1, 2, 2), 100, dtype=dtype))
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("n_train", [100, 500])
    def test_train_files_alone_hold_the_test_rows_out(self, tmp_path, monkeypatch, n_train):
        # without t10k files the last n_test rows are the test set; no training row may be one
        rows = np.zeros((120, 4, 4), dtype=np.uint8)
        rows[:, 0, 0], rows[:, 0, 1] = np.arange(120), 255  # every row unique
        save_idx_images(tmp_path / "train-images-idx3-ubyte", rows)
        save_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.arange(120) % 10)
        monkeypatch.setenv(MNIST_ENV_VAR, str(tmp_path))
        train_x, _, test_x, _, source = load_split("auto", n_train, 20, seed=3)
        assert source == "mnist" and len(train_x) == 100 and len(test_x) == 20
        train_rows = {row.tobytes() for row in train_x}
        assert len(train_rows) == 100
        assert train_rows.isdisjoint(row.tobytes() for row in test_x)


def write_idx_pair(directory, prefix, n, seed):
    rng = np.random.default_rng(seed)
    save_idx_images(directory / f"{prefix}-images-idx3-ubyte",
                    rng.integers(0, 256, (n, 28, 28), dtype=np.uint8))
    save_idx_labels(directory / f"{prefix}-labels-idx1-ubyte", rng.integers(0, 10, n))


# sha256 of load_split("auto", 200, 50, seed=3)'s four arrays on write_idx_pair files:
# 600 train rows (seed 1), with and without 100 t10k rows (seed 2)
IDX_DATASET_PINS = {
    True: ("071e3e5bfa39418089a0bb780c1e3d1d98e8bd99aad59cbbb6b2c938c3a6ac88",
           "3151ca4bb304af3a2e1b1c70b7ae24361cdc15ff1237a2dee3e3169b88c6a1b2",
           "9c92c9c7f79a87513400f830dcd748f4773632a6d41809e743f9d26b05abcca0",
           "213d0ad67998c74983a4a57fba0efd3c59ec97b003428f6d349eaa2e87a488d1"),
    False: ("c73198f375c097beeeb610bd54ecdcc935a2d71fcd4f03b99e7e7e572ed60f97",
            "44034f0dea6f95bfd7fb81d21245d819a000da2591a5b612b31e05123399fd03",
            "30847994e7ff954137d44e069a933b624114a7854ac0b475e676fd5a50fb6a1a",
            "1ea1c1885b841b39d1750c4850c342e1d513a460be86993d26c6674f7a7fb19b"),
}


class TestIdxDataset:
    @pytest.fixture(params=[True, False], ids=["t10k", "train-only"])
    def mnist_dir(self, request, tmp_path, monkeypatch):
        write_idx_pair(tmp_path, "train", 600, seed=1)
        if request.param:
            write_idx_pair(tmp_path, "t10k", 100, seed=2)
        monkeypatch.setenv(MNIST_ENV_VAR, str(tmp_path))
        return tmp_path, request.param

    def test_arrays_are_pinned(self, mnist_dir):
        _, t10k = mnist_dir
        *arrays, source = load_split("auto", 200, 50, seed=3)
        assert source == "mnist"
        assert [a.dtype for a in arrays] == [np.float32, np.int64] * 2
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) \
            == IDX_DATASET_PINS[t10k]

    def test_holds_the_files_and_the_drawn_rows_once(self, mnist_dir):
        # the raw file bytes, the float32 rows drawn, and no float32 copy of a whole file
        directory, _ = mnist_dir
        (train_x, _, test_x, _, _), peak = traced_peak(load_split, "auto", 200, 50, 3)
        file_bytes = sum(path.stat().st_size for path in directory.iterdir())
        assert peak < file_bytes + 1.25 * (train_x.nbytes + test_x.nbytes)


class TestPermuteRows:
    @pytest.mark.parametrize("order", [[], [0], [0, 1, 2, 3], [1, 2, 3, 4, 0], [3, 0, 4, 1, 2]],
                             ids=["empty", "one-row", "identity", "one-cycle", "two-cycles"])
    def test_small_orders(self, order):
        order = np.array(order, dtype=int)
        rows = np.arange(order.size * 6, dtype=np.float32).reshape(order.size, 2, 3)
        want = rows[order]
        _permute_rows(rows, order)
        assert rows.tobytes() == want.tobytes()

    def test_random_order(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((500, 4, 4)).astype(np.float32)
        order = rng.permutation(500)
        want = rows[order]
        _permute_rows(rows, order)
        assert rows.tobytes() == want.tobytes()


class TestSynthData:
    def test_blobs_balanced_split(self):
        x, y = synth_blobs(100, dim=2, seed=0)
        assert np.bincount(y).tolist() == [50, 50]

    def test_blobs_deterministic(self):
        a = synth_blobs(50, seed=4)
        b = synth_blobs(50, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_digits_deterministic_and_bounded(self):
        a, ya = synth_digits(30, seed=2)
        b, yb = synth_digits(30, seed=2)
        assert np.array_equal(a, b) and np.array_equal(ya, yb)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert np.bincount(ya, minlength=10).tolist() == [3] * 10

    def test_digits_reject_a_negative_count(self):
        with pytest.raises(ConfigError, match="n=-1"):
            synth_digits(-1)

    @pytest.mark.parametrize("n_train,n_test", [(10, -1), (-1, 10)])
    @pytest.mark.parametrize("source", ["synthetic", "mnist"])
    def test_image_dataset_rejects_negative_counts(self, tmp_path, monkeypatch, n_train, n_test,
                                                   source):
        if source == "mnist":  # a negative n_test once grew the training pool past the file
            save_idx_images(tmp_path / "train-images-idx3-ubyte", np.zeros((30, 4, 4), np.uint8))
            save_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.arange(30) % 10)
        monkeypatch.setenv(MNIST_ENV_VAR, str(tmp_path))
        with pytest.raises(ConfigError, match=f"got {n_train} and {n_test}"):
            load_split("auto", n_train, n_test, seed=0)


def reference_synth_digits(n, seed=0):
    """The per-sample ``np.kron`` synth_digits that defined the set: the
    library's faster build must give its bytes."""
    size = 28
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 10
    images = np.zeros((n, size, size), dtype=np.float32)
    for i, digit in enumerate(labels):
        rows = _GLYPHS[int(digit)].split()
        glyph = np.array([[int(ch) for ch in row] for row in rows], dtype=np.float32)
        scale = int(rng.integers(2, 4))
        sprite = np.kron(glyph, np.ones((scale, scale), dtype=np.float32))
        sh, sw = sprite.shape
        top = (size - sh) // 2 + int(rng.integers(-3, 4))
        left = (size - sw) // 2 + int(rng.integers(-3, 4))
        top = min(max(top, 0), size - sh)
        left = min(max(left, 0), size - sw)
        intensity = rng.uniform(0.75, 1.0)
        images[i, top:top + sh, left:left + sw] = sprite * intensity
        images[i] += rng.normal(0.0, 0.06, size=(size, size)).astype(np.float32)
    np.clip(images, 0.0, 1.0, out=images)
    order = rng.permutation(n)
    return images[order], labels[order]


def digits_sha256(x, y):
    return hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest()


# sha256 of synth_digits(n, seed) images then labels, as first generated:
# the set is defined by these bytes
DIGITS_PINS = {
    (10000, 0): "e1d041f3cb5a332483749688dda99fd086af3b03d8472e97532354522e619e88",
    (2000, 1): "725857869baa42ced974a5a80d149f994fb4507ef1ad61a2224b87a5ed88659c",
    (37, 5): "7e901602c9cb65dd6530918da0151cd3351096fc21a77f57d355b3992aa33a13",
}


class TestSynthDigitsBytes:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(0, 40), seed=st.integers(0, 2**64 - 1))
    def test_equals_the_reference_byte_for_byte(self, n, seed):
        x, y = synth_digits(n, seed=seed)
        want_x, want_y = reference_synth_digits(n, seed=seed)
        assert x.dtype == want_x.dtype and y.dtype == want_y.dtype
        assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()

    def test_fixture_sets_are_pinned(self, digits):
        train_x, train_y, test_x, test_y = digits  # synth_digits(10000, 0) and (2000, 1)
        assert digits_sha256(train_x, train_y) == DIGITS_PINS[10000, 0]
        assert digits_sha256(test_x, test_y) == DIGITS_PINS[2000, 1]

    def test_small_set_is_pinned(self):
        assert digits_sha256(*synth_digits(37, seed=5)) == DIGITS_PINS[37, 5]

    def test_holds_one_set(self):
        # the set is shuffled in place: no second [n, 28, 28] float32 copy
        (x, _), peak = traced_peak(synth_digits, 2000)
        assert peak < 1.25 * x.nbytes


CHECKPOINT_BUILDS = [
    lambda: build_mlp([6, 8, 3], seed=1),
    lambda: build_cnn((1, 8, 8), [2], 8, 3, seed=2),
    lambda: build_snn_mlp([6, 8, 3], T=5, seed=3,
                          neuron=NeuronConfig(leak=0.8, threshold=1.2,
                                              reset="soft_subtract", adapt_decay=0.3),
                          synapse=SynapseConfig(alphas=(0.4,), betas=(1.0, 0.2)),
                          surrogate=SurrogateSpec(kind="erfc", sigma=0.5)),
    lambda: TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                             n_heads=2, n_classes=3, seed=4),
    lambda: unpadded_conv_net(seed=5),
]

# sha256 of each CHECKPOINT_BUILDS model saved by test_format_is_pinned, in
# float32 and float64: a change to the SNNM bytes must show up here
FORMAT_PINS = [
    ("f2a0df2e43740c23a3d042ac060214bc63a896375e9a37377cd1dc90f6f7dd5c",
     "2ce811710cab28affc3b689d7f4f8120ed66d462c660af5a2995c7594643eb08"),
    ("0a17f0d309a973539b8c418a0007b6834bba66bca86b5d38cd782a0ffd3ea400",
     "e6c41d3bfb4a86008fe1d26d03fbb8aa24a1e791bb8efd1758771e29730154d2"),
    ("ace3c366f5338005dd0cec4428395eaaf64c96df46789ad384b059a1486bc80f",
     "046205e0fffcb4b81f6229ddab4e34706aa858dc9769e0afe7101c2a401255e0"),
    ("612ab445d4c870042ddd4893a4efbb658fff991e148ba5d80aa6031bed6d441f",
     "7367767ea684c3cd3657effcbef9158a5ee0ac83785bae7557aff877d25216a2"),
    ("dc87f1c519ed318e2fca3366dbeaa9a1ee1db575795f43a3ed283d2438b6ed0a",
     "551e63259b80bf1c40f6721f702b391d68024a12b62f55956aedac86f3f89c7e"),
]


# layer0.w dims of build_mlp([4, 3]) spliced to 16 GiB, and to 2**64 elements,
# which np.prod wraps to 0
HUGE_DIMS = struct.pack("<III", 2, 65536, 65536)
WRAPPING_DIMS = struct.pack("<5I", 4, *(65536,) * 4)


def duplicate_last_tensor(blob: bytes) -> bytes:
    """A build_mlp([4, 3]) checkpoint that lists layer0.b twice, its count raised by one."""
    last = blob.index(b"\x08\x00layer0.b")
    count_at = blob.index(b"\x08\x00layer0.w") - 4
    (count,) = struct.unpack_from("<I", blob, count_at)
    return blob[:count_at] + struct.pack("<I", count + 1) + blob[count_at + 4:] + blob[last:]


def unpadded_conv_net(seed):
    rng = np.random.default_rng(seed)
    return AnnNet([Conv2d(kaiming_uniform(rng, (2, 1, 3, 3), 9, np.float32),
                          rng.uniform(-0.1, 0.1, 2).astype(np.float32), pad=0),
                   ReLU(), Flatten(), Dense(kaiming_uniform(rng, (32, 3), 32, np.float32))],
                  input_shape=(1, 6, 6))


class TestCheckpoint:
    @pytest.mark.parametrize("build", CHECKPOINT_BUILDS)
    def test_roundtrip_bit_identical(self, build, tmp_path):
        model = build()
        path = tmp_path / "model.snnm"
        checkpoint.save_model(path, model, seed=42, config_echo={"note": "t"})
        loaded, meta = checkpoint.load_model(path)
        assert meta["seed"] == 42 and meta["config_echo"] == {"note": "t"}
        for (na, pa), (nb, pb) in zip(model.params(), loaded.params()):
            assert na == nb
            assert pa.dtype == pb.dtype
            assert np.array_equal(pa, pb)
        # saving the loaded model reproduces the file byte for byte
        path2 = tmp_path / "model2.snnm"
        checkpoint.save_model(path2, loaded, seed=42, config_echo={"note": "t"})
        assert path.read_bytes() == path2.read_bytes()

    # the float32 half of the dtype grid is test_roundtrip_bit_identical
    @pytest.mark.parametrize("build", CHECKPOINT_BUILDS)
    def test_float64_roundtrip_keeps_dtype(self, build, tmp_path):
        model = build().astype(np.float64)
        path = tmp_path / "model.snnm"
        checkpoint.save_model(path, model, seed=1)
        loaded, _ = checkpoint.load_model(path)
        for (_, pa), (_, pb) in zip(model.params(), loaded.params()):
            assert pb.dtype == np.float64
            assert np.array_equal(pa, pb)
        path2 = tmp_path / "model2.snnm"
        checkpoint.save_model(path2, loaded, seed=1)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("build", CHECKPOINT_BUILDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_format_is_pinned(self, build, dtype, tmp_path):
        path = tmp_path / "model.snnm"
        checkpoint.save_model(path, build().astype(dtype), seed=7, config_echo={"pin": 1})
        want = FORMAT_PINS[CHECKPOINT_BUILDS.index(build)][dtype == np.float64]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    def test_mixed_dtypes_rejected(self, tmp_path):
        # refused before the file is opened: no file is left to fail at load
        net = build_mlp([4, 3], seed=0)
        net.layers[0].b = net.layers[0].b.astype(np.float64)
        path = tmp_path / "m.snnm"
        with pytest.raises(FormatError, match="mixes tensor dtypes"):
            checkpoint.save_model(path, net, seed=0)
        assert not path.exists()

    def test_mixed_dtype_file_rejected_at_load(self, tmp_path):
        # a float32 file up to its bias tensor, then the float64 file's bias
        net = build_mlp([4, 3], seed=0)
        blobs = []
        for dtype in (np.float32, np.float64):
            checkpoint.save_model(tmp_path / "m.snnm", net.astype(dtype), seed=0)
            blob = (tmp_path / "m.snnm").read_bytes()
            blobs.append((blob, blob.index(b"layer0.b") - 2))  # u16 name length first
        (b32, at32), (b64, at64) = blobs
        (tmp_path / "m.snnm").write_bytes(b32[:at32] + b64[at64:])
        with pytest.raises(FormatError, match=r"mixes tensor dtypes \['float32', 'float64'\]"):
            checkpoint.load_model(tmp_path / "m.snnm")

    def test_unsupported_dtype_leaves_no_file(self, tmp_path):
        path = tmp_path / "m.snnm"
        with pytest.raises(FormatError, match="unsupported tensor dtype float16"):
            checkpoint.save_model(path, build_mlp([4, 3], seed=0).astype(np.float16), seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_leaves_no_file(self, tmp_path, seed):
        # struct.pack("<Q") cannot write it: refused before the file is opened
        path = tmp_path / "m.snnm"
        with pytest.raises(FormatError, match=rf"cannot checkpoint seed {seed}: it must lie in"):
            checkpoint.save_model(path, build_mlp([4, 3], seed=0), seed=seed)
        assert not path.exists()

    def test_unknown_layer_type_leaves_no_file(self, tmp_path):
        net = AnnNet([SpikingLayer(np.zeros((4, 3), dtype=np.float32))])
        path = tmp_path / "m.snnm"
        with pytest.raises(FormatError, match="cannot checkpoint ann layer type SpikingLayer"):
            checkpoint.save_model(path, net, seed=0)
        assert not path.exists()

    def test_loaded_snn_predicts_identically(self, tmp_path):
        net = build_snn_mlp([6, 8, 3], T=4, seed=5)
        path = tmp_path / "snn.snnm"
        checkpoint.save_model(path, net, seed=0)
        loaded, _ = checkpoint.load_model(path)
        x = np.random.default_rng(0).uniform(0, 1, (4, 6)).astype(np.float32)
        assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_non_direct_encoding_rejected(self, tmp_path, monkeypatch):
        net = build_snn_mlp([4, 3], T=2, seed=0)
        path = save_with_descriptor(tmp_path, monkeypatch, net,
                                    lambda a: a.update(encoding="poisson"))
        with pytest.raises(FormatError, match="encoding 'poisson'"):
            checkpoint.load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(FormatError, match="magic"):
            checkpoint.load_model(path)

    @pytest.mark.parametrize("build,edit,match", [
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a["surrogate"].update(bogus=1),
                     r"architecture\.surrogate\.bogus is an unknown field", id="snn-unknown"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a.update(extra=1),
                     r"architecture\.extra is an unknown field", id="snn-unknown-top"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a.pop("T"),
                     r"architecture\.T is missing", id="snn-missing"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a.update(T="8"),
                     r"architecture\.T has the wrong type", id="snn-mistyped"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a["layers"][0]["neuron"].update(leak="0.8"),
                     r"architecture\.layers\[0\]\.neuron\.leak has the wrong type",
                     id="snn-mistyped-neuron"),
        pytest.param(CHECKPOINT_BUILDS[2],
                     lambda a: a["layers"][1]["synapse"].update(betas=[1.0, "x"]),
                     r"architecture\.layers\[1\]\.synapse\.betas\[1\] has the wrong type",
                     id="snn-mistyped-item"),
        pytest.param(CHECKPOINT_BUILDS[1], lambda a: a["layers"][0].update(out_c=2.5),
                     r"architecture\.layers\[0\]\.out_c has the wrong type",
                     id="ann-mistyped-layer"),
        pytest.param(CHECKPOINT_BUILDS[1], lambda a: a["layers"][1].update(type="pool9"),
                     r"architecture\.layers\[1\]\.type is not an ann layer type",
                     id="ann-unknown-layer-type"),
        pytest.param(CHECKPOINT_BUILDS[1], lambda a: a.update(input_shape=[1, 8, "8"]),
                     r"architecture\.input_shape\[2\] has the wrong type",
                     id="ann-mistyped-shape"),
        pytest.param(CHECKPOINT_BUILDS[3], lambda a: a.update(patch=True),
                     r"architecture\.patch has the wrong type", id="attention-bool-for-int"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a.update(surrogate=[]),
                     r"architecture\.surrogate is not an object", id="snn-list-for-object"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a.update(layers={}),
                     r"architecture\.layers is not a list", id="snn-object-for-list"),
        # well-typed but out of range: these escaped as numpy or arithmetic errors
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a["layers"][0].update(out=-4),
                     r"architecture\.layers\[0\]\.out must be at least 1, got -4",
                     id="snn-negative-width"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a["layers"][1].update(**{"in": 0}),
                     r"architecture\.layers\[1\]\.in must be at least 1, got 0",
                     id="snn-zero-width"),
        pytest.param(CHECKPOINT_BUILDS[2], lambda a: a.update(T=0),
                     r"architecture\.T must be at least 1, got 0", id="snn-zero-T"),
        pytest.param(CHECKPOINT_BUILDS[0], lambda a: a["layers"][0].update(out=-1),
                     r"architecture\.layers\[0\]\.out must be at least 1", id="ann-dense-width"),
        pytest.param(CHECKPOINT_BUILDS[1], lambda a: a["layers"][0].update(kh=0),
                     r"architecture\.layers\[0\]\.kh must be at least 1", id="ann-conv-kernel"),
        pytest.param(CHECKPOINT_BUILDS[1], lambda a: a["layers"][0].update(pad=-1),
                     r"architecture\.layers\[0\]\.pad must be at least 0", id="ann-conv-pad"),
        pytest.param(CHECKPOINT_BUILDS[1], lambda a: a.update(input_shape=[1, 0, 8]),
                     r"architecture\.input_shape\[1\] must be at least 1", id="ann-shape"),
        pytest.param(CHECKPOINT_BUILDS[3], lambda a: a.update(image_shape=[1, -8, 8]),
                     r"architecture\.image_shape\[1\] must be at least 1",
                     id="attention-image-shape"),
        pytest.param(CHECKPOINT_BUILDS[3], lambda a: a.update(image_shape=[8]),
                     r"architecture\.image_shape has 1 entries, not 2 or 3",
                     id="attention-image-rank"),
        *[pytest.param(CHECKPOINT_BUILDS[3], lambda a, f=field, v=value: a.update({f: v}),
                       rf"architecture\.{field} must be at least 1, got {value}",
                       id=f"attention-{field}-{value}")
          for field in ("patch", "embed", "n_heads", "n_layers", "n_classes", "ffn_hidden")
          for value in (0, -2)],
    ])
    def test_malformed_descriptor_names_the_field(self, tmp_path, monkeypatch, build, edit,
                                                  match):
        path = save_with_descriptor(tmp_path, monkeypatch, build(), edit)
        with pytest.raises(FormatError, match=match):
            checkpoint.load_model(path)

    @pytest.mark.parametrize("shape", [[8], [1, 9, 9], [64]])
    def test_inconsistent_input_shape_is_dimension_error(self, tmp_path, monkeypatch, shape):
        # a well-formed descriptor loads; the forward's input check rejects the shape
        path = save_with_descriptor(tmp_path, monkeypatch, CHECKPOINT_BUILDS[1](),
                                    lambda a: a.update(input_shape=shape))
        loaded, _ = checkpoint.load_model(path)
        with pytest.raises(DimensionError):
            loaded.forward(np.zeros((2, 1, 8, 8), dtype=np.float32))

    def test_retired_surrogate_threshold_is_dropped(self, tmp_path, monkeypatch):
        # old SNN checkpoints carry the kernel centre that never moved the kernel
        net = CHECKPOINT_BUILDS[2]()
        path = save_with_descriptor(tmp_path, monkeypatch, net,
                                    lambda a: a["surrogate"].update(threshold=0.5))
        loaded, _ = checkpoint.load_model(path)
        assert loaded.surrogate == net.surrogate
        fresh, resaved = tmp_path / "fresh.snnm", tmp_path / "resaved.snnm"
        checkpoint.save_model(fresh, net, seed=0)
        checkpoint.save_model(resaved, loaded, seed=0)
        assert resaved.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("splice,match", [
        (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], "unsupported checkpoint version 2"),
        (lambda b: b.replace(b"\x03\x00ann", b"\x03\x00cnn", 1), "unknown model kind 'cnn'"),
        (lambda b: b.replace(b"layer0.w\x00", b"layer0.w\x07", 1),
         "unknown tensor dtype tag 7"),
        (lambda b: b + b"\x00", "trailing bytes after checkpoint payload"),
        (lambda b: b.replace(b"layer0.b", b"layer0.c", 1),
         "checkpoint tensors do not match the architecture descriptor"),
        (lambda b: b.replace(struct.pack("<III", 2, 4, 3), struct.pack("<III", 2, 3, 4), 1),
         r"tensor layer0.w shape \(3, 4\) != expected \(4, 3\)"),
        (lambda b: b.replace(struct.pack("<III", 2, 4, 3), HUGE_DIMS, 1),
         "truncated checkpoint: expected 17179869184 bytes for tensor layer0.w"),
        (lambda b: b.replace(struct.pack("<III", 2, 4, 3), WRAPPING_DIMS, 1),
         "truncated checkpoint: expected 73786976294838206464 bytes for tensor layer0.w"),
        (duplicate_last_tensor, "tensor layer0.b appears twice in the checkpoint"),
    ], ids=["version", "kind", "dtype-tag", "trailing-byte", "renamed-tensor", "swapped-dims",
            "dims-past-the-end", "dims-wrapping-int64", "duplicate-tensor"])
    def test_spliced_file_is_refused(self, tmp_path, splice, match):
        path = tmp_path / "m.snnm"
        checkpoint.save_model(path, build_mlp([4, 3], seed=0), seed=0)
        blob = path.read_bytes()
        spliced = splice(blob)
        assert spliced != blob
        path.write_bytes(spliced)
        with pytest.raises(FormatError, match=match):
            checkpoint.load_model(path)

    def test_unknown_model_type_leaves_no_file(self, tmp_path):
        path = tmp_path / "m.snnm"
        with pytest.raises(FormatError, match="cannot checkpoint model type object"):
            checkpoint.save_model(path, object())
        assert not path.exists()

    def test_truncation_detected(self, tmp_path):
        net = build_mlp([4, 3], seed=0)
        path = tmp_path / "m.snnm"
        checkpoint.save_model(path, net, seed=0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="truncated"):
            checkpoint.load_model(path)


def save_with_descriptor(tmp_path, monkeypatch, model, edit):
    """Save ``model`` with its architecture descriptor changed in place by ``edit``."""
    describe = checkpoint.describe

    def doctored(m):
        arch = describe(m)
        edit(arch)
        return arch

    monkeypatch.setattr(checkpoint, "describe", doctored)
    path = tmp_path / "m.snnm"
    checkpoint.save_model(path, model, seed=0)
    monkeypatch.undo()
    return path


class TestRunConfig:
    def test_file_parse_and_precedence(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nseed=5\nepochs=3\n")
        schema = {"seed": (int, 0), "epochs": (int, 10), "lr": (float, 0.1)}
        monkeypatch.setenv("SNNADV_EPOCHS", "7")
        resolved = resolve_config(schema, config_file=str(cfg_file),
                                  flags={"lr": 0.5, "seed": None})
        assert resolved == {"seed": 5, "epochs": 7, "lr": 0.5}

    def test_unknown_keys_rejected_listing_all(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus=1\nmystery=2\n")
        with pytest.raises(ConfigError, match="bogus, mystery"):
            resolve_config({"seed": (int, 0)}, config_file=str(cfg_file))

    def test_unknown_flag_keys_rejected(self):
        with pytest.raises(ConfigError, match="^unknown config keys from flags: bogus, odd$"):
            resolve_config({"seed": (int, 0)}, flags={"odd": 1, "seed": 2, "bogus": None})

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("not a key value line\n")
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            parse_config_file(cfg_file)

    @pytest.mark.parametrize("text,want", [("1", True), ("Yes", True), ("on", True),
                                           ("0", False), ("false", False), ("OFF", False)])
    def test_bool_from_file_and_environment(self, tmp_path, text, want):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"random-start={text}\n")
        schema = _SCHEMAS["attack"]
        from_file = resolve_config(schema, config_file=str(cfg_file), environ={})
        from_env = resolve_config(schema, environ={"SNNADV_RANDOM_START": text})
        assert from_file["random-start"] is want and from_env["random-start"] is want

    def test_bad_bool_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SNNADV_RANDOM_START", "maybe")
        with pytest.raises(ConfigError) as info:
            resolve_config(_SCHEMAS["attack"])
        assert str(info.value) == "config key random-start: cannot parse 'maybe' as bool"
        assert cli_main(["attack", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_echo_is_reloadable(self, tmp_path):
        out = write_config_echo(tmp_path, {"seed": 3, "name": "x"})
        assert parse_config_file(out) == {"seed": "3", "name": "x"}


# Every subcommand once, run in order from one working directory. The paths
# are relative: config.txt echoes out=, and the converted checkpoint embeds
# the --ann path. The blobs models keep every product's reduction axis short,
# so the bytes do not depend on the BLAS thread count.
_BLOBS = "--data blobs --n-train 200 --n-test 100 --seed 0"
_BUDGET = "--eps 0.2 --eps-step 0.05 --steps 3 --n 20"
_TINY_ATTENTION = "--kind attention --embed 8 --att-layers 1 --att-heads 1 --epochs 1"
END_TO_END = [
    f"train {_BLOBS} --kind ann --arch 2-8-2 --epochs 6 --out ann",
    f"train {_BLOBS} --kind snn --arch 2-16-2 --epochs 10 --lr 0.01 --out snn",
    f"train --data digits --n-train 300 --n-test 100 {_TINY_ATTENTION} --out att",
    "inspect snn/model.snnm",
    f"convert {_BLOBS} --ann ann/model.snnm --timesteps 16 --n-calib 64 --out conv",
    f"attack {_BLOBS} --kind pgd --models snn/model.snnm --surrogate sigmoid {_BUDGET} --out pgd",
    f"attack {_BLOBS} --kind pgd --models ann/model.snnm --no-random-start {_BUDGET} "
    "--out pgd-fixed",
    f"attack {_BLOBS} --kind autosaga --models snn/model.snnm,ann/model.snnm --alphas 0.7,0.3 "
    f"{_BUDGET} --out asaga",
    f"sweep-surrogate {_BLOBS} --model snn/model.snnm --eps 0,0.1,0.2 "
    "--surrogates arctan,sigmoid --steps 3 --n 20 --out sweep",
    f"transfer-matrix {_BLOBS} --models ann/model.snnm,snn/model.snnm,conv/converted.snnm "
    f"{_BUDGET} --out tm",
    f"multi-attack {_BLOBS} "
    "--pairs snn/model.snnm:ann/model.snnm,conv/converted.snnm:ann/model.snnm "
    "--eps 0.2 --single-eps-step 0.05 --saga-eps-step 0.05 --steps 3 --n 20 --out cmp",
    f"train --data auto --n-train 60 --n-test 20 {_TINY_ATTENTION} --out auto",
]

# sha256 of every file the END_TO_END runs write, computed before the run
# protocol moved into cli.main: a change to any run's bytes must show up here.
# The asaga, tm and cmp reports name their models by path ("snn/model"), as
# their checkpoints share the stem "model". The att and auto entries were
# re-pinned when --optimizer auto came to give attention nets SGD, and
# cmp/config.txt when multi-attack gained the alphas key (echoed empty).
END_TO_END_SHA256 = {
    "ann/config.txt": "17274df324320cea7691779aa1773d47be7786533ee9544a7839a169fb041897",
    "ann/history.json": "7d058af7c4ce6e996682d355d529e3e274bcca19310cf4c4bff454bb2f15fc20",
    "ann/model.snnm": "34cea3fb6e805bb82d74f9b2d8658cf3ee0e74377e651a6a0dafdaf33ec8d369",
    "asaga/attack_report.json": "774e9f275ac65b7cfbca3c0ec1f883c1acffdbba2bc1970ee0dd00f79c9d49cd",
    "asaga/config.txt": "c08be09f34807e8780c7cf533c5f2dbd6961f24ed04e7e36015c7f6de3ebf82c",
    "att/config.txt": "25f7652099a6085c4a2f3bb702d1832436505dcba1766c43d2ec74c898f980cb",
    "att/history.json": "53291659ee32373cca93ddecca76b84ab4c7e9baf0d90a1ee185566d5c1da9db",
    "att/model.snnm": "f9a1461d40c6972812355930caa5bd3209f4c09b85cf1ee7766fc3623363f795",
    "auto/config.txt": "85f409bbaf2b5a8157b4961cd630eef9a36021d85c5092b9dc9ad1fc3fd7ceaa",
    "auto/history.json": "b0655ac3b8dde5fa58ddceef01bdf4e09ca4f91f3066b8359daee6a174cd7873",
    "auto/model.snnm": "1a92ce1df3f736afb22f7bc336b85762b818fba3b8b4b0983162f1f01ff1df01",
    "cmp/comparison.csv": "329cb0d37c2bda5116acec274c7038a8f58b642b3c1bcf3d88c8cfab89869cad",
    "cmp/comparison.json": "f044fa1517a56c975e341407d6044ebbdbfe14d3f7a57f7adc63f5ce87e5020f",
    "cmp/config.txt": "d2ac3fce0aa6954d8b7be5fa52273d8321f4126cdc42fa29b7a217964bcd9cb3",
    "conv/config.txt": "8768b9a89f0c2c264f52ad60b63ab5ffa77785881c0ca1fec19704de537d096d",
    "conv/convert_report.json": "5df8775a54d8d3c883ea7589802541d211c5870e84508f4752c03047b34d6e39",
    "conv/converted.snnm": "aa0e7f3c0f5a94afb339b095e24f41d9a872c190a9a43fa34c47f58a32493072",
    "pgd/attack_report.json": "faf576c69a82b7ecd451f811172ca81cf5ac9763290f28395e19ae3f508be366",
    "pgd/config.txt": "100abb3b952dfd5621a1b0def1c6001fdcd1d502e787fbecdc0d38399fd65de0",
    "pgd-fixed/attack_report.json":
        "11588a8c617312cc161e11ccfde05257ddbfb3806f80b8bf8e110160e0182f72",
    "pgd-fixed/config.txt": "e197566df1d103ad42c217dd978dca656568f4630a84ae38d752531f4cf49c19",
    "snn/config.txt": "45a152be79671bcf046fb3cc3836d55e997b435a0942be683c15a764f7737b89",
    "snn/history.json": "957333f1a85f8ad800e0288178301eb4bddbc7f5d752c09faf331431c5c6a341",
    "snn/model.snnm": "bc0e64d76e587f95e3509935e01dd2713bea1eae9c8ddcd199da2ed4b1e1bc70",
    "sweep/config.txt": "d705e7f6cf729ff78be50dc7769527c4086d26cdd44bacb62c4561ea7068ed90",
    "sweep/sweep.csv": "06a081f6dc2d38b291b97a56b28a8ba989ab7db3d182930033cad53cf64c60ce",
    "sweep/sweep.json": "ce0cb04087f78dcedef438dd1dcad053b2a8f24967e88ad20a1a39c3def65653",
    "tm/config.txt": "cc4bf060de371bd7a3adba0e56536633b6ed74e7f3876afc1e271fcba4f19635",
    "tm/transfer.json": "6056466fd6c716ea70c1d3e914918aa50aa216361236186ed71fe092495be066",
    "tm/transfer_fgsm.csv": "232e91ecf95bba568eae4a467e5b338812853b8e2ca26127f9d225bd540dc9e4",
    "tm/transfer_max.csv": "5ac4bd51cdfcac256f36efaba05e29cbdfa731b068789cc75e15ce7e77b0404a",
    "tm/transfer_mim.csv": "5ac4bd51cdfcac256f36efaba05e29cbdfa731b068789cc75e15ce7e77b0404a",
    "tm/transfer_pgd.csv": "8532f30828409607e4dc0c7da89476976aa00145de3ab18c15aa05e2101e61a1",
}


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_train_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = self.run("train", "--data", "blobs", "--kind", "ann", "--arch", "2-8-2",
                        "--epochs", "2", "--n-train", "120", "--n-test", "40",
                        "--seed", "3", "--out", str(out))
        assert code == 0
        assert (out / "model.snnm").exists()
        assert (out / "config.txt").exists()
        history = json.loads((out / "history.json").read_text())
        assert len(history["train_acc"]) == 2

    def test_run_directory_reproducible_bit_identically(self, tmp_path):
        args = ["train", "--data", "blobs", "--kind", "snn", "--arch", "2-6-2",
                "--epochs", "1", "--n-train", "80", "--n-test", "20", "--seed", "9"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run(*args, "--out", str(out_a)) == 0
        assert self.run(*args, "--out", str(out_b)) == 0
        for name in ("model.snnm", "history.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def trained_params(self, out, *argv):
        """The params of the checkpoint one run writes to ``out``, as bytes:
        the file itself also embeds the config echo."""
        assert self.run(*argv, "--out", str(out)) == 0
        model, _ = checkpoint.load_model(next(out.glob("*.snnm")))
        return [(name, p.tobytes()) for name, p in model.params()]

    def test_auto_optimizer_of_attention_is_sgd(self, tmp_path):
        # the attention nets of the fixtures and the bench train with SGD
        argv = ["train", "--data", "digits", "--n-train", "60", "--n-test", "20",
                *shlex.split(_TINY_ATTENTION)]
        auto = self.trained_params(tmp_path / "auto", *argv, "--optimizer", "auto")
        assert auto == self.trained_params(tmp_path / "sgd", *argv, "--optimizer", "sgd")

    def test_convert_lr_0_fine_tunes_at_the_default_rate(self, tmp_path, blobs_ann):
        argv = ["convert", "--ann", str(blobs_ann), *shlex.split(_BLOBS), "--timesteps", "16",
                "--n-calib", "64"]
        zero = self.trained_params(tmp_path / "zero", *argv, "--lr", "0")
        assert zero == self.trained_params(tmp_path / "default", *argv, "--lr", "0.001")
        assert zero != self.trained_params(tmp_path / "raw", *argv, "--fine-tune-epochs", "0")

    @pytest.mark.parametrize("old_line", ["", "surrogate-threshold=1.0\n"],
                             ids=["echo", "older-echo"])
    def test_echoed_config_replays_bit_identically(self, tmp_path, old_line):
        # an echo from before the kernel-centre key was retired holds it at 1.0
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run("train", "--data", "blobs", "--kind", "snn", "--arch", "2-6-2",
                        "--epochs", "1", "--n-train", "80", "--n-test", "20", "--seed", "9",
                        "--out", str(out_a)) == 0
        echo = out_a / "config.txt"
        echo.write_text(echo.read_text() + old_line)
        assert self.run("train", "--config", str(echo), "--out", str(out_b)) == 0
        for name in ("model.snnm", "history.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_retired_key_with_another_value_is_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("data=blobs\nkind=snn\narch=2-6-2\nsurrogate-threshold=0.5\n")
        assert self.run("train", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: config key surrogate-threshold is retired")
        assert "\n" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,key", [
        (["sweep-surrogate", "--eps", "0.01,abc"], "eps"),
        (["attack", "--alphas", "0.5,x"], "alphas"),
        (["train", "--arch", "2-x-2"], "arch"),
        (["multi-attack", "--pairs", "a.snnm:b.snnm", "--alphas", "0.5,x"], "alphas"),
    ], ids=["eps", "alphas", "arch", "multi-alphas"])
    def test_malformed_list_is_one_line_error_before_data(self, tmp_path, capsys, argv, key):
        # the data source does not exist: the list must be rejected before loading it
        code = self.run(*argv, "--data", "nowhere", "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: config key {key}: cannot parse") and "\n" not in err

    # one int and one float key of each subcommand
    _INT_KEYS = {"train": "epochs", "convert": "n-calib", "attack": "steps",
                 "sweep-surrogate": "steps", "transfer-matrix": "n", "multi-attack": "n"}
    _FLOAT_KEYS = {"train": "lr", "convert": "percentile", "attack": "eps",
                   "sweep-surrogate": "eps-step", "transfer-matrix": "eps",
                   "multi-attack": "saga-eps-step"}

    @pytest.mark.parametrize("argv,message", [
        *[([command, f"--{key}", "2.5"], f"config key {key}: cannot parse '2.5' as int")
          for command, key in _INT_KEYS.items()],
        *[([command, f"--{key}", "abc"], f"config key {key}: cannot parse 'abc' as float")
          for command, key in _FLOAT_KEYS.items()],
        *[([command, "--bogus", "1"], "unrecognized arguments: --bogus 1")
          for command in _INT_KEYS],
        *[([command, f"--{key}"], f"argument --{key}: expected one argument")
          for command, key in _FLOAT_KEYS.items()],
        ([], "the following arguments are required: command"),
    ], ids=[*(f"{c}-int" for c in _INT_KEYS), *(f"{c}-float" for c in _FLOAT_KEYS),
            *(f"{c}-unknown-flag" for c in _INT_KEYS), *(f"{c}-no-value" for c in _FLOAT_KEYS),
            "no-subcommand"])
    def test_refused_command_line_is_one_line_error(self, tmp_path, capsys, argv, message):
        out = ["--out", str(tmp_path / "o")] if argv else []
        assert self.run(*argv[:1], *out, *argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value,typ", [("steps", "2.5", "int"), ("eps", "abc", "float")])
    def test_flag_environment_and_file_values_parse_alike(self, tmp_path, monkeypatch, capsys,
                                                          key, value, typ):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}={value}\n")
        errors = []
        for argv, env in [([f"--{key}", value], {}), (["--config", str(cfg)], {}),
                          ([], {f"SNNADV_{key.upper()}": value})]:
            with monkeypatch.context() as patch:
                for name, text in env.items():
                    patch.setenv(name, text)
                assert self.run("attack", *argv, "--out", str(tmp_path / "o")) == 2
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: config key {key}: cannot parse {value!r} as {typ}\n"] * 3

    @pytest.mark.parametrize("argv", [["-h"], ["attack", "-h"]], ids=["top", "attack"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            self.run(*argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: snnadv")

    @pytest.mark.parametrize("argv,message", [
        (["attack", "--kind", "bogus"],
         "unknown attack kind 'bogus'; choose one of fgsm, pgd, mim, saga, autosaga"),
        (["transfer-matrix", "--attacks", "pgd,bogus"],
         "unknown attack kind 'bogus'; choose one of fgsm, pgd, mim, saga, autosaga"),
        (["multi-attack"], "multi-attack needs --pairs a.snnm:b.snnm[,c:d]"),
        (["multi-attack", "--pairs", "a.snnm"], "bad pair spec 'a.snnm'"),
        (["convert"], "convert needs --ann checkpoint path"),
        (["sweep-surrogate"], "sweep needs --model checkpoint path"),
        (["attack"], "no model checkpoints given"),
        (["transfer-matrix"], "no model checkpoints given"),
        # the kind list is checked before the checkpoints and the data load
        (["transfer-matrix", "--attacks", "pgd,PGD"], "attack kind 'pgd' named twice"),
        (["transfer-matrix", "--attacks", ","], "transfer matrix needs at least one attack kind"),
        (["attack", "--kind", "saga", "--alphas", "0.5,-1"],
         "blend coefficients must be non-negative and finite, got (0.5, -1.0)"),
        (["multi-attack", "--pairs", "a.snnm:b.snnm", "--alphas", "0.5,0.3,0.2"],
         "3 coefficients for 2 models"),
        (["multi-attack", "--pairs", "a.snnm:b.snnm", "--alphas", "0.5,-1"],
         "blend coefficients must be non-negative and finite, got (0.5, -1.0)"),
        (["attack", "--kind", "saga", "--alphas", "0,0"],
         "blend coefficients must not all be zero, got (0.0, 0.0)"),
        (["multi-attack", "--pairs", "a.snnm:b.snnm", "--alphas", "0,0"],
         "blend coefficients must not all be zero, got (0.0, 0.0)"),
        (["sweep-surrogate", "--surrogates", "arctan,bogus"],
         "unknown surrogate kind 'bogus'; choose one of sigmoid, erfc, arctan, "
         "piecewise_linear, fast_sigmoid, piecewise_exp, rectangular"),
        (["convert", "--ann", "missing.snnm", "--surrogate-sigma", "inf"],
         "surrogate sigma must be > 0 and finite, got inf"),
        # the sweep grid is checked before the checkpoint is loaded
        (["sweep-surrogate", "--model", "missing.snnm", "--surrogates", ","],
         "surrogate sweep needs at least one kernel and one eps"),
        (["sweep-surrogate", "--model", "missing.snnm", "--eps", "0.01,-0.1"],
         "eps_max must be in [0, 1], got -0.1"),
        (["sweep-surrogate", "--model", "missing.snnm", "--eps", "0,1.5"],
         "eps_max must be in [0, 1], got 1.5"),
    ], ids=["attack-kind", "transfer-kind", "no-pairs", "pair-spec", "convert-ann",
            "sweep-model", "attack-models", "transfer-models", "transfer-kind-twice",
            "transfer-no-kinds", "negative-alphas",
            "pair-alphas-count", "pair-negative-alphas", "zero-alphas", "pair-zero-alphas",
            "surrogate-kind", "convert-sigma", "sweep-no-kernels", "sweep-negative-eps",
            "sweep-eps-above-one"])
    def test_bad_attack_or_model_spec_is_one_line_error_before_data(self, tmp_path, capsys,
                                                                     argv, message):
        # the data source does not exist: the spec must be rejected before loading it
        code = self.run(*argv, "--data", "nowhere", "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--data", "nowhere"], "unknown data source 'nowhere'"),
        (["--data", "mnist"], f"data=mnist but no IDX files found (set {MNIST_ENV_VAR} "
                              "or place files under ./data)"),
        (["--arch", "784", "--data", "nowhere"], "arch needs at least two widths, got '784'"),
        (["--optimizer", "rmsprop", "--data", "nowhere"], "unknown optimizer 'rmsprop'"),
        (["--kind", "cnn", "--data", "blobs"], "unknown model kind 'cnn'"),
        (["--kind", "cnn", "--data", "nowhere"], "unknown model kind 'cnn'"),
        (["--kind", "attention", "--data", "blobs"], "attention models need image data"),
        (["--kind", "snn", "--arch", "2-4-2", "--surrogate-sigma", "inf", "--data", "nowhere"],
         "surrogate sigma must be > 0 and finite, got inf"),
        (["--kind", "snn", "--arch", "2-4-2", "--adapt-decay", "nan", "--data", "nowhere"],
         "adapt_decay must be in [0, 1), got nan"),
        (["--kind", "snn", "--arch", "2-4-2", "--timesteps", "0", "--data", "nowhere"],
         "timestep count T must be >= 1, got 0"),
        (["--kind", "snn", "--arch", "2-4-2", "--readout", "bogus", "--data", "nowhere"],
         "unknown readout 'bogus'"),
        (["--arch", "4-0-2", "--data", "nowhere"], "layer widths must be >= 1, got [4, 0, 2]"),
        (["--arch", "2-4-2", "--seed", "-1", "--data", "nowhere"], "seed must be >= 0, got -1"),
    ], ids=["data", "mnist", "arch", "optimizer", "kind", "kind-before-data",
            "attention-on-blobs", "sigma-before-data", "adapt-decay-before-data",
            "timesteps-before-data", "readout-before-data", "zero-width-before-data",
            "seed-before-data"])
    def test_bad_training_setup_is_one_line_error(self, tmp_path, monkeypatch, capsys, argv,
                                                  message):
        monkeypatch.chdir(tmp_path)  # no ./data: no IDX files
        monkeypatch.delenv(MNIST_ENV_VAR, raising=False)
        assert self.run("train", "--n-train", "20", "--n-test", "10", *argv,
                        "--out", "o") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_multi_attack_alphas_reach_both_blends(self, tmp_path, monkeypatch, blobs_ann):
        seen = {}

        def spy(name):
            real = getattr(attacks, name)

            def blend(models, x, labels, cfg):
                seen[name] = cfg.alphas
                return real(models, x, labels, cfg)
            monkeypatch.setattr(attacks, name, blend)

        spy("saga")
        spy("auto_saga")
        assert self.run("multi-attack", *shlex.split(_BLOBS), "--pairs",
                        f"{blobs_ann}:{blobs_ann}", "--alphas", "0.8,0.2", "--eps", "0.2",
                        "--steps", "2", "--n", "10", "--out", str(tmp_path / "cmp")) == 0
        assert seen == {"saga": (0.8, 0.2), "auto_saga": (0.8, 0.2)}

    def test_multi_attack_prints_one_line_per_pair(self, tmp_path, capsys, blobs_ann):
        out = tmp_path / "cmp"
        assert self.run("multi-attack", *shlex.split(_BLOBS), "--pairs",
                        f"{blobs_ann}:{blobs_ann},{blobs_ann}:{blobs_ann}", "--eps", "0.2",
                        "--steps", "2", "--n", "10", "--out", str(out)) == 0
        rows = json.loads((out / "comparison.json").read_text())["rows"]
        assert [sorted(row) for row in rows] == [sorted(["pair", *harness.COMPARISON_COLUMNS,
                                                         "n"])] * 2
        # the line as it was printed before the columns were named in one place
        assert capsys.readouterr().out == "".join(
            f"{row['pair']}: max_mim={row['max_mim']:.3f} max_pgd={row['max_pgd']:.3f} "
            f"basic_saga={row['basic_saga']:.3f} auto_saga={row['auto_saga']:.3f}\n"
            for row in rows)

    @pytest.mark.parametrize("kind,n_models", [("saga", 2), ("autosaga", 2), ("pgd", 1)])
    def test_wrong_alphas_count_is_refused_before_data(self, tmp_path, capsys, blobs_ann,
                                                       kind, n_models):
        code = self.run("attack", "--kind", kind, "--models",
                        ",".join([str(blobs_ann)] * n_models), "--alphas", "0.5,0.3,0.2",
                        "--data", "nowhere", "--out", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err == f"error: 3 coefficients for {n_models} models\n"
        assert not (tmp_path / "o").exists()

    def test_attack_surrogate_attacks_a_view(self, tmp_path, monkeypatch, blobs_snn):
        loaded, attacked = [], []
        load, run = checkpoint.load_model, cli.run_attack

        def spy_load(path):
            loaded.append(load(path))
            return loaded[-1]

        def spy_run(kind, models, *args, **kwargs):
            attacked.extend(models)
            return run(kind, models, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "load_model", spy_load)
        monkeypatch.setattr(cli, "run_attack", spy_run)
        assert self.run("attack", *shlex.split(_BLOBS), "--models", str(blobs_snn),
                        "--surrogate", "erfc", "--eps", "0.2", "--steps", "2", "--n", "10",
                        "--out", str(tmp_path / "atk")) == 0
        (net, _), = loaded
        assert attacked[0].surrogate.kind == "erfc" and attacked[0].layers is net.layers
        assert net.surrogate == SurrogateSpec()  # the checkpoint's own kernel

    def test_attention_on_blobs_is_refused_before_data(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("data was built")

        monkeypatch.setattr(cli, "_load_dataset", refuse)
        assert self.run("train", "--kind", "attention", "--data", "blobs",
                        "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "error: attention models need image data\n"

    def test_blobs_are_one_task_whatever_the_seed(self, tmp_path, blobs_ann):
        cfg = {"data": "blobs", "n-train": 30, "n-test": 10}
        first, other = (cli._load_dataset({**cfg, "seed": seed}) for seed in (0, 3))
        for a, b in zip(first[:4], other[:4]):
            assert np.array_equal(a, b)
        # blobs_ann trained at seed 0 scores the same task at seed 3
        assert self.run("convert", "--ann", str(blobs_ann), "--data", "blobs",
                        "--n-train", "200", "--n-test", "100", "--timesteps", "16",
                        "--n-calib", "64", "--seed", "3", "--out", str(tmp_path / "c")) == 0
        report = json.loads((tmp_path / "c" / "convert_report.json").read_text())
        assert report["test_acc"] >= 0.9

    def test_sweep_of_a_non_spiking_model_is_one_line_error(self, tmp_path, blobs_ann, capsys):
        assert self.run("sweep-surrogate", "--model", str(blobs_ann), "--data", "nowhere",
                        "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "error: surrogate sweep expects a spiking checkpoint\n"

    @pytest.mark.parametrize("command", ["train", "convert"])
    def test_empty_test_set_is_one_line_error_before_data(self, tmp_path, capsys, blobs_ann,
                                                          command):
        # both commands score their model on the test set; the data source does
        # not exist, so the count must be rejected before any data is built
        argv = ["--ann", str(blobs_ann)] if command == "convert" else ["--kind", "ann"]
        code = self.run(command, *argv, "--data", "nowhere", "--n-test", "0",
                        "--out", str(tmp_path / "o"))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: n-test must be >= 1 to score the model, got 0"
        assert "epoch" not in captured.out and not (tmp_path / "o").exists()

    def test_failed_run_leaves_no_config_echo(self, tmp_path, monkeypatch):
        # config.txt is written last: a directory that holds it holds a complete run
        def refuse(payload, path):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(harness, "write_json", refuse)
        out = tmp_path / "o"
        assert self.run("train", "--data", "blobs", "--kind", "ann", "--arch", "2-4-2",
                        "--epochs", "1", "--n-train", "20", "--n-test", "10",
                        "--out", str(out)) == 2
        assert (out / "model.snnm").exists() and not (out / "config.txt").exists()

    def test_every_subcommand_writes_pinned_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(MNIST_ENV_VAR, raising=False)  # data=auto: synthetic digits
        for line in END_TO_END:
            assert self.run(*shlex.split(line)) == 0, line
        assert "invariants: ok" in capsys.readouterr().out
        # a subcommand without an end-to-end run fails here
        assert {line.split()[0] for line in END_TO_END} == set(_SCHEMAS) | {"inspect"}
        written = {path.relative_to(tmp_path).as_posix():
                   hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.rglob("*") if path.is_file()}
        assert written == END_TO_END_SHA256

    def test_bad_checkpoint_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "m.snnm"
        checkpoint.save_model(path, build_mlp([4, 3], seed=0), seed=0)
        blob = path.read_bytes()
        at = blob.index(b'{"input_shape"')
        path.write_bytes(blob[:at] + b"#" + blob[at + 1:])
        assert self.run("inspect", str(path)) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: bad checkpoint architecture") and "\n" not in err

    def test_out_of_range_checkpoint_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        # a zero patch size was a ZeroDivisionError traceback
        path = save_with_descriptor(tmp_path, monkeypatch, CHECKPOINT_BUILDS[3](),
                                    lambda a: a.update(patch=0))
        assert self.run("inspect", str(path)) == 2
        err = capsys.readouterr().err.strip()
        assert err == "error: checkpoint architecture.patch must be at least 1, got 0"

    def test_dims_past_the_end_are_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "m.snnm"
        checkpoint.save_model(path, build_mlp([4, 3], seed=0), seed=0)
        path.write_bytes(path.read_bytes().replace(struct.pack("<III", 2, 4, 3), HUGE_DIMS, 1))
        assert self.run("inspect", str(path)) == 2
        err = capsys.readouterr().err.strip()
        assert err == ("error: truncated checkpoint: expected 17179869184 bytes for "
                       "tensor layer0.w")

    def test_readme_commands_parse(self):
        # guards README's CLI block against flag drift
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("snnadv ")]
        parser = _build_parser()
        for argv in commands:
            parser.parse_args(argv)
        assert {argv[0] for argv in commands} == set(_SCHEMAS) | {"inspect"}

    def test_attack_pipeline_and_csv_schema(self, tmp_path):
        train_out = tmp_path / "t"
        assert self.run("train", "--data", "blobs", "--kind", "ann", "--arch", "2-8-2",
                        "--epochs", "6", "--n-train", "200", "--n-test", "100",
                        "--seed", "0", "--out", str(train_out)) == 0
        atk_out = tmp_path / "atk"
        code = self.run("attack", "--data", "blobs", "--kind", "pgd",
                        "--models", str(train_out / "model.snnm"),
                        "--eps", "0.2", "--eps-step", "0.05", "--steps", "5",
                        "--n", "20", "--n-train", "200", "--n-test", "100",
                        "--seed", "0", "--out", str(atk_out))
        assert code == 0
        report = json.loads((atk_out / "attack_report.json").read_text())
        assert 0.0 <= report["joint_success_rate"] <= 1.0
        tm_out = tmp_path / "tm"
        code = self.run("transfer-matrix", "--data", "blobs",
                        "--models", str(train_out / "model.snnm"),
                        "--attacks", "fgsm,pgd", "--eps", "0.2", "--eps-step", "0.05",
                        "--steps", "3", "--n", "10", "--n-train", "200",
                        "--n-test", "100", "--seed", "0", "--out", str(tm_out))
        assert code == 0
        with open(tm_out / "transfer_max.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "generator" and rows[0][1] == "model"
        for cell in rows[1][1:]:
            assert 0.0 <= float(cell) <= 1.0

    def test_transfer_matrix_takes_attention_checkpoints(self, tmp_path, ann_mlp,
                                                         attention_net):
        # distinct stems: a checkpoint's file stem names its row and column
        paths = [checkpoint.save_model(tmp_path / f"{stem}.snnm", model, seed=0)
                 for stem, model in (("mlp", ann_mlp), ("attention", attention_net))]
        out = tmp_path / "tm"
        assert self.run("transfer-matrix", "--data", "digits",
                        "--models", ",".join(str(path) for path in paths),
                        "--eps", "0.05", "--eps-step", "0.0125", "--steps", "3", "--n", "20",
                        "--n-train", "0", "--n-test", "200", "--out", str(out)) == 0
        for attack in ("fgsm", "pgd", "mim", "max"):
            with open(out / f"transfer_{attack}.csv") as fh:
                header, *rows = csv.reader(fh)
            assert header == ["generator", "mlp", "attention"]
            assert [row[0] for row in rows] == ["mlp", "attention"]
            rates = np.array([row[1:] for row in rows], dtype=float)
            assert rates.shape == (2, 2) and np.all((rates >= 0) & (rates <= 1))

    def test_checkpoints_sharing_a_stem_are_named_by_path(self, tmp_path, monkeypatch,
                                                         blobs_ann):
        monkeypatch.chdir(tmp_path)
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            (tmp_path / run / "model.snnm").write_bytes(blobs_ann.read_bytes())
        assert self.run("transfer-matrix", "--data", "blobs", "--models",
                        "a/model.snnm,b/model.snnm", "--attacks", "fgsm", "--eps", "0.2",
                        "--n", "10", "--n-train", "0", "--n-test", "100", "--out", "tm") == 0
        with open(tmp_path / "tm" / "transfer_fgsm.csv") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["generator", "a/model", "b/model"]
        assert [row[0] for row in rows] == ["a/model", "b/model"]

    @pytest.fixture(scope="class")
    def blobs_ann(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("blobs_ann")
        assert self.run("train", "--data", "blobs", "--kind", "ann", "--arch", "2-8-2",
                        "--epochs", "6", "--n-train", "200", "--n-test", "100",
                        "--seed", "0", "--out", str(out)) == 0
        return out / "model.snnm"

    @pytest.fixture(scope="class")
    def blobs_snn(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("blobs_snn") / "snn.snnm"
        checkpoint.save_model(path, build_snn_mlp([2, 6, 2], T=4, seed=0), seed=0)
        return path

    @pytest.fixture(scope="class")
    def blobs_attention(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("blobs_attention") / "attention.snnm"
        net = TinyAttentionNet(image_shape=(4, 4), patch=2, embed=4, n_layers=1, n_heads=1,
                               n_classes=2, seed=0)
        checkpoint.save_model(path, net, seed=0)
        return path

    @pytest.mark.parametrize("argv,message", [
        (["attack", "--models", "{ann}", "--n", "0"], "n must be >= 1, got 0"),
        (["transfer-matrix", "--models", "{ann}", "--n", "0"], "n must be >= 1, got 0"),
        (["multi-attack", "--pairs", "{ann}:{ann}", "--n", "0"], "n must be >= 1, got 0"),
        (["attack", "--models", "{ann}", "--n", "-3"], "n must be >= 1, got -3"),
        (["sweep-surrogate", "--model", "{snn}", "--n", "0"], "n must be >= 1, got 0"),
        (["sweep-surrogate", "--model", "{snn}", "--surrogates", ",", "--n", "10"],
         "surrogate sweep needs at least one kernel and one eps"),
        (["transfer-matrix", "--models", "{ann}", "--attacks", ","],
         "transfer matrix needs at least one attack kind"),
        (["transfer-matrix", "--models", "{ann}", "--attacks", "pgd,PGD"],
         "attack kind 'pgd' named twice"),
        (["convert", "--ann", "{ann}", "--percentile", "150"],
         "percentile must be in [0, 100], got 150.0"),
        (["convert", "--ann", "{ann}", "--n-calib", "-5"], "n-calib must be >= 1, got -5"),
        (["convert", "--ann", "{ann}", "--fine-tune-epochs", "-2"],
         "fine-tuning needs epochs >= 0, got -2"),
        (["train", "--kind", "attention", "--data", "digits", "--patch", "0"],
         "patch, embed and n_heads must be >= 1, got 0, 32 and 2"),
        (["train", "--kind", "attention", "--data", "digits", "--att-heads", "0"],
         "patch, embed and n_heads must be >= 1, got 4, 32 and 0"),
        (["train", "--kind", "attention", "--data", "digits", "--embed", "0"],
         "patch, embed and n_heads must be >= 1, got 4, 0 and 2"),
        (["train", "--arch", "2-0-2"], "layer widths must be >= 1, got [2, 0, 2]"),
        (["train", "--arch", "2-4-2", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["attack", "--models", "{ann}", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--arch", "2-4-2", "--lr", "-1"],
         "learning rate must be finite and >= 0, got -1.0"),
        (["convert", "--ann", "{ann}", "--lr", "-1"],
         "learning rate must be finite and >= 0, got -1.0"),
        (["convert", "--ann", "{ann}", "--fine-tune-epochs", "0", "--lr", "-1"],
         "learning rate must be finite and >= 0, got -1.0"),
        (["convert", "--ann", "{snn}"], "conversion needs an ann model, not 'snn'"),
        (["convert", "--ann", "{attention}"], "conversion needs an ann model, not 'attention'"),
        (["attack", "--models", "{ann}", "--eps-step", "nan"],
         "eps_step must be > 0 and finite, got nan"),
        (["train", "--kind", "snn", "--arch", "2-4-2", "--surrogate-sigma", "inf"],
         "surrogate sigma must be > 0 and finite, got inf"),
        (["train", "--kind", "snn", "--arch", "2-4-2", "--adapt-decay", "nan"],
         "adapt_decay must be in [0, 1), got nan"),
    ], ids=["attack-n", "transfer-n", "multi-n", "attack-negative-n", "sweep-n",
            "no-kernels", "no-attacks", "kind-twice", "percentile", "n-calib",
            "fine-tune-epochs", "patch", "heads", "embed", "zero-width", "train-seed", "attack-seed", "train-lr", "convert-lr",
            "convert-lr-without-epochs", "convert-snn", "convert-attention", "nan-eps-step",
            "inf-surrogate-sigma", "nan-adapt-decay"])
    def test_out_of_range_value_is_one_line_error(self, tmp_path, capsys, blobs_ann,
                                                  blobs_snn, blobs_attention, argv, message):
        argv = [arg.format(ann=blobs_ann, snn=blobs_snn, attention=blobs_attention)
                for arg in argv]
        data = [] if "--data" in argv else ["--data", "blobs"]
        code = self.run(*argv, *data, "--n-train", "200", "--n-test", "100",
                        "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o" / "config.txt").exists()

    @pytest.mark.parametrize("kind,eps,want", [("fgsm", "0.2", 1), ("pgd", "0.2", 3),
                                               ("pgd", "0", 0), ("fgsm", "0", 0)])
    def test_attack_report_counts_iterations_taken(self, tmp_path, blobs_ann, kind, eps, want):
        atk_out = tmp_path / "atk"
        assert self.run("attack", "--data", "blobs", "--kind", kind,
                        "--models", str(blobs_ann),
                        "--eps", eps, "--eps-step", "0.05", "--steps", "3",
                        "--n", "20", "--n-train", "200", "--n-test", "100",
                        "--seed", "0", "--out", str(atk_out)) == 0
        report = json.loads((atk_out / "attack_report.json").read_text())
        assert report["iterations"] == want

    def test_inspect_reports_architecture(self, tmp_path, capsys):
        out = tmp_path / "m"
        self.run("train", "--data", "blobs", "--kind", "ann", "--arch", "2-4-2",
                 "--epochs", "1", "--n-train", "60", "--n-test", "20", "--seed", "0",
                 "--out", str(out))
        capsys.readouterr()
        assert self.run("inspect", str(out / "model.snnm")) == 0
        printed = capsys.readouterr().out
        assert "kind: ann" in printed and "invariants: ok" in printed

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"), ("--batch-size", "-3"),
                                            ("--epochs", "-1")])
    def test_bad_training_length_is_one_line_error(self, tmp_path, capsys, flag, value):
        # range() would raise a ValueError traceback for a zero batch size
        code = self.run("train", "--data", "blobs", "--kind", "ann", "--arch", "2-4-2",
                        "--n-train", "20", "--n-test", "10", flag, value,
                        "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: need batch_size >= 1 and epochs >= 0") and "\n" not in err

    @pytest.mark.parametrize("data", ["digits", "blobs"])
    @pytest.mark.parametrize("key,value", [("n-test", "-2"), ("n-train", "-1")])
    def test_negative_count_is_one_line_error_before_training(self, tmp_path, capsys, data,
                                                              key, value):
        counts = {"n-train": "30", "n-test": "10", key: value}
        code = self.run("train", "--data", data, "--kind", "ann", "--arch", "784-4-10",
                        "--epochs", "1", "--n-train", counts["n-train"],
                        "--n-test", counts["n-test"], "--out", str(tmp_path / "o"))
        assert code == 2
        captured = capsys.readouterr()
        # train scores its model, so a negative n-test fails the CLI's scoring check
        want = {"n-test": "n-test must be >= 1 to score the model, got -2",
                "n-train": "need n_train >= 0 and n_test >= 0, got -1 and 10"}[key]
        assert captured.err.strip() == f"error: {want}"
        assert "epoch" not in captured.out and not (tmp_path / "o").exists()

    def test_error_is_one_line_nonzero(self, tmp_path, capsys):
        code = self.run("attack", "--models", str(tmp_path / "missing.snnm"),
                        "--data", "blobs", "--out", str(tmp_path / "o"))
        assert code != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_empty_test_pool_is_one_line_error(self, tmp_path, blobs_ann, capsys):
        code = self.run("attack", "--data", "blobs", "--kind", "pgd",
                        "--models", str(blobs_ann), "--n", "4", "--n-train", "200",
                        "--n-test", "0", "--seed", "0", "--out", str(tmp_path / "atk"))
        assert code != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert "class 0: have 0, need 2" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nonsense=1\n")
        code = self.run("train", "--config", str(cfg), "--data", "blobs",
                        "--out", str(tmp_path / "o"))
        assert code != 0
        assert "nonsense" in capsys.readouterr().err