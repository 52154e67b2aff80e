"""Dataset ingestion and synthesis.

IDX files (the MNIST binary layout) are parsed bit-exactly: big-endian magic
and counts, unsigned-byte pixels scaled to [0, 1]; counts that point past the
end of the file are a FormatError. When no real MNIST files are available the
package synthesizes a deterministic 28x28 ten-class digit set from bitmap
glyphs (random placement, scale, intensity, and noise), which round-trips
through this parser and the tests' IDX writer. ``load_split`` turns a data
source name into a run's training and test rows.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, FormatError

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

MNIST_ENV_VAR = "SNNADV_MNIST_DIR"
BLOB_SPREAD = 0.08  # the standard deviation of each synthetic blob

# 5x7 bitmap glyphs for the synthetic digit set
_GLYPHS = [
    "01110 10001 10011 10101 11001 10001 01110",
    "00100 01100 00100 00100 00100 00100 01110",
    "01110 10001 00001 00010 00100 01000 11111",
    "11111 00010 00100 00010 00001 10001 01110",
    "00010 00110 01010 10010 11111 00010 00010",
    "11111 10000 11110 00001 00001 10001 01110",
    "00110 01000 10000 11110 10001 10001 01110",
    "11111 00001 00010 00100 01000 01000 01000",
    "01110 10001 10001 01110 10001 10001 01110",
    "01110 10001 10001 01111 00001 00010 01100",
]


def _read_exact(fh, count: int, what: str, source: str) -> bytes:
    # a length read from a file is checked against the bytes left before any buffer is made
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FormatError(f"truncated {source}: expected {count} bytes for {what}")
    return fh.read(count)


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """The unsigned bytes of one IDX file, shaped by its header; the low byte
    of the magic is the number of dimensions."""
    ndim = magic & 0xFF
    with open(path, "rb") as fh:
        header = _read_exact(fh, 4 * (1 + ndim), f"{what} header", "IDX file")
        observed, *shape = struct.unpack(f">{1 + ndim}I", header)
        if observed != magic:
            raise FormatError(f"bad IDX {what} magic: expected {magic:#010x}, "
                              f"observed {observed:#010x}")
        raw = _read_exact(fh, math.prod(shape), f"{what} data", "IDX file")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def _read_idx_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 pixels and int64 labels of one image file and its label file."""
    pixels = _read_idx(images_path, IMAGES_MAGIC, "image")
    labels = load_idx_labels(labels_path)
    if len(pixels) != len(labels):
        raise FormatError(f"image count {len(pixels)} != label count {len(labels)}")
    return pixels, labels


def _scaled(pixels: np.ndarray) -> np.ndarray:
    """uint8 pixels as float32 in [0, 1], in one new buffer."""
    x = pixels.astype(np.float32)
    x /= 255.0
    return x


def load_idx_labels(path) -> np.ndarray:
    return _read_idx(path, LABELS_MAGIC, "label").astype(np.int64)


def synth_blobs(n: int, classes: int = 2, dim: int = 2, seed: int = 0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Gaussian class blobs in [0, 1]^dim, balanced and linearly
    separable: each blob's deviation is ``BLOB_SPREAD``."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(classes, dim))
    # push centers apart until pairwise distances clear the spread
    for _ in range(200):
        dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() > 8 * BLOB_SPREAD:
            break
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        delta = centers[i] - centers[j]
        norm = np.linalg.norm(delta) or 1.0
        centers[i] = np.clip(centers[i] + 0.05 * delta / norm, 0.05, 0.95)
        centers[j] = np.clip(centers[j] - 0.05 * delta / norm, 0.05, 0.95)
    labels = np.arange(n) % classes
    x = centers[labels] + BLOB_SPREAD * rng.standard_normal((n, dim))
    order = rng.permutation(n)
    return np.clip(x, 0.0, 1.0).astype(np.float32)[order], labels[order]


def _permute_rows(rows: np.ndarray, order: np.ndarray) -> None:
    """``rows[:] = rows[order]`` in place: each cycle of the permutation
    ``order`` is walked with one spare row, so no second set is made."""
    spare = np.empty(rows.shape[1:], dtype=rows.dtype)
    order = order.tolist()
    done = bytearray(len(order))
    for start, j in enumerate(order):
        if done[start] or j == start:
            continue
        spare[...] = rows[start]
        i = start
        while j != start:
            rows[i] = rows[j]
            done[i] = 1
            i, j = j, order[j]
        rows[i] = spare
        done[i] = 1


def synth_digits(n: int, seed: int = 0, size: int = 28) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic ten-class digit images: bitmap glyphs with random
    integer scale, near-center placement jitter, stroke intensity, and pixel
    noise (roughly centered, like the real handwritten sets). The order of
    the per-sample draws and the float32 rounding define the set (README).
    The set is built and then shuffled in one [n, size, size] buffer."""
    if n < 0 or size < 21:  # the largest sprite, a 3x glyph, is 21x15
        raise ConfigError(f"synth_digits needs n >= 0 and size >= 21, got n={n}, size={size}")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 10
    glyphs = [np.array([list(row) for row in g.split()], dtype=np.float32) for g in _GLYPHS]
    sprites = {(d, s): g.repeat(s, 0).repeat(s, 1) for d, g in enumerate(glyphs) for s in (2, 3)}
    images = np.empty((n, size, size), dtype=np.float32)
    for i, digit in enumerate(labels.tolist()):
        sprite = sprites[digit, int(rng.integers(2, 4))]  # 10x14 or 15x21 footprint
        sh, sw = sprite.shape
        top = min(max((size - sh) // 2 + int(rng.integers(-3, 4)), 0), size - sh)
        left = min(max((size - sw) // 2 + int(rng.integers(-3, 4)), 0), size - sw)
        intensity = rng.uniform(0.75, 1.0)
        images[i] = rng.normal(0.0, 0.06, size=(size, size))  # rounds the noise to float32
        images[i, top:top + sh, left:left + sw] += sprite * intensity
    np.clip(images, 0.0, 1.0, out=images)
    order = rng.permutation(n)
    _permute_rows(images, order)
    return images, labels[order]


def find_mnist_dir() -> Optional[Path]:
    candidates = []
    env = os.environ.get(MNIST_ENV_VAR)
    if env:
        candidates.append(Path(env))
    candidates.append(Path("data"))
    for cand in candidates:
        if (cand / "train-images-idx3-ubyte").exists() \
                and (cand / "train-labels-idx1-ubyte").exists():
            return cand
    return None


def load_split(source: str, n_train: int, n_test: int, seed: int = 0
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, str]:
    """(train_x, train_y, test_x, test_y, source_tag) of data ``source``;
    every draw is deterministic given the seed.

    ``auto`` is MNIST when IDX files are present (env SNNADV_MNIST_DIR or
    ./data), else ``digits``, the synthetic digit set; ``mnist`` requires the
    files, whose rows are drawn on the raw uint8 pixels and scaled to float32
    once drawn. ``blobs`` is one two-class task, drawn with seed 0 whatever
    ``seed`` is. A synthetic set's first n_train rows are the training rows."""
    if n_train < 0 or n_test < 0:
        raise ConfigError(f"need n_train >= 0 and n_test >= 0, got {n_train} and {n_test}")
    if source not in ("auto", "mnist", "digits", "blobs"):
        raise ConfigError(f"unknown data source {source!r}")
    mnist_dir = find_mnist_dir() if source in ("auto", "mnist") else None
    if source == "mnist" and mnist_dir is None:
        raise ConfigError("data=mnist but no IDX files found "
                          f"(set {MNIST_ENV_VAR} or place files under ./data)")
    if mnist_dir is not None:
        train_px, train_y = _read_idx_pair(mnist_dir / "train-images-idx3-ubyte",
                                           mnist_dir / "train-labels-idx1-ubyte")
        test_images = mnist_dir / "t10k-images-idx3-ubyte"
        pool = len(train_y)  # the training draw reads rows [0, pool)
        if test_images.exists():
            test_px, test_y = _read_idx_pair(test_images, mnist_dir / "t10k-labels-idx1-ubyte")
        else:  # the last n_test rows are the test set, held out of the training draw
            pool = max(pool - n_test, 0)
            test_px, test_y = train_px[pool:], train_y[pool:]
        rng = np.random.default_rng(seed)
        tr = rng.choice(pool, size=min(n_train, pool), replace=False)
        te = rng.choice(len(test_y), size=min(n_test, len(test_y)), replace=False)
        return _scaled(train_px[tr]), train_y[tr], _scaled(test_px[te]), test_y[te], "mnist"
    if source == "blobs":
        x, y = synth_blobs(n_train + n_test, classes=2, dim=2, seed=0)
    else:
        x, y = synth_digits(n_train + n_test, seed=seed)
    tag = "blobs" if source == "blobs" else "synthetic-digits"
    return x[:n_train], y[:n_train], x[n_train:], y[n_train:], tag
