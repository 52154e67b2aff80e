import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snnadv
from snnadv import attacks, numerics
from snnadv.attacks import AttackConfig, auto_saga, loss_input_grad, pgd
from snnadv.attention import TinyAttentionNet, attention_rollout, rollout_matrix
from snnadv.errors import ConfigError, DimensionError

from conftest import cache_arrays, held_nbytes, traced_peak
from oracles import finite_difference_grad, max_rel_err, ones_mask


def random_stochastic(rng, n, heads, tokens, rows=None):
    m = rng.uniform(0, 1, size=(n, heads, tokens if rows is None else rows, tokens))
    return m / m.sum(axis=-1, keepdims=True)


def full_token_forward(net, x):
    """Reference forward in which every block runs every token's query row,
    with numpy's own row reductions in the layer norms: (logits, records),
    each record [n, H, T, T]."""
    def ln(a, g, b, eps=1e-5):
        return (a - a.mean(-1, keepdims=True)) / np.sqrt(a.var(-1, keepdims=True) + eps) * g + b

    imgs = numerics.as_batch(x, net.image_shape, net.wp.dtype)
    n, H, E = imgs.shape[0], net.n_heads, net.embed
    dh = E // H

    def heads(a):
        return a.reshape(n, -1, H, dh).transpose(0, 2, 1, 3)

    tok = net._to_patches(imgs) @ net.wp + net.bp
    t = np.concatenate([np.broadcast_to(net.cls, (n, 1, E)), tok], axis=1) + net.pos
    records = []
    for blk in net.blocks:
        l1 = ln(t, blk.ln1_g, blk.ln1_b)
        q, k, v = (heads(l1 @ w) for w in (blk.wq, blk.wk, blk.wv))
        att = numerics.softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh).astype(t.dtype))
        records.append(att)
        y = t + (att @ v).transpose(0, 2, 1, 3).reshape(n, -1, E) @ blk.wo
        t = y + np.maximum(ln(y, blk.ln2_g, blk.ln2_b) @ blk.w1 + blk.b1, 0) @ blk.w2 + blk.b2
    return ln(t[:, 0], net.lnf_g, net.lnf_b) @ net.wc + net.bc, records


class TestForward:
    def test_records_row_stochastic(self):
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                               n_heads=2, n_classes=3, seed=0)
        x = np.random.default_rng(0).uniform(0, 1, (3, 1, 8, 8)).astype(np.float32)
        records = net.forward_cached(x)[1][-1]
        assert len(records) == 2
        for rec in records:
            assert np.all(rec >= 0)
            assert np.max(np.abs(rec.sum(axis=-1) - 1.0)) < 1e-5

    def test_uniform_queries_give_uniform_attention(self):
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=1,
                               n_heads=1, n_classes=3, seed=0)
        # zero q/k projections make all scores equal: softmax rows are uniform
        net.blocks[0].wq[...] = 0.0
        net.blocks[0].wk[...] = 0.0
        x = np.random.default_rng(1).uniform(0, 1, (2, 1, 8, 8)).astype(np.float32)
        rec = net.forward_cached(x)[1][-1][0]
        assert np.allclose(rec, 1.0 / net.n_tokens, atol=1e-6)

    def test_indivisible_image_rejected(self):
        with pytest.raises(ConfigError):
            TinyAttentionNet(image_shape=(1, 9, 9), patch=4)

    def test_heads_must_divide_the_embedding(self):
        with pytest.raises(ConfigError, match="^embed width 6 not divisible by 4 heads$"):
            TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=6, n_heads=4)

    def test_no_blocks_rejected(self):
        with pytest.raises(ConfigError):
            TinyAttentionNet(image_shape=(1, 8, 8), patch=4, n_layers=0)

    @pytest.mark.parametrize("n_heads", [1, 2])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_matches_full_token_forward(self, n_layers, n_heads):
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=n_layers,
                               n_heads=n_heads, n_classes=3, ffn_hidden=12, seed=n_layers,
                               dtype=np.float64)
        x = np.random.default_rng(n_heads).uniform(0, 1, (4, 1, 8, 8))
        logits, cache = net.forward_cached(x)
        want, want_records = full_token_forward(net, x)
        assert max_rel_err(logits, want) <= 1e-12
        records = cache[-1]
        assert records[-1].shape == (4, n_heads, 1, net.n_tokens)
        assert max_rel_err(records[-1], want_records[-1][:, :, :1]) <= 1e-12
        for rec, full in zip(records[:-1], want_records[:-1]):
            assert rec.shape == full.shape
            assert max_rel_err(rec, full) <= 1e-12

    def test_matches_full_token_forward_float32(self):
        # the architecture of the benchmark's attention fixture
        net = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                               n_heads=2, seed=5)
        x = np.random.default_rng(13).uniform(0, 1, (16, 784)).astype(np.float32)
        logits, cache = net.forward_cached(x)
        want, _ = full_token_forward(net, x)
        assert logits.dtype == np.float32
        assert max_rel_err(logits, want) <= 1e-5
        assert cache[-1][-1].shape == (16, 2, 1, net.n_tokens)

    def test_input_gradient_fd(self):
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                               n_heads=2, n_classes=3, ffn_hidden=12,
                               seed=3).astype(np.float64)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(2, 1, 8, 8))
        y = np.array([1, 2])
        logits, cache = net.forward_cached(x)
        _, dlogits = numerics.softmax_cross_entropy(logits, y)
        dinput = net.backward(cache, dlogits).reshape(x.shape)
        fd = finite_difference_grad(
            lambda xv: numerics.softmax_cross_entropy(net.forward(xv), y)[0], x, h=1e-6)
        assert max_rel_err(dinput, fd) <= 1e-5


class TestCacheIsReadOnly:
    """The backward only reads the forward's cache: Auto-SAGA runs two
    backwards on one cache, and SAGA reads the rollout records after the
    backward. Each forward writes into buffers of its own."""

    @staticmethod
    def case(dtype):
        # two blocks: the first runs the fused Q/K/V, the last its class-token query
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                               n_heads=2, n_classes=3, ffn_hidden=12, seed=6, dtype=dtype)
        rng = np.random.default_rng(16)
        x = rng.uniform(0, 1, (5, 64)).astype(dtype)
        return net, x, rng.normal(size=(5, 3)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [False, True])
    def test_backward_leaves_the_cache_unchanged(self, dtype, training):
        net, x, dlogits = self.case(dtype)
        _, cache = net.forward_cached(x)
        before = [a.tobytes() for a in cache_arrays(cache)]
        mask = net.rollout_mask(x, cache)
        grads_a, grads_b = ({}, {}) if training else (None, None)
        first = net.backward(cache, dlogits, grads_a)
        assert [a.tobytes() for a in cache_arrays(cache)] == before
        assert net.rollout_mask(x, cache).tobytes() == mask.tobytes()
        second = net.backward(cache, dlogits, grads_b)
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)
        if training:
            assert sorted(grads_a) == sorted(grads_b)
            for name in grads_a:
                assert grads_a[name].tobytes() == grads_b[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_forwards_share_no_buffer(self, dtype):
        net, x, _ = self.case(dtype)
        la, ca = net.forward_cached(x)
        lb, cb = net.forward_cached(x)
        assert la.tobytes() == lb.tobytes() and not np.shares_memory(la, lb)
        # the cache's first array is the caller's input, shaped, by design
        arrays_a, arrays_b = list(cache_arrays(ca))[1:], list(cache_arrays(cb))[1:]
        assert len(arrays_a) == len(arrays_b) > 0
        for a, b in zip(arrays_a, arrays_b):
            assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(a, b)


def bench_sized_case(n=200):
    """The benchmark's attention architecture, its logits and forward cache
    on ``n`` float32 rows."""
    net = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                           n_heads=2, seed=0)
    rng = np.random.default_rng(14)
    return (net,) + net.forward_cached(rng.uniform(0, 1, (n, 784)).astype(np.float32))


@pytest.mark.parametrize("training", [False, True])
def test_backward_holds_block_zero_attention_and_three_activations(training):
    # each gradient buffer is dropped after its last read: beyond the cache,
    # the backward holds block 0's attention gradient and fused dQ/dK/dV
    # buffer, the sizes of their forward counterparts, and under three
    # [n, T, E] activations
    net, logits, cache = bench_sized_case()
    (xhat, _), _, _, qkv, _, att = cache[1][0][:6]
    _, peak = traced_peak(net.backward, cache, np.ones_like(logits), {} if training else None)
    assert peak < att.nbytes + qkv.nbytes + 3 * xhat.nbytes


def test_attack_gradients_hold_one_row_block():
    # the attacks evaluate the net block_rows rows at a time, forward
    # included, so 200 rows take equal blocks of fewer: an input gradient
    # peaks below one block's evaluation plus its 200-row outputs, and
    # Auto-SAGA below one block's blend evaluation plus six 200-row arrays
    # (its bounds, iterate and blend, and the model's two input gradients)
    n = 200
    net = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                           n_heads=2, seed=0)
    count = -(-n // net.block_rows)
    assert count > 1 and n % count == 0
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 1, (n, 784)).astype(np.float32)
    y = rng.integers(0, 10, n)
    first = slice(0, n // count)
    _, block = traced_peak(loss_input_grad, net, x[first], y[first])
    (logits, grad), peak = traced_peak(loss_input_grad, net, x, y)
    assert peak < block + logits.nbytes + grad.nbytes
    _, blend_block = traced_peak(attacks._blend, [net], np.ones((n // count, 1)), x[first],
                                 y[first], 0.0)
    _, peak = traced_peak(auto_saga, [net], x, y,
                          AttackConfig(eps_max=0.031, eps_step=0.005, n_iter=2))
    assert peak < blend_block + 6 * x.nbytes


def test_cache_holds_only_what_the_input_gradient_reads():
    # per sample: the image; each LayerNorm's normalized input and row scale;
    # Q, K and V (the last block's Q for the class token alone), the
    # attention weights, the merged context and the FFN's hidden layer. The
    # patch copy, the LayerNorm outputs and the head's features are rebuilt
    # by a backward that takes parameter gradients; the smallest of them,
    # the features, is E values per sample
    n = 200
    net, _, cache = bench_sized_case(n)
    T, E, H, F = net.n_tokens, net.embed, net.n_heads, net.ffn_hidden
    first = 2 * (T * E + T) + 3 * T * E + H * T * T + T * E + T * F
    last = T * E + T + 2 * T * E + E + H * T + E + (E + 1) + F
    per_sample = 784 + first + last + (E + 1)
    held = held_nbytes(a for a in cache_arrays(cache) if a.shape[0] == n)
    assert held < (per_sample + E) * n * 4


class TestRollout:
    def test_identity_attention_falls_back_to_uniform(self):
        # identity attention puts no class-token mass on patches: the mask
        # falls back to uniform weights, so the output equals the input
        n, heads, tokens = 2, 2, 5
        eye = np.broadcast_to(np.eye(tokens), (n, heads, tokens, tokens)).copy()
        x = np.random.default_rng(3).uniform(0, 1, (n, 1, 8, 8)).astype(np.float32)
        phi = attention_rollout([eye, eye], x)
        assert np.allclose(phi, x, atol=1e-6)

    def test_two_token_hand_computation(self):
        # one layer, one head, one patch: class row [0, 1] puts all attention
        # on the patch; 0.5W + 0.5I gives class-row patch weight 0.5, which
        # peak-normalizes to 1, so the patch passes through unchanged
        w = np.array([[[[0.0, 1.0], [0.0, 1.0]]]])
        x = np.random.default_rng(4).uniform(0.2, 1, (1, 1, 4, 4)).astype(np.float32)
        chain = rollout_matrix([w])
        assert np.allclose(chain[0], 0.5 * w[0, 0] + 0.5 * np.eye(2))
        assert chain[0, 0, 1] == pytest.approx(0.5)
        phi = attention_rollout([w], x)
        assert np.allclose(phi, x, atol=1e-6)

    def test_mixing_preserves_row_sums(self):
        rng = np.random.default_rng(5)
        recs = [random_stochastic(rng, 2, 2, 6) for _ in range(3)]
        chain = rollout_matrix(recs)
        assert np.max(np.abs(chain.sum(axis=-1) - 1.0)) < 1e-5

    def test_rollout_on_trained_shapes(self):
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                               n_heads=2, n_classes=3, seed=1)
        x = np.random.default_rng(6).uniform(0, 1, (3, 1, 8, 8)).astype(np.float32)
        phi = net.rollout_mask(x, net.forward_cached(x)[1])
        assert phi.shape == x.shape
        assert np.all(phi >= 0) and np.all(phi <= x + 1e-6)
        flat = x.reshape(3, -1)
        assert net.rollout_mask(flat, net.forward_cached(flat)[1]).shape == flat.shape

    def test_mask_from_cache_matches_fresh_forward(self):
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=2,
                               n_heads=2, n_classes=3, seed=2)
        x = np.random.default_rng(11).uniform(0, 1, (3, 64)).astype(np.float32)
        _, cache = net.forward_cached(x)
        want = attention_rollout(net.forward_cached(x)[1][-1], x.reshape(3, 1, 8, 8))
        got = net.rollout_mask(x, cache)
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes()

    def test_rollout_of_class_row_records_matches_full_records(self):
        net = TinyAttentionNet(image_shape=(1, 8, 8), patch=4, embed=8, n_layers=3,
                               n_heads=2, n_classes=3, seed=4)
        x = np.random.default_rng(14).uniform(0, 1, (5, 1, 8, 8)).astype(np.float32)
        records = net.forward_cached(x)[1][-1]
        _, full = full_token_forward(net, x)
        assert rollout_matrix(records).shape == (5, 1, net.n_tokens)
        got = attention_rollout(records, x)
        want = attention_rollout(full, x)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_chain_equals_the_product_from_the_identity(self):
        # the chain starts at the first record; starting at the identity
        # multiplies by it exactly, so both give the same bytes
        rng = np.random.default_rng(17)
        recs = [random_stochastic(rng, 4, 2, 6) for _ in range(2)]
        recs.append(random_stochastic(rng, 4, 2, 6, rows=1))
        eye = np.eye(6)
        want = np.broadcast_to(eye, (4, 6, 6)).copy()
        for rec in recs:
            want = (0.5 * rec.mean(axis=1) + 0.5 * eye[:rec.shape[-2]]) @ want
        assert rollout_matrix(recs).tobytes() == want.tobytes()

    def test_class_row_record_must_come_last(self):
        rng = np.random.default_rng(15)
        full = random_stochastic(rng, 2, 2, 5)
        row = random_stochastic(rng, 2, 2, 5, rows=1)
        assert rollout_matrix([full, row]).shape == (2, 1, 5)
        with pytest.raises(DimensionError):
            rollout_matrix([row, full])
        with pytest.raises(DimensionError):
            rollout_matrix([full, random_stochastic(rng, 2, 2, 5, rows=2)])

    def test_no_records_rejected(self):
        with pytest.raises(DimensionError, match="^need at least one recorded attention layer$"):
            rollout_matrix([])

    def test_token_mismatch_rejected(self):
        a = random_stochastic(np.random.default_rng(7), 1, 1, 5)
        b = random_stochastic(np.random.default_rng(8), 1, 1, 6)
        with pytest.raises(DimensionError):
            rollout_matrix([a, b])

    @pytest.mark.parametrize("shape", [(1, 8, 8), (1, 64), (1, 1, 1, 8, 8)])
    def test_images_must_be_four_dimensional(self, shape):
        rec = random_stochastic(np.random.default_rng(9), 1, 1, 5)  # 4 patches
        with pytest.raises(DimensionError, match=r"expected \[n, c, h, w\] images"):
            attention_rollout([rec], np.zeros(shape, dtype=np.float32))

    def test_patch_count_image_mismatch_rejected(self):
        rec = random_stochastic(np.random.default_rng(9), 1, 1, 8)  # 7 patches
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        with pytest.raises(DimensionError):
            attention_rollout([rec], x)


class TestOnesMask:
    def test_shape_and_values(self):
        x = np.zeros((2, 3, 4, 4), dtype=np.float32)
        assert np.array_equal(ones_mask(x), np.ones_like(x))

    def test_multiplicative_identity(self):
        g = np.random.default_rng(10).standard_normal((2, 5)).astype(np.float32)
        assert np.array_equal(g * ones_mask(g), g)


HEAP_PROBE = """
import resource
from dataclasses import replace
import numpy as np
from snnadv.attacks import AttackConfig, pgd
from snnadv.attention import TinyAttentionNet
net = TinyAttentionNet(image_shape=(1, 28, 28), patch=4, embed=32, n_layers=2,
                       n_heads=2, seed=0)
rng = np.random.default_rng(12)
x = rng.uniform(0, 1, (200, 784)).astype(np.float32)
y = rng.integers(0, 10, 200)
cfg = AttackConfig(eps_max=0.1, eps_step=0.01, n_iter=1)
pgd(net, x, y, cfg)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pgd(net, x, y, replace(cfg, n_iter=10))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap setting made at import, and so this fault budget, "
                           "are specific to glibc's malloc")
def test_attack_iterations_keep_the_heap_resident():
    # without the setting the 10 iterations fault their ~60 MB of
    # temporaries in again (about 55k minor faults on this net at n=200,
    # against about 190 with it). A fresh interpreter: in this process
    # earlier tests have raised glibc's dynamic mmap threshold, which hides
    # a missing setting
    src = str(Path(snnadv.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    faults = int(out.stdout)
    assert faults < 2000, f"{faults} minor page faults in 10 PGD iterations"
