"""Toy attention classifier whose forward cache carries the attention
weights of every layer, plus the depth-wise attention rollout that turns
those records into an input-space saliency mask.

The logits read only the class token of the last block, so that block runs
its query, attention, output projection and FFN on the class-token row
alone, and its record holds only that query row. The rollout reads only the
class-token row of its chain, which that record is enough to give.

Each block projects Q, K and V with one GEMM by a [E, 3E] matrix built per
call from ``wq / sqrt(dh)``, ``wk`` and ``wv`` (the last block fuses K and V
and projects its query row apart). The softmax scale is folded into that
query weight; with a power-of-two sqrt(dh) the fold is exact. The softmax
overwrites the freshly made scores, and its backward overwrites the
gradient of the attention weights; neither writes into the cache, so one
cache serves any number of backwards. The parameters stay the separate
``wq``/``wk``/``wv`` arrays that ``params`` names.

The cache holds the images, each LayerNorm's normalized input and row scale,
and the results of products (Q/K/V, the attention weights, the merged
context, the FFN's hidden layer), which the input gradient reads. The patch
copy, the LayerNorm outputs and the head's features are read only by
parameter gradients, so a backward given a ``grads`` dict rebuilds them with
the forward's own operations, to the same bytes. Each gradient buffer is
dropped right after its last read, so beyond the cache a backward holds at
most block 0's attention-weight gradient, its fused dQ/dK/dV buffer and
about two [n, T, E] activations. The cache of a batch is the largest buffer
an attack meets, so ``block_rows`` is 64: ``predict`` and the attacks run the
net over ``ann.row_blocks`` of at most that many rows, forward included (4
blocks of 50 at 200 rows). Every product is per sample, so in float32 a
block of 16 rows or more has the bytes of the same rows in one pass.

The rollout mixes each recorded matrix with the identity (half and half),
averages heads, multiplies the per-layer matrices in depth order, and reads
the class-token row as per-patch saliency. The row is peak-normalized,
upsampled to pixels, and multiplied into the input. The blend attacks take
the gradients of non-attention models as they are, unmasked.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .ann import Classifier, kaiming_uniform
from .errors import ConfigError, DimensionError

LAYERNORM_EPS = 1e-5  # added to each row's variance before its square root


def rollout_matrix(records: list) -> np.ndarray:
    """Chain head-averaged, identity-mixed attention matrices in depth order.

    Records are [n, H, T, T]. The last one may hold only the class-token
    query row, [n, H, 1, T], as ``TinyAttentionNet`` records it; the chain is
    then [n, 1, T], the only row the rollout reads.
    """
    if not records:
        raise DimensionError("need at least one recorded attention layer")
    tokens = np.shape(records[0])[-1]
    eye = np.eye(tokens, dtype=np.asarray(records[0]).dtype)
    result = None
    for i, rec in enumerate(records):
        rec = np.asarray(rec)
        rows = rec.shape[-2]
        if rec.shape[-1] != tokens:
            raise DimensionError("attention records have inconsistent token counts")
        if rows != tokens and (rows != 1 or i != len(records) - 1):
            raise DimensionError(f"attention record {i} has {rows} query rows; only the "
                                 f"last may hold the class-token row alone")
        mixed = 0.5 * rec.mean(axis=1) + 0.5 * eye[:rows]
        # the chain starts at the first record: a product with the identity is exact
        result = mixed if result is None else mixed @ result
    return result


def attention_rollout(records: list, x: np.ndarray) -> np.ndarray:
    """Saliency-masked images ``x``, [n, c, h, w].

    Degenerate records that put no class-token mass on patch tokens fall back
    to uniform patch weights so the mask never silently zeroes a gradient.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"expected [n, c, h, w] images, got shape {x.shape}")
    n, c, h, w = x.shape
    chain = rollout_matrix(records)
    row = chain[:, 0, 1:].astype(numerics.GRAD_CHECK_DTYPE)
    n_patches = row.shape[1]
    # square patches: patch side follows from the patch count and image area
    ph = int(round(np.sqrt(h * w / n_patches)))
    if ph < 1 or h % ph or w % ph or (h // ph) * (w // ph) != n_patches:
        raise DimensionError(f"cannot map {n_patches} patches onto {h}x{w} image")
    gh, gw = h // ph, w // ph
    degenerate = row.sum(axis=1) <= 1e-12
    row[degenerate] = 1.0
    peak = row.max(axis=1, keepdims=True)
    row = row / peak
    mask = row.reshape(n, gh, gw)
    mask = np.repeat(np.repeat(mask, ph, axis=1), ph, axis=2)
    mask = np.broadcast_to(mask[:, None, :, :], x.shape).astype(x.dtype)
    return mask * x


def _row_mean(a):
    """Mean over the last axis, kept as a length-1 axis. ``einsum`` is
    several times faster than numpy's reduction over a short last axis, and
    unlike a BLAS matrix-vector product its bytes per row do not depend on
    the row count, which keeps attacks batch-invariant."""
    e = a.shape[-1]
    mean = np.einsum("ij,j->i", a.reshape(-1, e), np.full(e, 1.0 / e, dtype=a.dtype))
    return mean.reshape(a.shape[:-1] + (1,))


def layernorm_forward(x, gamma, beta):
    """(y, (xhat, inv)): the squares' buffer becomes the output, and the
    per-row scale is one reciprocal of the row's standard deviation."""
    xhat = x - _row_mean(x)
    y = xhat * xhat
    inv = _row_mean(y)
    inv += LAYERNORM_EPS
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv)


def layernorm_output(cache, gamma, beta):
    """The output of the ``layernorm_forward`` that returned ``cache``,
    rebuilt by the same operations, so to the same bytes."""
    y = np.multiply(cache[0], gamma)
    y += beta
    return y


def layernorm_backward(dy, cache, gamma, grads=None, prefix=""):
    """dx, built in place in a new buffer with one scratch of ``dy``'s shape.
    Given a ``grads`` dict, also writes the gain and shift gradients into it
    as ``prefix + "g"`` and ``prefix + "b"``."""
    xhat, inv = cache
    scratch = np.empty_like(xhat)
    if grads is not None:
        axes = tuple(range(dy.ndim - 1))
        grads[prefix + "g"] = np.multiply(dy, xhat, out=scratch).sum(axis=axes)
        grads[prefix + "b"] = dy.sum(axis=axes)
    dx = dy * gamma
    np.multiply(dx, xhat, out=scratch)
    np.multiply(xhat, _row_mean(scratch), out=scratch)
    dx -= _row_mean(dx)
    dx -= scratch
    dx *= inv
    return dx


def _transposed(w):
    """``w.T`` as a contiguous copy: numpy multiplies a stack of matrices by
    it about twice as fast as by the strided view."""
    return np.ascontiguousarray(w.T)


class AttnBlock:
    """One attention and FFN block: its tensors, given and saved in the order of ``NAMES``."""
    NAMES = ("wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b")

    def __init__(self, *tensors):
        for name, arr in zip(self.NAMES, tensors, strict=True):
            setattr(self, name, arr)

    def params(self):
        return [(name, getattr(self, name)) for name in self.NAMES]


class TinyAttentionNet(Classifier):
    """Patch embedding + class token + residual attention/FFN blocks.

    ``forward_cached`` returns the attention matrices (post-softmax, per layer
    and head) as the last entry of its cache; each row is non-negative and
    sums to one. They are [n, H, T, T], apart from the last block's, which is
    [n, H, 1, T]: the logits read only the class token of the last block, so
    that block computes its query, attention, FFN and their gradients for
    the class-token row alone (its keys and values still cover every token).
    Nothing of a forward or backward pass is stored on the model.
    """

    kind = "attention"
    # the cost per row is flat from about 50 rows
    block_rows = 64

    def __init__(self, image_shape: tuple = (1, 28, 28), patch: int = 4, embed: int = 32,
                 n_layers: int = 2, n_heads: int = 2, n_classes: int = 10,
                 ffn_hidden: int = 64, seed: int = 0, dtype=numerics.DEFAULT_DTYPE):
        if len(image_shape) == 2:
            image_shape = (1,) + tuple(image_shape)
        c, h, w = image_shape
        if min(patch, embed, n_heads) < 1:
            raise ConfigError(f"patch, embed and n_heads must be >= 1, got {patch}, {embed} "
                              f"and {n_heads}")
        if min(c, h, w, n_classes, ffn_hidden) < 1:
            raise ConfigError(f"image sizes, n_classes and ffn_hidden must be >= 1, got "
                              f"{(c, h, w)}, {n_classes} and {ffn_hidden}")
        if h % patch or w % patch:
            raise ConfigError(f"image {h}x{w} not divisible into {patch}x{patch} patches")
        if embed % n_heads:
            raise ConfigError(f"embed width {embed} not divisible by {n_heads} heads")
        if n_layers < 1:
            raise ConfigError(f"need at least one attention block, got {n_layers}")
        self.image_shape = (c, h, w)
        self.patch = patch
        self.embed = embed
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.n_classes = n_classes
        self.ffn_hidden = ffn_hidden
        self.n_tokens = (h // patch) * (w // patch) + 1

        rng = np.random.default_rng(seed)
        patch_dim = c * patch * patch

        def init(shape, fan_in):
            return kaiming_uniform(rng, shape, fan_in, dtype)

        self.wp = init((patch_dim, embed), patch_dim)
        self.bp = np.zeros(embed, dtype=dtype)
        self.cls = init((embed,), embed)
        self.pos = (0.02 * rng.standard_normal((self.n_tokens, embed))).astype(dtype)
        self.blocks = []
        for _ in range(n_layers):
            self.blocks.append(AttnBlock(
                init((embed, embed), embed), init((embed, embed), embed),
                init((embed, embed), embed), init((embed, embed), embed),
                init((embed, ffn_hidden), embed), np.zeros(ffn_hidden, dtype=dtype),
                init((ffn_hidden, embed), ffn_hidden), np.zeros(embed, dtype=dtype),
                np.ones(embed, dtype=dtype), np.zeros(embed, dtype=dtype),
                np.ones(embed, dtype=dtype), np.zeros(embed, dtype=dtype)))
        self.lnf_g = np.ones(embed, dtype=dtype)
        self.lnf_b = np.zeros(embed, dtype=dtype)
        self.wc = init((embed, n_classes), embed)
        self.bc = np.zeros(n_classes, dtype=dtype)

    # -- plumbing ---------------------------------------------------------

    def _to_patches(self, imgs):
        n, c, h, w = imgs.shape
        p = self.patch
        gh, gw = h // p, w // p
        pat = imgs.reshape(n, c, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)
        return pat.reshape(n, gh * gw, c * p * p)

    def _from_patches(self, dpat, n):
        c, h, w = self.image_shape
        p = self.patch
        gh, gw = h // p, w // p
        d = dpat.reshape(n, gh, gw, c, p, p).transpose(0, 3, 1, 4, 2, 5)
        return d.reshape(n, c, h, w)

    # -- forward / backward ----------------------------------------------

    def forward_cached(self, x):
        imgs = numerics.as_batch(x, self.image_shape, self.wp.dtype)
        n = imgs.shape[0]
        H, E, T = self.n_heads, self.embed, self.n_tokens
        dh = E // H
        scale = np.sqrt(dh).astype(self.wp.dtype)
        t = np.empty((n, T, E), dtype=self.wp.dtype)
        t[:, 0] = self.cls
        np.matmul(self._to_patches(imgs), self.wp, out=t[:, 1:])
        t[:, 1:] += self.bp
        t += self.pos
        caches = []
        records = []
        for i, blk in enumerate(self.blocks):
            l1, ln1_cache = layernorm_forward(t, blk.ln1_g, blk.ln1_b)
            # Q, K and V from one GEMM, the softmax scale folded into wq; the
            # last block projects its class-token query row apart
            wq = blk.wq / scale
            if i < len(self.blocks) - 1:
                w_qkv = np.concatenate([wq, blk.wk, blk.wv], axis=1)
                qkv = (l1 @ w_qkv).reshape(n, T, 3, H, dh)
                q = qkv[:, :, 0]
            else:
                w_qkv = np.concatenate([blk.wk, blk.wv], axis=1)
                qkv = (l1 @ w_qkv).reshape(n, T, 2, H, dh)
                q = (l1[:, :1] @ wq).reshape(n, 1, H, dh)
            rows = q.shape[1]
            scores = q.transpose(0, 2, 1, 3) @ qkv[:, :, -2].transpose(0, 2, 3, 1)
            att = numerics.softmax(scores, out=scores)
            records.append(att)
            ctxm = np.empty((n, rows, E), dtype=t.dtype)
            np.matmul(att, qkv[:, :, -1].transpose(0, 2, 1, 3),
                      out=ctxm.reshape(n, rows, H, dh).transpose(0, 2, 1, 3))
            y = ctxm @ blk.wo
            y += t[:, :rows]
            l2, ln2_cache = layernorm_forward(y, blk.ln2_g, blk.ln2_b)
            r = l2 @ blk.w1
            r += blk.b1
            np.maximum(r, 0, out=r)
            t = r @ blk.w2
            t += y
            t += blk.b2
            caches.append((ln1_cache, w_qkv, wq, qkv, q, att, ctxm, ln2_cache, r))
        feat, lnf_cache = layernorm_forward(t[:, 0], self.lnf_g, self.lnf_b)
        logits = feat @ self.wc + self.bc
        numerics.require_finite(logits, "network logits")
        return logits, (imgs, caches, lnf_cache, records)

    def backward(self, cache, dlogits, grads=None):
        """Gradient of the input, flattened to [n, c*h*w].

        Given a ``grads`` dict (training), it also writes all parameter
        gradients into it under the names ``params`` gives; without one
        (attacks) none are computed. The cache is only read, so one cache
        serves any number of backwards.

        Parameter gradients are taken as soon as their operands exist, and
        each buffer is dropped after its last read: dh1 and ``dt`` before the
        attention branch, dctx after dV, datt after dQ and dK, dqkv after dl1
        and the QKV weight gradient.
        """
        imgs, caches, lnf_cache, _ = cache
        dlogits = np.asarray(dlogits, dtype=self.wp.dtype)
        dfeat = dlogits @ self.wc.T
        dcls_tok = layernorm_backward(dfeat, lnf_cache, self.lnf_g, grads, "lnf_")
        if grads is not None:
            feat = layernorm_output(lnf_cache, self.lnf_g, self.lnf_b)
            grads["wc"] = feat.T @ dlogits
            grads["bc"] = dlogits.sum(axis=0)
        n = imgs.shape[0]
        H, E = self.n_heads, self.embed
        dh = E // H
        scale = np.sqrt(dh).astype(self.wp.dtype)
        # dt is the gradient of a block's output, which has that block's query
        # rows: the class token alone in the last block, every token before it
        dt = dcls_tok[:, None, :]
        for i in reversed(range(len(self.blocks))):
            blk, pre = self.blocks[i], f"block{i}."
            ln1_cache, w_qkv, wq, qkv, q, att, ctxm, ln2_cache, r = caches[i]
            rows = q.shape[1]
            fused_q = qkv.shape[2] == 3
            # FFN branch: t = y + relu(LN2(y) w1 + b1) w2 + b2
            dh1 = dt @ _transposed(blk.w2)
            dh1 *= r > 0
            if grads is not None:
                l2 = layernorm_output(ln2_cache, blk.ln2_g, blk.ln2_b).reshape(-1, E)
                grads[pre + "w2"] = r.reshape(-1, r.shape[-1]).T @ dt.reshape(-1, E)
                grads[pre + "b2"] = dt.sum(axis=(0, 1))
                grads[pre + "w1"] = l2.T @ dh1.reshape(-1, dh1.shape[-1])
                grads[pre + "b1"] = dh1.sum(axis=(0, 1))
                del l2
            dy = layernorm_backward(dh1 @ _transposed(blk.w1), ln2_cache, blk.ln2_g, grads,
                                    pre + "ln2_")
            dy += dt
            del dh1, dt
            # attention branch: y = tin + (att @ vh merged) wo with q, k, v from
            # LN1(tin); dQ, dK and dV land in one buffer laid out like qkv
            dctx = (dy @ _transposed(blk.wo)).reshape(n, rows, H, dh).transpose(0, 2, 1, 3)
            datt = dctx @ qkv[:, :, -1].transpose(0, 2, 3, 1)
            dqkv = np.empty_like(qkv)
            dq = dqkv[:, :, 0] if fused_q else np.empty_like(q)
            np.matmul(att.transpose(0, 1, 3, 2), dctx,
                      out=dqkv[:, :, -1].transpose(0, 2, 1, 3))
            del dctx
            # softmax backward, in place: datt becomes att * (datt - <datt, att>)
            datt -= np.einsum("...j,...j->...", datt, att)[..., None]
            datt *= att
            np.matmul(datt, qkv[:, :, -2].transpose(0, 2, 1, 3), out=dq.transpose(0, 2, 1, 3))
            np.matmul(datt.transpose(0, 1, 3, 2), q.transpose(0, 2, 1, 3),
                      out=dqkv[:, :, -2].transpose(0, 2, 1, 3))
            del datt
            dl1 = dqkv.reshape(n, -1, w_qkv.shape[1]) @ _transposed(w_qkv)
            if not fused_q:
                dl1[:, :rows] += dq.reshape(n, rows, E) @ _transposed(wq)
            if grads is not None:
                l1 = layernorm_output(ln1_cache, blk.ln1_g, blk.ln1_b)
                grads[pre + "wo"] = ctxm.reshape(-1, E).T @ dy.reshape(-1, E)
                # column blocks of one product; wq's carries the folded scale
                dw = l1.reshape(-1, E).T @ dqkv.reshape(-1, w_qkv.shape[1])
                dwq = dw[:, :E] if fused_q else l1[:, :rows].reshape(-1, E).T @ dq.reshape(-1, E)
                grads[pre + "wq"] = dwq / scale
                grads[pre + "wk"] = dw[:, -2 * E:-E]
                grads[pre + "wv"] = dw[:, -E:]
                del l1
            del dqkv, dq
            dt = layernorm_backward(dl1, ln1_cache, blk.ln1_g, grads, pre + "ln1_")
            dt[:, :rows] += dy
            del dl1, dy
        dtok = dt[:, 1:]
        if grads is not None:
            patches = self._to_patches(imgs)
            grads["pos"] = dt.sum(axis=0)
            grads["cls"] = dt[:, 0].sum(axis=0)
            grads["wp"] = patches.reshape(-1, patches.shape[-1]).T @ dtok.reshape(-1, E)
            grads["bp"] = dtok.sum(axis=(0, 1))
        dpat = dtok @ _transposed(self.wp)
        dx = self._from_patches(dpat, n).reshape(n, -1)
        numerics.require_finite(dx, "input gradient")
        return dx

    def params(self):
        return ([("wp", self.wp), ("bp", self.bp), ("cls", self.cls), ("pos", self.pos)]
                + [(f"block{i}.{name}", arr) for i, blk in enumerate(self.blocks)
                   for name, arr in blk.params()]
                + [("lnf_g", self.lnf_g), ("lnf_b", self.lnf_b), ("wc", self.wc),
                   ("bc", self.bc)])

    def rollout_mask(self, x, cache):
        """Saliency-masked input for the multi-model attacks, shaped like x.

        ``cache`` is the one ``forward_cached(x)`` returned; the rollout reads
        the shaped images and the attention records it carries.
        """
        return attention_rollout(cache[-1], cache[0]).reshape(np.shape(x))
