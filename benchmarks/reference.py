"""Float64 NumPy reference of the pretraining forward pass.

Written from the method's description, not from the program's code path:
patch convolution as an explicit sum over each patch, mask-token
substitution, positional embedding, pre-norm transformer blocks whose odd
blocks are top-1 mixture-of-experts layers with a hard per-expert capacity
(overflow tokens take the residual only), a linear pixel head per sensor,
and the masked L1 on the source's masked footprint.  The checks compare
`crossmim.model.reconstruct_sample` against it.
"""

import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5


def token_mask(grid, mask_unit, patch_size, image_w, image_h):
    """Token (i, j) of the patch grid is masked when its unit cell is."""
    wb, hb = image_w // patch_size, image_h // patch_size
    rows = (np.arange(wb) * patch_size) // mask_unit
    cols = (np.arange(hb) * patch_size) // mask_unit
    return grid[rows[:, None], cols[None, :]].reshape(-1)


def pixel_mask(grid, mask_unit, image_w, image_h):
    rows = np.arange(image_w) // mask_unit
    cols = np.arange(image_h) // mask_unit
    return grid[rows[:, None], cols[None, :]]


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attention(x, p, prefix, heads):
    n, d = x.shape
    dh = d // heads
    q = x @ p[prefix + "wq"] + p[prefix + "bq"]
    k = x @ p[prefix + "wk"] + p[prefix + "bk"]
    v = x @ p[prefix + "wv"] + p[prefix + "bv"]
    out = np.empty_like(x)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        w = _softmax(q[:, cols] @ k[:, cols].T / math.sqrt(dh))
        out[:, cols] = w @ v[:, cols]
    return out @ p[prefix + "wo"] + p[prefix + "bo"]


def _ffn(x, p, prefix):
    return _gelu(x @ p[prefix + "w1"] + p[prefix + "b1"]) @ p[prefix + "w2"] + p[prefix + "b2"]


def _moe(x, p, prefix, num_experts, capacity_factor):
    """Top-1 routing in token order; returns output and (counts, dropped)."""
    n = x.shape[0]
    probs = _softmax(x @ p[prefix + "gate.w"])
    capacity = max(1, int(math.floor(capacity_factor * n / num_experts)))
    out = np.zeros_like(x)
    used = [0] * num_experts
    dropped = 0
    for t in range(n):
        e = int(np.argmax(probs[t]))
        if used[e] >= capacity:
            dropped += 1
            continue
        used[e] += 1
        out[t] = _ffn(x[t:t + 1], p, f"{prefix}expert{e}.")[0] * probs[t, e]
    return out, (tuple(used), dropped, capacity)


def forward(p, cfg, image, source_sensor, target_sensor, tok_mask):
    """Prediction (C_target, W, H) and per-MoE-block routing for one image.

    p maps parameter names to float64 arrays; cfg is a ModelConfig.
    """
    ps, width = cfg.patch_size, cfg.width
    c, w, h = image.shape
    wb, hb = w // ps, h // ps
    kernel = p[f"embedder.{source_sensor}.kernel"]  # (D, C, P, P)
    tokens = np.empty((wb * hb, width))
    for i in range(wb):
        for j in range(hb):
            patch = image[:, i * ps:(i + 1) * ps, j * ps:(j + 1) * ps]
            tokens[i * hb + j] = np.tensordot(kernel, patch, axes=([1, 2, 3], [0, 1, 2]))
    tokens += p[f"embedder.{source_sensor}.bias"]
    tokens[tok_mask] = p["shared.mask_token"]
    x = tokens + p["shared.pos_embed"]

    routing = []
    for k in range(cfg.depth):
        b = f"encoder.block{k}."
        x = x + _attention(_layer_norm(x, p[b + "ln1.gamma"], p[b + "ln1.beta"]), p,
                           b + "attn.", cfg.heads)
        hid = _layer_norm(x, p[b + "ln2.gamma"], p[b + "ln2.beta"])
        if cfg.moe and k % 2 == 1:
            y, stats = _moe(hid, p, b, cfg.num_experts, cfg.capacity_factor)
            routing.append(stats)
        else:
            y = _ffn(hid, p, b + "ffn.")
        x = x + y

    proj = p[f"decoder.{target_sensor}.proj"]  # (P*P*C_t, D)
    out = x @ proj.T + p[f"decoder.{target_sensor}.bias"]
    channels = proj.shape[0] // (ps * ps)
    pred = np.empty((channels, w, h))
    for i in range(wb):
        for j in range(hb):
            pred[:, i * ps:(i + 1) * ps, j * ps:(j + 1) * ps] = \
                out[i * hb + j].reshape(channels, ps, ps)
    return pred, routing


def masked_l1(pred, target, pix_mask):
    """Mean |pred - target| over masked pixels and every target channel."""
    diff = np.abs(pred - target)[:, pix_mask]
    return float(diff.sum() / diff.size)
