"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written as plain loops (or the most naive
numpy expression available) over raw arrays, avoiding the library's own
code paths, so that a bug on either side shows up as a disagreement.  The
exceptions are the float32 GELU inside the MoE dispatch oracle, which is
the library's own (the oracle checks dispatch, not the GELU), and the
per-sample pretraining round at the end, which runs the library's layers
one sample at a time as a reference for its batched round.
"""

import math

import numpy as np
from scipy.special import erf

from crossmim import tensor as T
from crossmim.decoders import choose_targets, reconstruction_loss
from crossmim.masking import draw_mask, to_token_mask
from crossmim.model import reconstruct_sample


# ---------------------------------------------------------------------------
# finite differences

def fd_gradients(params, loss_fn, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. every parameter entry.

    loss_fn must recompute the loss from the current parameter values and
    return a python float; parameters are perturbed in place and restored.
    """
    out = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros(flat.shape, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        out[name] = g.reshape(p.data.shape)
    return out


def grad_mismatches(analytic, fd, rel_tol, abs_tol):
    """Entries violating |a - fd| <= rel_tol*max(|a|,|fd|) + abs_tol.

    The absolute floor covers near-zero gradients where the finite
    difference itself is dominated by cancellation noise.
    """
    bad = []
    for name in fd:
        a = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        f = fd[name].reshape(-1)
        diff = np.abs(a - f)
        bound = rel_tol * np.maximum(np.abs(a), np.abs(f)) + abs_tol
        for i in np.flatnonzero(diff > bound)[:3]:
            bad.append((name, int(i), float(a[i]), float(f[i])))
    return bad


# ---------------------------------------------------------------------------
# composite layers: forward and chain rule, one composite node at a time
#
# These are the compositions the fused tensor primitives replace.  Each
# takes float64 arrays and the upstream gradient g of the output, and
# returns the output followed by the gradient of every input.  Gradients of
# per-feature parameters are summed over every leading axis.

def softmax_composite(a, g):
    """exp(a - max) / sum(exp(a - max)) over the last axis."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    s = e.sum(axis=-1, keepdims=True)
    y = e / s
    ge = g / s + (-g * e / (s * s)).sum(axis=-1, keepdims=True)  # div, then sum
    return y, ge * e  # exp


def layer_norm_composite(x, gamma, beta, g, eps=1e-5):
    """(x - mean) * (var + eps)^-0.5 * gamma + beta over the last axis."""
    n = x.shape[-1]
    c = x - x.mean(axis=-1, keepdims=True)
    var = (c * c).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    y = c * inv * gamma + beta
    gxhat = g * gamma
    ginv = (gxhat * c).sum(axis=-1, keepdims=True)
    gvar = ginv * -0.5 * (var + eps) ** -1.5
    gc = gxhat * inv + gvar * 2.0 * c / n  # through c directly and through var
    gx = gc - gc.mean(axis=-1, keepdims=True)  # through the mean
    ggamma = (g * c * inv).reshape(-1, n).sum(axis=0)
    gbeta = g.reshape(-1, n).sum(axis=0)
    return y, gx, ggamma, gbeta


def linear_composite(x, w, b, g):
    """x @ w + b with x (..., K), w (K, N), b (N,)."""
    y = x @ w + b
    k, n = w.shape
    gw = x.reshape(-1, k).T @ g.reshape(-1, n)
    return y, g @ w.T, gw, g.reshape(-1, n).sum(axis=0)


def attend_composite(q, kt, v, scale, g):
    """softmax(scale * q @ kt) @ v, as scores, scaled scores, softmax, product."""
    p, gs = softmax_composite(scale * (q @ kt), g @ np.swapaxes(v, -1, -2))
    gs = gs * scale
    out = p @ v
    return (out, gs @ np.swapaxes(kt, -1, -2), np.swapaxes(q, -1, -2) @ gs,
            np.swapaxes(p, -1, -2) @ g)


def attend_heads_composite(q, k, v, heads, g):
    """Multi-head attention over (B, L, D) q, k, v: each head's feature
    slice runs through `attend_composite` on its own."""
    dh = q.shape[-1] // heads
    out, gq, gk, gv = (np.zeros_like(a) for a in (q, q, k, v))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        out[..., sl], gq[..., sl], gkt, gv[..., sl] = attend_composite(
            q[..., sl], np.swapaxes(k[..., sl], -1, -2), v[..., sl], 1.0 / math.sqrt(dh), g[..., sl])
        gk[..., sl] = np.swapaxes(gkt, -1, -2)
    return out, gq, gk, gv


def attend_projected_composite(x, wq, bq, wk, bk, wv, bv, heads, g):
    """Multi-head self-attention of x: q, k and v from three
    `linear_composite` projections, then `attend_heads_composite`.  Returns
    the output, then the gradients of x, wq, bq, wk, bk, wv and bv."""
    projections = ((wq, bq), (wk, bk), (wv, bv))
    out, *grads = attend_heads_composite(*(x @ w + b for w, b in projections), heads, g)
    gx, params = np.zeros_like(x), []
    for (w, b), gp in zip(projections, grads):
        _, gxp, gw, gb = linear_composite(x, w, b, gp)
        gx += gxp
        params += [gw, gb]
    return (out, gx, *params)


def attend_kept_p(q, k, v, heads, g, block):
    """Multi-head attention as `T.attend` ran while it kept the
    probabilities: the same sample blocks of `block` bytes of scores and
    the same NumPy operations, but every block's P^T stays in one
    (B, H, L, L) array from the forward to the backward pass.  Returns
    the output and dq, dk, dv, for a bitwise check of the re-formed P."""
    b, n, d = q.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):
        return a.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    step = max(1, block // (heads * n * n * q.dtype.itemsize))
    blocks = [slice(i, i + step) for i in range(0, b, step)]
    pt = np.empty((b, heads, n, n), dtype=q.dtype)
    y = np.empty_like(q)
    for blk in blocks:
        s = np.matmul(kh[blk], np.swapaxes(qh[blk], -1, -2), out=pt[blk])
        s *= scale
        s -= s.max(axis=-2, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=-2, keepdims=True)
        np.matmul(np.swapaxes(s, -1, -2), vh[blk], out=split(y)[blk])
    oh = split(y)
    gq, gk, gv = (np.empty_like(q) for _ in range(3))
    work = np.empty_like(pt[:step])
    for blk in blocks:
        p = pt[blk]
        ds = np.matmul(vh[blk], np.swapaxes(gh[blk], -1, -2), out=work[:len(p)])
        ds -= (gh[blk] * oh[blk]).sum(axis=-1)[..., None, :]
        ds *= p
        ds *= scale
        np.matmul(p, gh[blk], out=split(gv)[blk])
        np.matmul(np.swapaxes(ds, -1, -2), kh[blk], out=split(gq)[blk])
        np.matmul(ds, qh[blk], out=split(gk)[blk])
    return y, gq, gk, gv


def ffn_composite(x, w1, b1, w2, b2, g):
    """linear, exact erf GELU, linear."""
    h = x @ w1 + b1
    cdf = 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
    y, ga, gw2, gb2 = linear_composite(h * cdf, w2, b2, g)
    gh = ga * (cdf + h * np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi))  # gelu'
    _, gx, gw1, gb1 = linear_composite(x, w1, b1, gh)
    return y, gx, gw1, gb1, gw2, gb2


def moe_ffn_composite(rows, probs, groups, experts, g):
    """Per expert e: gather rows groups[e], `ffn_composite` on them, scale
    each output row by its gate probs[row, e], and scatter it back; rows in
    no group are zero.  `experts` holds (w1, b1, w2, b2) per expert.
    Returns the output, the rows and probs gradients, then each expert's
    four parameter gradients."""
    gates = probs.reshape(len(rows), -1)
    out, g_rows, g_gates = np.zeros_like(rows), np.zeros_like(rows), np.zeros_like(gates)
    param_grads = []
    for e, idx in enumerate(groups):
        for row in idx:
            y, gx, *gp = ffn_composite(rows[row:row + 1], *experts[e], g[row:row + 1] * gates[row, e])
            out[row] = y[0] * gates[row, e]
            g_rows[row] = gx[0]
            g_gates[row, e] = float((g[row] * y[0]).sum())
            param_grads.append((e, gp))
    per_expert = [[np.zeros_like(w) for w in weights] for weights in experts]
    for e, gp in param_grads:
        for total, part in zip(per_expert[e], gp):
            total += part
    return (out, g_rows, g_gates.reshape(probs.shape)) + tuple(a for ws in per_expert for a in ws)


# ---------------------------------------------------------------------------
# classification metrics

def ap_naive(scores, labels):
    """All-points-interpolated average precision via explicit rank loops."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    n_pos = sum(1 for v in labels if v)
    points = []  # (recall, precision) at each rank
    tp = 0
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            tp += 1
        points.append((tp / n_pos, tp / rank))
    total = 0.0
    prev_recall = 0.0
    for k, (recall, _) in enumerate(points):
        envelope = max(p for r, p in points[k:])
        total += (recall - prev_recall) * envelope
        prev_recall = recall
    return total


def map_naive(scores, labels):
    aps = []
    for k in range(scores.shape[1]):
        if labels[:, k].sum() > 0:
            aps.append(ap_naive(list(scores[:, k]), list(labels[:, k])))
    return sum(aps) / len(aps)


def miou_naive(pred, gt, num_classes):
    ious = []
    for k in range(num_classes):
        inter = union = 0
        for p, g in zip(pred.reshape(-1), gt.reshape(-1)):
            a, b = p == k, g == k
            inter += int(a and b)
            union += int(a or b)
        if union > 0:
            ious.append(inter / union)
    return sum(ious) / len(ious)


# ---------------------------------------------------------------------------
# image metrics

def mae_naive(a, b):
    total = 0.0
    fa, fb = a.reshape(-1), b.reshape(-1)
    for x, y in zip(fa, fb):
        total += abs(float(x) - float(y))
    return total / fa.size


def psnr_naive(a, b, max_val):
    fa, fb = a.reshape(-1), b.reshape(-1)
    mse = 0.0
    for x, y in zip(fa, fb):
        d = float(x) - float(y)
        mse += d * d
    mse /= fa.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / mse)


def gaussian_kernel_naive(size, sigma):
    half = (size - 1) / 2.0
    k = np.zeros((size, size), dtype=np.float64)
    for i in range(size):
        for j in range(size):
            di, dj = i - half, j - half
            k[i, j] = math.exp(-(di * di) / (2 * sigma * sigma)) * \
                math.exp(-(dj * dj) / (2 * sigma * sigma))
    return k / k.sum()


def ssim_naive(a, b, max_val, window=11, sigma=1.5):
    """Per-window loops over valid positions; same contract as the library:
    the window shrinks to the largest odd size fitting the image."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 2:
        a, b = a[None], b[None]
    _, w, h = a.shape
    k = min(window, w, h)
    if k % 2 == 0:
        k -= 1
    kern = gaussian_kernel_naive(k, sigma)
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    vals = []
    for c in range(a.shape[0]):
        for i in range(w - k + 1):
            for j in range(h - k + 1):
                wa = a[c, i:i + k, j:j + k]
                wb = b[c, i:i + k, j:j + k]
                mu_a = (wa * kern).sum()
                mu_b = (wb * kern).sum()
                va = (wa * wa * kern).sum() - mu_a * mu_a
                vb = (wb * wb * kern).sum() - mu_b * mu_b
                cov = (wa * wb * kern).sum() - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)
                vals.append(num / den)
    return sum(vals) / len(vals)


def sam_naive(a, b):
    """Mean spectral angle in degrees via per-pixel arccos loops."""
    c, w, h = a.shape
    total = 0.0
    for i in range(w):
        for j in range(h):
            u = np.asarray(a[:, i, j], dtype=np.float64)
            v = np.asarray(b[:, i, j], dtype=np.float64)
            cos = float(u @ v / (math.sqrt(u @ u) * math.sqrt(v @ v)))
            cos = min(1.0, max(-1.0, cos))
            total += math.degrees(math.acos(cos))
    return total / (w * h)


def ssi_naive(original, filtered):
    out = []
    for c in range(original.shape[0]):
        o = np.asarray(original[c], dtype=np.float64).reshape(-1)
        f = np.asarray(filtered[c], dtype=np.float64).reshape(-1)
        mu_o, mu_f = o.mean(), f.mean()
        cv_o = o.std() / abs(mu_o)
        cv_f = f.std() / abs(mu_f)
        out.append(cv_f / cv_o)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# sparse routing

def moe_dispatch_naive(x, gate_w, experts, capacity_factor):
    """Exhaustive dispatch oracle over raw arrays.

    Every routing decision is re-derived with explicit loops: argmax with
    lowest-index tie break, capacity truncation in arrival order, gate
    scaling and zero rows for dropped tokens.  The expert feed-forward math
    runs on the same kept-row batches the library builds, with the library's
    float32 GELU, so a correct implementation matches bit for bit.

    Returns (combined, aux, kept_counts, dropped_tokens).
    """
    n, _ = x.shape
    num_experts = len(experts)
    logits = x @ gate_w
    shift = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - shift)
    probs = e / e.sum(axis=-1, keepdims=True)

    assign = []
    for t in range(n):
        best, best_p = 0, probs[t, 0]
        for j in range(1, num_experts):
            if probs[t, j] > best_p:
                best, best_p = j, probs[t, j]
        assign.append(best)

    capacity = max(1, int(math.floor(capacity_factor * n / num_experts)))
    kept = {j: [] for j in range(num_experts)}
    dropped = []
    for t in range(n):
        j = assign[t]
        if len(kept[j]) < capacity:
            kept[j].append(t)
        else:
            dropped.append(t)

    combined = np.zeros_like(x)
    for j in range(num_experts):
        rows = kept[j]
        if not rows:
            continue
        xe = x[np.asarray(rows, dtype=np.intp)]
        h = xe @ experts[j]["w1"] + experts[j]["b1"].reshape(1, -1)
        if h.dtype == np.float32:
            h = T._gelu(h)[0]
        else:
            h = h * (0.5 * (1.0 + erf(h * (1.0 / math.sqrt(2.0)))))
        ye = h @ experts[j]["w2"] + experts[j]["b2"].reshape(1, -1)
        for row, t in enumerate(rows):
            combined[t] = ye[row] * probs[t, j]

    counts = np.zeros(num_experts, dtype=np.int64)
    for t in range(n):
        counts[assign[t]] += 1
    fractions = (counts / float(n)).astype(probs.dtype)
    mean_prob = probs.mean(axis=0)
    aux = float((mean_prob * fractions).sum() * float(num_experts))
    return combined, aux, tuple(len(kept[j]) for j in range(num_experts)), dropped


# ---------------------------------------------------------------------------
# small forward-pass oracles

def conv_patch_naive(image, kernel, bias):
    """Per-patch, per-filter dot-product loops, plus each filter's bias."""
    c, w, h = image.shape
    d, _, p, _ = kernel.shape
    wb, hb = w // p, h // p
    out = np.zeros((wb * hb, d), dtype=np.float64)
    for bi in range(wb):
        for bj in range(hb):
            patch = image[:, bi * p:(bi + 1) * p, bj * p:(bj + 1) * p]
            for f in range(d):
                out[bi * hb + bj, f] = float(
                    (np.asarray(patch, dtype=np.float64) *
                     np.asarray(kernel[f], dtype=np.float64)).sum()
                ) + float(bias[f])
    return out


def masked_l1_naive(pred, target, mask):
    """Mean |pred-target| over mask-selected pixels of every channel."""
    total = 0.0
    count = 0
    c = pred.shape[0]
    for ch in range(c):
        for i in range(pred.shape[1]):
            for j in range(pred.shape[2]):
                if mask[i, j]:
                    total += abs(float(pred[ch, i, j]) - float(target[ch, i, j]))
                    count += 1
    return total / count


def masked_l1_composite(pred, target, masks, g):
    """NumPy replica of the masked L1 as five tape nodes (sub, abs_, mul by
    the mask, reduce_sum over (C, W, H), div by the count) for a
    (..., C, W, H) `pred` and (..., 1, W, H) 0/1 `masks`, in their dtype.

    Returns the per-sample losses and pred's gradient for the upstream
    gradient `g`, each node's arithmetic in its own order.
    """
    axes = (-3, -2, -1)
    m = masks.astype(pred.dtype)
    counts = m.sum(axis=axes) * pred.shape[-3]
    diff = pred - target
    loss = (np.abs(diff) * m).sum(axis=axes) / counts
    grad = np.broadcast_to(np.expand_dims(g / counts, axes), pred.shape) * m
    return loss, grad * np.sign(diff)


def adamw_naive(w, grads, lr, beta1, beta2, eps, weight_decay, decay_applies):
    """Sequential AdamW trajectory over a list of per-step gradients."""
    w = np.asarray(w, dtype=np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for step, g in enumerate(grads):
        t = step + 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        update = mhat / (np.sqrt(vhat) + eps)
        if decay_applies:
            update = update + weight_decay * w
        w = w - lr * update
    return w


# ---------------------------------------------------------------------------
# per-sample pretraining round

def round_loss_per_sample(params, cfg, dataset, batch, mask_rng, cross_rng, p_cross):
    """The pretraining round with the trunk run once per sample.

    Draws the same masks and cross coins in the same order as
    `crossmim.model.round_loss` and returns (total, stats, reports) in its
    format: per sensor, the mean masked L1 plus aux_weight times the mean
    balance loss.
    """
    total = None
    stats = {"sensors": {}, "cross_samples": 0, "self_samples": 0}
    all_reports = []
    for sensor_id in sorted(batch.per_sensor):
        records = batch.per_sensor[sensor_id]
        if not records:
            continue
        masks = [draw_mask(dataset.width, dataset.height, cfg.mask_unit, cfg.mask_ratio,
                           mask_rng) for _ in records]
        targets = choose_targets(records, dataset, masks, p_cross, cross_rng)
        mim_sum, aux_sum = None, None
        for r, mask, plan in zip(records, masks, targets):
            pred, aux, reports = reconstruct_sample(
                params, cfg, dataset.image(r.sample_id), sensor_id,
                to_token_mask(mask, cfg.patch_size), plan.target_sensor)
            loss = reconstruction_loss(pred, plan)
            mim_sum = loss if mim_sum is None else mim_sum + loss
            aux_sum = aux if aux_sum is None else aux_sum + aux
            all_reports.extend(reports)
            stats["cross_samples" if plan.is_cross else "self_samples"] += 1
        n = float(len(records))
        sensor_mim = mim_sum * (1.0 / n)
        sensor_aux = aux_sum * (1.0 / n)
        contribution = sensor_mim + cfg.aux_weight * sensor_aux
        total = contribution if total is None else total + contribution
        stats["sensors"][sensor_id] = {"mim": float(sensor_mim.data),
                                       "aux": float(sensor_aux.data)}
    stats["loss_total"] = float(total.data)
    return total, stats, all_reports
