"""Parameter construction and the end-to-end pretraining forward pass.

Parameters live in one flat ordered dict keyed by stable names:

    embedder.<sensor_id>.kernel / .bias
    shared.mask_token / shared.pos_embed
    encoder.block<k>.ln1.gamma ... encoder.block<k>.attn.wq ...
    encoder.block<k>.ffn.w1 ... or encoder.block<k>.gate.w,
    encoder.block<k>.expert<e>.w1 ...
    decoder.<sensor_id>.proj / .bias

Every layer reads its weights from this table by name, and the same names
appear in checkpoints, so initialization order and naming are part of the
persistence contract.  Each parameter is initialized from its own RNG
stream derived from (seed, crc32(name)), which makes init independent of
creation order and of which modules exist.
"""

import zlib

import numpy as np

from . import tensor as T
from .checkpoint import STREAM_PARAM, stream_rng
from .decoders import choose_targets, reconstruction_loss, decode
from .embedder import embed
from .encoder import encode
from .errors import NumericError
from .masking import draw_mask, to_token_mask

INIT_STD = 0.02


def param_rng(seed, name):
    return stream_rng(seed, STREAM_PARAM, zlib.crc32(name.encode("utf-8")))


def make_param(params, name, shape, seed, kind, dtype):
    """Add trainable `name` to `params`: INIT_STD x its own normal stream, zeros or ones."""
    if kind == "normal":
        data = INIT_STD * param_rng(seed, name).standard_normal(shape)
    elif kind == "zeros":
        data = np.zeros(shape)
    elif kind == "ones":
        data = np.ones(shape)
    else:
        raise ValueError(kind)
    params[name] = T.Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def init_params(registry, cfg, seed, dtype=np.float32):
    """Create the full parameter table for a registry + ModelConfig."""
    params = {}
    d = cfg.width
    p = cfg.patch_size

    for s in registry:
        make_param(params, f"embedder.{s.sensor_id}.kernel", (d, s.channels, p, p), seed, "normal", dtype)
        make_param(params, f"embedder.{s.sensor_id}.bias", (d,), seed, "zeros", dtype)
    make_param(params, "shared.mask_token", (d,), seed, "normal", dtype)
    make_param(params, "shared.pos_embed", (cfg.tokens, d), seed, "normal", dtype)

    hidden = cfg.ffn_mult * d
    for k in range(cfg.depth):
        b = f"encoder.block{k}."
        make_param(params, b + "ln1.gamma", (d,), seed, "ones", dtype)
        make_param(params, b + "ln1.beta", (d,), seed, "zeros", dtype)
        for w in ("wq", "wk", "wv", "wo"):
            make_param(params, b + f"attn.{w}", (d, d), seed, "normal", dtype)
        for bias in ("bq", "bk", "bv", "bo"):
            make_param(params, b + f"attn.{bias}", (d,), seed, "zeros", dtype)
        make_param(params, b + "ln2.gamma", (d,), seed, "ones", dtype)
        make_param(params, b + "ln2.beta", (d,), seed, "zeros", dtype)
        if k in cfg.moe_block_indices:
            make_param(params, b + "gate.w", (d, cfg.num_experts), seed, "normal", dtype)
            for e in range(cfg.num_experts):
                make_param(params, b + f"expert{e}.w1", (d, hidden), seed, "normal", dtype)
                make_param(params, b + f"expert{e}.b1", (hidden,), seed, "zeros", dtype)
                make_param(params, b + f"expert{e}.w2", (hidden, d), seed, "normal", dtype)
                make_param(params, b + f"expert{e}.b2", (d,), seed, "zeros", dtype)
        else:
            make_param(params, b + "ffn.w1", (d, hidden), seed, "normal", dtype)
            make_param(params, b + "ffn.b1", (hidden,), seed, "zeros", dtype)
            make_param(params, b + "ffn.w2", (hidden, d), seed, "normal", dtype)
            make_param(params, b + "ffn.b2", (d,), seed, "zeros", dtype)

    for s in registry:
        make_param(params, f"decoder.{s.sensor_id}.proj", (p * p * s.channels, d), seed, "normal", dtype)
        make_param(params, f"decoder.{s.sensor_id}.bias", (p * p * s.channels,), seed, "zeros", dtype)
    return params


def reconstruct_sample(params, cfg, image, sensor_id, token_mask, target_sensor):
    """Masked embed -> shared encode -> target sensor's decoder.

    `image` is a batch (B, C, W, H) of one sensor with (B, L) token masks,
    which runs the trunk once for the whole batch, or one (C, W, H) image
    with an (L,) mask, which runs as a batch of one.  Returns the
    prediction, (B, C_t, W, H) or (C_t, W, H), the balance loss per sample,
    (B,) or a scalar, and the routing reports, one per (sample, MoE block),
    sample-major.
    """
    x = image if isinstance(image, T.Tensor) else T.constant(image)
    single = x.ndim == 3
    if single:
        x, token_mask = T.reshape(x, (1,) + x.shape), np.asarray(token_mask)[None]
    feats, aux, reports = encode(embed(x, params, f"embedder.{sensor_id}.", token_mask),
                                 cfg, params)
    pred = decode(feats, params, target_sensor, cfg)
    if single:
        return T.reshape(pred, pred.shape[1:]), T.reshape(aux, ()), reports
    return pred, aux, reports


def round_loss(params, cfg, dataset, batch, mask_rng, cross_rng, p_cross=None):
    """Loss for one optimization round over every sensor's batch.

    Sensors are visited in id order.  Per sensor, one mask plan is drawn per
    sample, then targets are chosen, and the sensor's batch is embedded.
    The token batches are stacked in sensor order and run through the trunk
    once.  The rows of each target sensor are decoded as one group, and the
    loss is one weighted sum over the samples, each weighted by 1/n for a
    sensor of n samples:

        sum_sensors ( mean L1 + aux_weight * mean balance )

    Returns it plus per-sensor stats and the routing reports of the round,
    one per (sample, MoE block) in record order.
    """
    if p_cross is None:
        p_cross = cfg.p_cross
    targets, token_batches = [], []
    for sensor_id in sorted(batch.per_sensor):
        records = batch.per_sensor[sensor_id]
        if not records:
            continue
        masks = [draw_mask(dataset.width, dataset.height, cfg.mask_unit, cfg.mask_ratio, mask_rng)
                 for _ in records]
        targets += choose_targets(records, dataset, masks, p_cross, cross_rng)
        images = np.stack([dataset.image(r.sample_id) for r in records])
        token_masks = np.stack([to_token_mask(m, cfg.patch_size) for m in masks])
        token_batches.append(embed(T.constant(images), params, f"embedder.{sensor_id}.",
                                   token_masks))
    if not targets:
        raise NumericError("round contained no samples")
    feats, aux, reports = encode(T.concat(token_batches), cfg, params)
    order, losses = [], []  # sample rows stable-sorted by target sensor, L1 per group
    for target_sensor in sorted({t.target_sensor for t in targets}):
        rows = [i for i, t in enumerate(targets) if t.target_sensor == target_sensor]
        pred = decode(T.take_rows(feats, rows), params, target_sensor, cfg)
        losses.append(reconstruction_loss(pred, [targets[i] for i in rows]))
        order += rows
    l1 = T.concat(losses)
    sources = np.array([t.source_sensor for t in targets])
    sensor_ids, sensor_of, counts = np.unique(sources, return_inverse=True, return_counts=True)
    weights = 1.0 / counts[sensor_of]
    total = (T.reduce_sum(l1 * weights[order])
             + cfg.aux_weight * T.reduce_sum(aux * weights))
    per_sample = np.empty_like(l1.data)
    per_sample[order] = l1.data
    cross = sum(t.is_cross for t in targets)
    return total, {
        "sensors": {int(sid): {"mim": float(per_sample[sources == sid].mean()),
                               "aux": float(aux.data[sources == sid].mean())}
                    for sid in sensor_ids},
        "cross_samples": cross,
        "self_samples": len(targets) - cross,
        "loss_total": float(total.data),
    }, reports
