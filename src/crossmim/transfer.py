"""Downstream transfer and evaluation.

Two ways of feeding a multisensor sample to the pretrained trunk:

- shared_encoder_concat: each sensor is embedded by its own embedder, runs
  through the shared encoder, is mean-pooled, and the pooled features are
  concatenated before the head.
- channel_stack: all sensors are stacked along the channel axis and pass
  through one fused embedder, `transfer.embed.` in the parameter table
  (initialized from the pretrained per-sensor kernels, which reproduces
  their summed response exactly at step 0).

Either way a batch of samples runs through the trunk as one (B, L, width)
pass per embedder.

No masking is applied during transfer.  Heads: a linear multilabel
classifier over pooled features, or dense per-token projections that
pixel-shuffle back to image layout for regression / segmentation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_fields, check_range, keyed
from .embedder import embed, stacked_embedder
from .encoder import encode
from .errors import ConfigError
from .masking import draw_mask, to_pixel_mask, to_token_mask
from .metrics import mae, map_score, mean_iou, psnr, sam_degrees, ssim
from .model import init_params, make_param, reconstruct_sample
from .training import STREAM_TASK, SensorSampler, TrainConfig, Trainer

MODES = ("shared_encoder_concat", "channel_stack")
HEADS = ("multilabel", "dense_regression", "dense_classification")


@dataclass(frozen=True)
class TransferConfig:
    mode: str = keyed("transfer.mode")
    head: str = keyed("transfer.head")
    frozen_trunk: bool = keyed("transfer.frozen_trunk")
    num_classes: int = keyed("transfer.classes")

    def __post_init__(self):
        check_fields(self)
        if self.mode not in MODES:
            raise ConfigError(f"unknown transfer mode {self.mode!r}, expected one of {MODES}")
        if self.head not in HEADS:
            raise ConfigError(f"unknown head {self.head!r}, expected one of {HEADS}")
        if self.num_classes < 2 and self.head != "dense_regression":
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")


@dataclass(frozen=True)
class TaskSample:
    """One downstream example: colocated images per task sensor + target."""

    images: dict  # sensor_id -> (C, W, H) float array
    label: np.ndarray


def head_input_width(model_cfg, tcfg, n_sensors):
    if tcfg.mode == "shared_encoder_concat":
        return n_sensors * model_cfg.width
    return model_cfg.width


def head_output_width(model_cfg, tcfg):
    p2 = model_cfg.patch_size ** 2
    if tcfg.head == "multilabel":
        return tcfg.num_classes
    if tcfg.head == "dense_regression":
        return p2  # the 1-channel mean
    return p2 * tcfg.num_classes


def init_transfer_params(pretrained, registry, model_cfg, tcfg, task_sensors, seed):
    """Build the float32 fine-tuning parameter table.

    The positional table, the encoder and the task sensors' embedders are
    copied from `pretrained` (or freshly initialized when None, the
    from-scratch baseline) so the original table stays untouched;
    channel_stack stacks the copied embedders into `transfer.embed.`; the
    head is always freshly initialized.  Transfer never masks, so the mask
    token is left out.
    """
    if pretrained is None:
        pretrained = init_params(registry, model_cfg, seed)

    def copy(arr):
        return T.Tensor(arr.astype(np.float32, copy=True), requires_grad=not tcfg.frozen_trunk)

    trunk = ["shared.pos_embed"] + [k for k in pretrained if k.startswith("encoder.")]
    params = {k: copy(pretrained[k].data) for k in trunk}
    embedders = {k: copy(pretrained[k].data) for k in
                 (f"embedder.{sid}.{leaf}" for sid in task_sensors for leaf in ("kernel", "bias"))}
    if tcfg.mode == "channel_stack":
        for leaf, arr in zip(("kernel", "bias"), stacked_embedder(embedders, task_sensors)):
            params[f"transfer.embed.{leaf}"] = copy(arr)
    else:
        params.update(embedders)

    w_in = head_input_width(model_cfg, tcfg, len(task_sensors))
    w_out = head_output_width(model_cfg, tcfg)
    make_param(params, "head.w", (w_in, w_out), seed, "normal", np.float32)
    make_param(params, "head.b", (w_out,), seed, "zeros", np.float32)
    return params


def finetune_forward(params, model_cfg, tcfg, task_sensors, samples):
    """Head output for a sequence of B TaskSamples: (B, K) logits for
    multilabel, or a dense (B, 1, W, H) regression or (B, K, W, H)
    classification map.  Each embedder's images run through the trunk as
    one batch."""
    for sid in task_sensors:
        if any(sid not in s.images for s in samples):
            raise ConfigError(f"sample is missing sensor {sid} required by the transfer mode")
    if tcfg.mode == "shared_encoder_concat":
        inputs = [(f"embedder.{sid}.", [s.images[sid] for s in samples]) for sid in task_sensors]
    else:
        inputs = [("transfer.embed.", [np.concatenate([s.images[sid] for sid in task_sensors])
                                       for s in samples])]
    feats = [encode(embed(T.constant(np.stack(images), like=params["head.w"]), params, prefix),
                    model_cfg, params)[0] for prefix, images in inputs]
    per_token = T.concat(feats, axis=-1)  # (B, L, width)

    if tcfg.head == "multilabel":
        return T.linear(T.reduce_mean(per_token, axis=1), params["head.w"], params["head.b"])
    dense = T.linear(per_token, params["head.w"], params["head.b"])
    channels = 1 if tcfg.head == "dense_regression" else tcfg.num_classes
    return T.unpatchify(dense, model_cfg.patch_size, channels,
                        model_cfg.image_w, model_cfg.image_h)


def task_loss(params, model_cfg, tcfg, task_sensors, samples):
    """Mean task loss over a batch of TaskSamples."""
    out = finetune_forward(params, model_cfg, tcfg, task_sensors, samples)
    labels = np.stack([s.label for s in samples])
    if tcfg.head == "multilabel":
        return T.bce_with_logits(out, T.constant(labels, like=out))
    if tcfg.head == "dense_regression":
        return T.l1_loss(out, T.constant(labels, like=out), np.ones(out.shape[-2:], dtype=bool))
    logits = T.reshape(T.transpose(out, (0, 2, 3, 1)), (-1, tcfg.num_classes))  # (pixels, K)
    return T.softmax_cross_entropy(logits, labels.reshape(-1))


# ---------------------------------------------------------------------------
# synthetic downstream tasks

def _task_groups(dataset, task_sensors):
    """Colocated sample groups covering every task sensor: each record of
    the anchor (first) sensor, with its partner's image when the task names
    a second sensor."""
    anchor, *others = task_sensors
    groups = []
    for r in dataset.by_sensor[anchor]:
        images = {anchor: dataset.image(r.sample_id)}
        if others:
            partner = dataset.partner_record(r)
            if partner is None or others != [partner.sensor_id]:
                continue
            images[partner.sensor_id] = dataset.image(partner.sample_id)
        groups.append(images)
    if not groups:
        raise ConfigError(
            f"no colocated samples cover task sensors {task_sensors}; "
            "multi-sensor tasks need a registered pair"
        )
    return groups


def _task_label(img, tcfg):
    """The label of one (C, W, H) anchor image for `tcfg.head`."""
    k = tcfg.num_classes
    if tcfg.head == "multilabel":
        # class j: does vertical strip j of channel j mod C have positive mean?
        c, w, _h = img.shape
        label = np.zeros(k, dtype=np.float32)
        for j in range(k):
            lo = (j * w) // k
            hi = max(lo + 1, ((j + 1) * w) // k)
            label[j] = 1.0 if img[j % c, lo:hi, :].mean() > 0 else 0.0
        return label
    if tcfg.head == "dense_regression":  # the per-pixel channel mean
        return img.mean(axis=0, keepdims=True).astype(np.float32)
    # that mean bucketed into per-image quantile bins
    field_img = img.mean(axis=0)
    qs = np.quantile(field_img, np.linspace(0, 1, k + 1)[1:-1])
    return np.digitize(field_img, qs).astype(np.int64)


def make_task(dataset, tcfg, task_sensors):
    """One TaskSample per colocated group of the task sensors, labelled
    from its anchor image by `tcfg.head`."""
    return [TaskSample(images=images, label=_task_label(images[task_sensors[0]], tcfg))
            for images in _task_groups(dataset, task_sensors)]


def task_metrics(params, model_cfg, tcfg, task_sensors, samples):
    """Task-appropriate scores of the current head on a sample list."""
    with T.no_grad():
        outs = finetune_forward(params, model_cfg, tcfg, task_sensors, samples).data
    if tcfg.head == "multilabel":
        return {"map": map_score(outs, np.stack([s.label for s in samples]))}
    if tcfg.head == "dense_regression":
        return {"mae": float(np.mean([mae(o, s.label) for o, s in zip(outs, samples)]))}
    preds = [np.argmax(o, axis=0) for o in outs]
    scores = [mean_iou(p, s.label, tcfg.num_classes) for p, s in zip(preds, samples)]
    return {"miou": float(np.mean(scores))}


def finetune(registry, model_cfg, tcfg, task_sensors, samples, pretrained,
             steps, lr, batch_size, seed, log_path=None, dump_dir=None):
    """Fine-tune (or train from scratch when `pretrained` is None) on the
    pretraining loop: AdamW at the flat rate `lr` over the parameters that
    require grad, on batches of `samples` drawn from the task stream.

    Returns (params, losses): the adapted parameter table and the per-step
    task loss trajectory.
    """
    for key, value in (("transfer.steps", steps), ("transfer.lr", lr),
                       ("transfer.batch", batch_size)):
        check_range(key, value)
    cfg = TrainConfig(base_lr=lr, warmup_epochs=0, seed=seed)
    params = init_transfer_params(pretrained, registry, model_cfg, tcfg,
                                  task_sensors, seed)
    batch = min(batch_size, len(samples))
    trainer = Trainer.for_loss(
        lambda p, drawn: (task_loss(p, model_cfg, tcfg, task_sensors, drawn["task"]), {}),
        {"task": SensorSampler(samples, batch, seed, sensor_id=0, stream=STREAM_TASK)},
        {s.sensor_id: 1.0 for s in registry}, cfg, params,
        steps_per_epoch=math.ceil(len(samples) / batch), log_path=log_path, dump_dir=dump_dir)
    try:
        for _ in range(steps):
            trainer.train_step()
    finally:
        trainer.close()
    return params, trainer.state.history


# ---------------------------------------------------------------------------
# reconstruction evaluation (pretraining-quality view)

def reconstruct_records(params, model_cfg, dataset, pairs, rng):
    """Mask and reconstruct (record, target record) pairs without a tape.

    One mask plan is drawn per pair, in order, from `rng`; pairs sharing a
    (source, target) sensor then run through the trunk as one batch.
    Returns (plan, prediction array) per pair, in order.
    """
    plans = [draw_mask(dataset.width, dataset.height, model_cfg.mask_unit,
                       model_cfg.mask_ratio, rng) for _ in pairs]
    groups = {}
    for i, (r, target) in enumerate(pairs):
        groups.setdefault((r.sensor_id, target.sensor_id), []).append(i)
    preds = [None] * len(pairs)
    for (source, target), idx in groups.items():
        images = np.stack([dataset.image(pairs[i][0].sample_id) for i in idx])
        masks = np.stack([to_token_mask(plans[i], model_cfg.patch_size) for i in idx])
        with T.no_grad():
            pred, _aux, _reports = reconstruct_sample(params, model_cfg, images, source,
                                                      masks, target)
        for i, p in zip(idx, pred.data):
            preds[i] = p
    return list(zip(plans, preds))


def reconstruction_report(params, model_cfg, dataset, records, rng):
    """Self-reconstruction quality per sensor on the given records.

    Each record is masked (consuming `rng`), reconstructed with its own
    decoder, and compared to the ground truth over the full image: MAE,
    PSNR, SSIM (averaged per channel), SAM for multichannel sensors, plus
    the masked-footprint L1 that pretraining optimizes.  PSNR/SSIM use the
    ground-truth image's value range as max_val.  Each mean takes every
    record: one NaN record makes it NaN, one perfect record a PSNR of inf.
    """
    buckets = {}
    results = reconstruct_records(params, model_cfg, dataset, [(r, r) for r in records], rng)
    for r, (plan, pred) in zip(records, results):
        pred = pred.astype(np.float64)
        gt64 = dataset.image(r.sample_id).astype(np.float64)
        rng_span = float(gt64.max() - gt64.min()) or 1.0
        entry = {
            "masked_l1": float(np.abs(pred - gt64)[:, to_pixel_mask(plan)].mean()),
            "mae": mae(pred, gt64),
            "psnr": psnr(pred, gt64, rng_span),
            "ssim": ssim(pred, gt64, rng_span),
        }
        if gt64.shape[0] >= 2:
            entry["sam_deg"] = sam_degrees(pred, gt64)
        buckets.setdefault(r.sensor_id, []).append(entry)

    return {sid: {k: float(np.mean([e[k] for e in entries])) for k in entries[0]}
            for sid, entries in sorted(buckets.items())}


def cross_reconstruction_l1(params, model_cfg, dataset, records, rng):
    """Mean masked L1 of cross predictions over paired records: each source
    is masked, decoded through its partner's decoder, and scored against the
    partner image on the source's masked footprint.  None when no record has
    a partner."""
    pairs = [(r, dataset.records[r.partner_sample_id]) for r in records
             if r.partner_sample_id is not None]
    vals = []
    for (_r, partner), (plan, pred) in zip(
            pairs, reconstruct_records(params, model_cfg, dataset, pairs, rng)):
        gt = dataset.image(partner.sample_id).astype(np.float64)
        vals.append(float(np.abs(pred.astype(np.float64) - gt)[:, to_pixel_mask(plan)].mean()))
    return float(np.mean(vals)) if vals else None
