"""Per-sensor reconstruction decoders and target selection.

Each sensor owns a single linear head projecting (B, L, width) trunk
features back to pixel space, read from the parameter table as
`decoder.<sensor_id>.proj` (P*P*C_i, width) and `.bias` (P*P*C_i,).  A
sample either reconstructs itself or, when a colocated partner exists,
reconstructs the partner image through the partner's decoder; the choice
is an independent coin flip per sample.  Either way the loss lives on the
source sample's masked pixel footprint.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .masking import to_pixel_mask


@dataclass(frozen=True)
class ReconstructionPlan:
    """What one sample should reconstruct and where its loss is scored."""

    sample_id: int
    source_sensor: int
    target_sensor: int
    target_image: np.ndarray  # (C_target, W, H)
    pixel_loss_mask: np.ndarray  # bool (W, H), the source's masked footprint

    @property
    def is_cross(self):
        return self.target_sensor != self.source_sensor


def decode(features, params, sensor_id, cfg):
    """Project (B, L, width) features through sensor `sensor_id`'s pixel
    head to a (B, C, W, H) batch in its image space; the ModelConfig `cfg`
    gives the patch and image sizes."""
    proj, bias = params[f"decoder.{sensor_id}.proj"], params[f"decoder.{sensor_id}.bias"]
    if features.ndim != 3 or features.shape[-1] != proj.shape[1]:
        raise ShapeError(
            f"decoder of sensor {sensor_id} expects (B, L, {proj.shape[1]}) features, "
            f"got {tuple(features.shape)}"
        )
    tokens = T.linear(features, T.transpose(proj), bias)
    p = cfg.patch_size
    return T.unpatchify(tokens, p, proj.shape[0] // (p * p), cfg.image_w, cfg.image_h)


def choose_targets(records, dataset, mask_plans, p_cross, rng):
    """Build a ReconstructionPlan per record; `mask_plans` holds each
    record's mask plan, aligned with `records`, so two copies of one record
    keep their own masks.

    Paired samples flip an independent Bernoulli(p_cross) coin (one draw per
    paired record, in record order); unpaired samples never consume a draw
    and always reconstruct themselves.
    """
    if not 0.0 <= p_cross <= 1.0:
        raise ShapeError(f"p_cross must be in [0, 1], got {p_cross}")
    plans = []
    for r, mask_plan in zip(records, mask_plans, strict=True):
        cross = r.partner_sample_id is not None and rng.random() < p_cross
        if cross:
            partner = dataset.records[r.partner_sample_id]
            target_sensor, target_image = partner.sensor_id, dataset.image(partner.sample_id)
        else:
            target_sensor, target_image = r.sensor_id, dataset.image(r.sample_id)
        plans.append(ReconstructionPlan(
            sample_id=r.sample_id,
            source_sensor=r.sensor_id,
            target_sensor=target_sensor,
            target_image=target_image,
            pixel_loss_mask=to_pixel_mask(mask_plan),
        ))
    return plans


def reconstruction_loss(pred, plans):
    """Masked L1: mean absolute error over the source's masked pixels,
    averaged over the target's channels.

    `pred` is one (C, W, H) prediction scored by one plan, or a (B, C, W, H)
    batch scored by a sequence of B plans; a batch gives the (B,) per-sample
    losses.
    """
    batched = pred.ndim == 4
    plans = list(plans) if batched else [plans]
    target = np.stack([p.target_image for p in plans])
    masks = np.stack([p.pixel_loss_mask for p in plans])[:, None]
    if not batched:
        target, masks = target[0], masks[0]
    return T.masked_l1(pred, target, masks)
