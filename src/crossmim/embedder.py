"""Per-sensor patch embeddings into a common token width.

Each sensor owns one stride-P convolution straight to the trunk width, so
differently-channeled images all become (L, width) token sequences, one
per sample of a (B, C, W, H) batch.  Masking happens here, after
embedding: masked token positions are replaced by a single learned mask
token shared across sensors, then positional embeddings are added.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError


@dataclass(frozen=True)
class SensorEmbedder:
    """Patch-embedding parameters owned by exactly one sensor.

    kernel: (width, C_i, P, P); bias: (width,).
    """

    sensor_id: int
    kernel: T.Tensor
    bias: T.Tensor

    @property
    def in_channels(self):
        return self.kernel.shape[1]

    @property
    def width(self):
        return self.kernel.shape[0]

    @property
    def patch_size(self):
        return self.kernel.shape[2]


@dataclass(frozen=True)
class SharedTokens:
    """Cross-sensor shared parameters: the mask token and the learned
    absolute positional table for the configured token count L."""

    mask_token: T.Tensor  # (width,)
    pos_embed: T.Tensor  # (L, width)


def embed(image, embedder, shared, token_mask=None, image_sensor_id=None):
    """Tokenize images: conv-patch + bias, mask-token substitution on
    masked positions, then positional embedding.

    Args:
        image: Tensor (C_i, W, H), or a batch (B, C_i, W, H), channels
            matching the embedder's sensor.
        token_mask: optional boolean array of length L, or (B, L) for a
            batch; True positions lose their content and carry no gradient
            back to the image.
        image_sensor_id: sensor the image belongs to, for error messages.

    Returns (L, width) tokens, or (B, L, width) for a batch.
    """
    if image.ndim not in (3, 4):
        raise ShapeError(f"embed expects (C,W,H) or (B,C,W,H), got {tuple(image.shape)}")
    if image.shape[-3] != embedder.in_channels:
        owner = f"embedder of sensor {embedder.sensor_id}"
        src = f"sensor {image_sensor_id}" if image_sensor_id is not None else "image"
        raise ShapeError(
            f"channel mismatch: {src} has {image.shape[-3]} channels, "
            f"{owner} expects {embedder.in_channels}"
        )
    tokens = T.conv_patch(image, embedder.kernel) + T.reshape(embedder.bias, (1, -1))
    n_tokens = tokens.shape[-2]
    if shared.pos_embed.shape[0] != n_tokens:
        raise ShapeError(
            f"positional table covers {shared.pos_embed.shape[0]} tokens, image yields {n_tokens}"
        )
    if token_mask is not None:
        m = np.asarray(token_mask, dtype=bool)
        if m.shape != tokens.shape[:-1]:
            raise ShapeError(f"token mask length {m.shape} != token count {tokens.shape[:-1]}")
        if m.any():
            keep = T.constant((~m).astype(tokens.dtype)[..., None], like=tokens)
            drop = T.constant(m.astype(tokens.dtype)[..., None], like=tokens)
            tokens = tokens * keep + T.reshape(shared.mask_token, (1, -1)) * drop
    return tokens + shared.pos_embed


def stack_embedders_for_transfer(embedders):
    """Fuse per-sensor embedders into one over the channel-stacked image.

    Convolution is linear in its input channels, so concatenating kernels
    along the input-channel axis and summing biases reproduces, exactly, the
    sum of the per-sensor responses on a channel-stacked image.
    """
    embedders = list(embedders)
    if not embedders:
        raise ShapeError("need at least one embedder to stack")
    width, p = embedders[0].width, embedders[0].patch_size
    for e in embedders[1:]:
        if e.width != width or e.patch_size != p:
            raise ShapeError(
                f"cannot stack embedders: sensor {e.sensor_id} has width/patch "
                f"{e.width}/{e.patch_size}, sensor {embedders[0].sensor_id} has {width}/{p}"
            )
    kernel = T.concat([e.kernel for e in embedders], axis=1)
    bias = embedders[0].bias
    for e in embedders[1:]:
        bias = bias + e.bias
    return SensorEmbedder(sensor_id=-1, kernel=kernel, bias=bias)
