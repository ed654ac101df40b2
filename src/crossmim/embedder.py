"""Per-sensor patch embeddings into a common token width.

Each sensor owns one stride-P convolution straight to the trunk width,
read from the parameter table as `embedder.<sensor_id>.kernel`
(width, C_i, P, P) and `.bias` (width,), so differently-channeled image
batches (B, C_i, W, H) all become (B, L, width) token batches.  Masking
happens here, after embedding: masked token positions are replaced by a
single learned mask token (`shared.mask_token`) shared across sensors,
then positional embeddings (`shared.pos_embed`, (L, width)) are added.
"""

import numpy as np

from . import tensor as T
from .errors import ShapeError


def embed(images, params, prefix, token_mask=None):
    """Tokenize a (B, C, W, H) image batch: conv-patch with bias, mask-token
    substitution on masked positions, then positional embedding.

    Args:
        images: Tensor (B, C, W, H) whose channels match the kernel at
            `prefix + "kernel"`.
        params: the parameter table.
        prefix: the embedder's name prefix, `embedder.<sensor_id>.` or, for
            channel-stack transfer, `transfer.embed.`.
        token_mask: optional (B, L) boolean array; True positions lose their
            content and carry no gradient back to the image.

    Returns (B, L, width) tokens.
    """
    kernel, bias = params[prefix + "kernel"], params[prefix + "bias"]
    if images.ndim != 4 or images.shape[1] != kernel.shape[1]:
        raise ShapeError(f"{prefix}kernel expects a (B, {kernel.shape[1]}, W, H) image batch, "
                         f"got {tuple(images.shape)}")
    tokens = T.conv_patch(images, kernel, bias)
    n_tokens = tokens.shape[-2]
    pos_embed = params["shared.pos_embed"]
    if pos_embed.shape[0] != n_tokens:
        raise ShapeError(
            f"positional table covers {pos_embed.shape[0]} tokens, image yields {n_tokens}"
        )
    if token_mask is not None:
        m = np.asarray(token_mask, dtype=bool)
        if m.shape != tokens.shape[:-1]:
            raise ShapeError(f"token mask length {m.shape} != token count {tokens.shape[:-1]}")
        if m.any():
            keep = T.constant((~m).astype(tokens.dtype)[..., None], like=tokens)
            drop = T.constant(m.astype(tokens.dtype)[..., None], like=tokens)
            tokens = tokens * keep + T.reshape(params["shared.mask_token"], (1, -1)) * drop
    return tokens + pos_embed


def stacked_embedder(params, sensor_ids):
    """(kernel, bias) NumPy arrays of one embedder over the channel-stacked
    images of `sensor_ids`, from their `embedder.<sensor_id>.` entries.

    Convolution is linear in its input channels, so concatenating kernels
    along the input-channel axis and summing biases reproduces, exactly, the
    sum of the per-sensor responses on a channel-stacked image.
    """
    if not sensor_ids:
        raise ShapeError("need at least one embedder to stack")
    kernel = np.concatenate([params[f"embedder.{sid}.kernel"].data for sid in sensor_ids], axis=1)
    bias = params[f"embedder.{sensor_ids[0]}.bias"].data
    for sid in sensor_ids[1:]:
        bias = bias + params[f"embedder.{sid}.bias"].data
    return kernel, bias
