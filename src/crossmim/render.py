"""Rendering reconstructions as image grids.

Grids are written atomically as binary PPM always, and additionally as
PNG when Pillow is importable.  Rows are: input with masked units grayed
out, model prediction, ground truth; columns are samples.
"""

import io

import numpy as np

from .checkpoint import write_atomic

GAP = 2  # separator pixels between grid cells


def channels_to_rgb(img):
    """Map a (C, W, H) float image onto three display channels."""
    c = img.shape[0]
    if c >= 3:
        rgb = img[:3]
    elif c == 2:
        rgb = np.stack([img[0], img[1], np.zeros_like(img[0])])
    else:
        rgb = np.repeat(img, 3, axis=0)
    return rgb


def to_display(img, mask=None):
    """(C, W, H) floats -> (H, W, 3) uint8, min-max normalized per image;
    masked pixels render mid-gray."""
    rgb = channels_to_rgb(np.asarray(img, dtype=np.float64))
    lo, hi = rgb.min(), rgb.max()
    scale = (hi - lo) or 1.0
    u8 = np.clip((rgb - lo) / scale * 255.0, 0, 255).astype(np.uint8)
    u8 = np.transpose(u8, (2, 1, 0))  # (H, W, 3) with W as x
    if mask is not None:
        u8[np.asarray(mask, dtype=bool).T] = 127
    return u8


def compose_grid(rows):
    """Stack a list of rows (each a list of equally-sized (H, W, 3) tiles)
    into one image with white separators."""
    tile_h, tile_w, _ = rows[0][0].shape
    n_cols = max(len(r) for r in rows)
    height = len(rows) * tile_h + (len(rows) - 1) * GAP
    width = n_cols * tile_w + (n_cols - 1) * GAP
    canvas = np.full((height, width, 3), 255, dtype=np.uint8)
    for i, row in enumerate(rows):
        for j, tile in enumerate(row):
            y = i * (tile_h + GAP)
            x = j * (tile_w + GAP)
            canvas[y:y + tile_h, x:x + tile_w] = tile
    return canvas


def write_ppm(path, image):
    """Binary P6 PPM of an (H, W, 3) uint8 array."""
    h, w, _ = image.shape
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii")
                 + np.ascontiguousarray(image).tobytes())


def write_png(path, image):
    """PNG via Pillow; returns False when Pillow is unavailable."""
    try:
        from PIL import Image
    except ImportError:
        return False
    buf = io.BytesIO()
    Image.fromarray(image, mode="RGB").save(buf, format="PNG")
    write_atomic(path, buf.getvalue())
    return True


def reconstruction_grid(samples):
    """Build the 3-row grid from (gt, prediction, pixel_mask) triples."""
    masked_row, pred_row, gt_row = [], [], []
    for gt, pred, mask in samples:
        masked_row.append(to_display(gt, mask=mask))
        pred_row.append(to_display(pred))
        gt_row.append(to_display(gt))
    return compose_grid([masked_row, pred_row, gt_row])
