"""Image and classification metrics, computed in float64 numpy.

Conventions documented once here:

- mAP is the macro mean of per-class average precision using all-points
  interpolation (the precision envelope); classes without a single positive
  label are skipped.  Ranking ties break by ascending original index.
- PSNR returns math.inf when the images are identical (MSE = 0); callers
  render it as a sentinel rather than capping.
- SSIM uses a Gaussian window fixed at 11x11 and sigma 1.5 over valid
  window positions only; on images smaller than the window, the window
  shrinks to the largest odd size that fits.
- SSI is per band: the coefficient of variation of the filtered image over
  that of the original; 1 means speckle statistics are preserved.
"""

import math

import numpy as np

from .errors import NumericError, ShapeError

# SSIM's Gaussian window: side length and standard deviation, in pixels
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5


def _as64(x):
    return np.asarray(x, dtype=np.float64)


def average_precision(scores, labels):
    """All-points-interpolated AP for one class of a ranking problem."""
    scores = _as64(scores).reshape(-1)
    labels = np.asarray(labels).reshape(-1).astype(bool)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores {scores.shape} vs labels {labels.shape}")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise NumericError("average precision undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    hits = labels[order]
    tp = np.cumsum(hits)
    ranks = np.arange(1, len(scores) + 1)
    precision = tp / ranks
    recall = tp / n_pos
    # precision envelope: at each rank, the best precision at >= this recall
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * envelope))


def map_score(scores, labels):
    """Macro mAP over classes of (N, K) score/label matrices; classes with
    no positives are skipped."""
    scores, labels = _as64(scores), np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ShapeError(f"expected matching (N, K) matrices, got {scores.shape} / {labels.shape}")
    aps = [
        average_precision(scores[:, k], labels[:, k])
        for k in range(scores.shape[1])
        if labels[:, k].sum() > 0
    ]
    if not aps:
        raise NumericError("mAP undefined: no class has a positive label")
    return float(np.mean(aps))


def iou_per_class(pred, gt, num_classes):
    """IoU of every class present in prediction or ground truth."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"pred {pred.shape} vs gt {gt.shape}")
    if num_classes < 2:
        raise ShapeError(f"need at least 2 classes, got {num_classes}")
    per_class = {}
    for k in range(num_classes):
        p, g = pred == k, gt == k
        union = int(np.logical_or(p, g).sum())
        if union == 0:
            continue
        per_class[k] = int(np.logical_and(p, g).sum()) / union
    return per_class


def mean_iou(pred, gt, num_classes):
    """Mean over classes of TP/(TP+FP+FN); classes absent from both
    prediction and ground truth are skipped."""
    per_class = iou_per_class(pred, gt, num_classes)
    if not per_class:
        raise NumericError("mIoU undefined: no class present")
    return float(np.mean(list(per_class.values())))


def mae(a, b):
    a, b = _as64(a), _as64(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def psnr(a, b, max_val):
    if max_val <= 0:
        raise ShapeError(f"max_val must be positive, got {max_val}")
    a, b = _as64(a), _as64(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return float(10.0 * math.log10(max_val * max_val / mse))


def gaussian_band(n, sigma, radius):
    """(n, n) matrix whose row i applies the normalised Gaussian of `sigma`,
    cut at `radius`, around pixel i of an axis, with SciPy's `reflect` edges
    (d c b a | a b c d | d c b a) folded in, so any radius works."""
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    cols = (np.arange(n)[:, None] + coords.astype(np.intp)) % (2 * n)
    band = np.zeros((n, n))
    np.add.at(band, (np.arange(n)[:, None], np.minimum(cols, 2 * n - 1 - cols)), g / g.sum())
    return band


def ssim(a, b, max_val=1.0):
    """Mean structural similarity over valid Gaussian windows and channels.

    Accepts (W, H) or (C, W, H) arrays.  C1 = (0.01 max)^2, C2 = (0.03 max)^2.
    """
    if max_val <= 0:
        raise ShapeError(f"max_val must be positive, got {max_val}")
    a, b = _as64(a), _as64(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a, b = a[None], b[None]
    if a.ndim != 3:
        raise ShapeError(f"ssim expects (W,H) or (C,W,H), got {a.shape}")
    _, w, h = a.shape
    r = (min(_SSIM_WINDOW, w, h) - 1) // 2  # radius of the largest odd window that fits
    if r < 0:
        raise ShapeError(f"image {w}x{h} too small for any ssim window")
    # a band's interior rows take the window at every valid offset
    band_w, band_h = (gaussian_band(n, _SSIM_SIGMA, r)[r:n - r] for n in (w, h))
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    stack = np.stack([a, b, a * a, b * b, a * b])  # (5, C, W, H)
    mu_a, mu_b, ea, eb, eab = band_w @ stack @ band_h.T  # filter along W, then H
    var_a = ea - mu_a * mu_a
    var_b = eb - mu_b * mu_b
    cov = eab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def sam_degrees(a, b):
    """Mean spectral angle in degrees between per-pixel channel vectors of
    two (C, W, H) images."""
    a, b = _as64(a), _as64(b)
    if a.shape != b.shape or a.ndim != 3:
        raise ShapeError(f"sam expects matching (C,W,H), got {a.shape} / {b.shape}")
    na = np.sqrt((a * a).sum(axis=0))
    nb = np.sqrt((b * b).sum(axis=0))
    if np.any(na == 0) or np.any(nb == 0):
        raise NumericError("spectral angle undefined for zero-norm pixel vectors")
    # angle via the chord between unit vectors: equal to arccos of the
    # clipped cosine but exact at 0 degrees and better conditioned near it
    u, v = a / na, b / nb
    chord = np.sqrt(((u - v) ** 2).sum(axis=0))
    angles = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return float(np.degrees(angles).mean())


def ssi(original, filtered):
    """Per-band speckle suppression index: (sigma_f/mu_f) / (sigma_o/mu_o)."""
    o, f = _as64(original), _as64(filtered)
    if o.shape != f.shape or o.ndim != 3:
        raise ShapeError(f"ssi expects matching (C,W,H), got {o.shape} / {f.shape}")
    mu_o = o.mean(axis=(1, 2))
    mu_f = f.mean(axis=(1, 2))
    if np.any(mu_o == 0):
        raise NumericError("SSI undefined: original band has zero mean")
    if np.any(mu_f == 0):
        raise NumericError("SSI undefined: filtered band has zero mean")
    cv_o = o.std(axis=(1, 2)) / np.abs(mu_o)
    cv_f = f.std(axis=(1, 2)) / np.abs(mu_f)
    if np.any(cv_o == 0):
        raise NumericError("SSI undefined: original band has zero variance")
    return cv_f / cv_o
