"""Evaluation metrics against brute-force oracles and identity cases."""

import math

import numpy as np
import pytest
from scipy import ndimage

from crossmim.errors import NumericError, ShapeError
from crossmim.metrics import (average_precision, gaussian_band, iou_per_class, mae, map_score,
                              mean_iou, psnr, sam_degrees, ssi, ssim)

import oracles


# ---------------------------------------------------------------------------
# ranking metrics

def test_average_precision_known_values():
    # ranking: pos, neg, pos -> AP = (1 + 2/3) / 2
    assert average_precision([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6)
    assert average_precision([0.9, 0.1], [1, 0]) == 1.0
    assert average_precision([0.1, 0.9], [1, 0]) == 0.5


def test_average_precision_matches_naive(rng):
    for trial in range(50):
        r = np.random.default_rng(trial)
        n = int(r.integers(3, 40))
        scores = r.normal(size=n)
        labels = r.random(n) < 0.4
        if not labels.any():
            labels[int(r.integers(n))] = True
        got = average_precision(scores, labels)
        assert abs(got - oracles.ap_naive(scores, labels)) < 1e-6


def test_average_precision_tie_break_is_stable(rng):
    scores = np.array([0.5, 0.5, 0.5])
    # equal scores keep original order: positive first -> perfect AP
    assert average_precision(scores, [1, 0, 0]) == 1.0
    assert average_precision(scores, [0, 0, 1]) == pytest.approx(1 / 3)


def test_average_precision_errors():
    with pytest.raises(NumericError):
        average_precision([0.1, 0.2], [0, 0])
    with pytest.raises(ShapeError):
        average_precision([0.1, 0.2], [0, 1, 1])


def test_map_matches_naive_and_skips_empty_classes(rng):
    for trial in range(20):
        r = np.random.default_rng(100 + trial)
        scores = r.normal(size=(12, 4))
        labels = (r.random((12, 4)) < 0.3).astype(int)
        labels[:, 0] = 0  # classes without positives are skipped, not scored
        if not labels[:, 1:].sum():
            labels[0, 1] = 1
        assert map_score(scores, labels) == pytest.approx(
            oracles.map_naive(scores, labels), abs=1e-9)


def test_map_errors():
    with pytest.raises(NumericError):
        map_score(np.ones((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        map_score(np.ones((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        map_score(np.ones(3), np.zeros(3))


# ---------------------------------------------------------------------------
# segmentation metrics

def test_iou_known_values():
    pred = np.array([[0, 0], [1, 1]])
    gt = np.array([[0, 1], [1, 1]])
    per = iou_per_class(pred, gt, 2)
    assert per[0] == pytest.approx(1 / 2)
    assert per[1] == pytest.approx(2 / 3)
    assert mean_iou(pred, gt, 2) == pytest.approx((1 / 2 + 2 / 3) / 2)


def test_mean_iou_matches_naive(rng):
    for trial in range(20):
        r = np.random.default_rng(200 + trial)
        pred = r.integers(0, 4, size=(9, 9))
        gt = r.integers(0, 4, size=(9, 9))
        assert mean_iou(pred, gt, 4) == pytest.approx(
            oracles.miou_naive(pred, gt, 4), abs=1e-9)


def test_mean_iou_skips_absent_classes_and_errors():
    pred = np.zeros((4, 4), dtype=int)
    gt = np.zeros((4, 4), dtype=int)
    assert mean_iou(pred, gt, 5) == 1.0  # only class 0 present, IoU 1
    with pytest.raises(ShapeError):
        mean_iou(pred, gt[:2], 5)
    with pytest.raises(ShapeError):
        mean_iou(pred, gt, 1)


# ---------------------------------------------------------------------------
# reconstruction metrics

def test_mae_psnr_match_naive(rng):
    a = rng.normal(size=(3, 8, 8))
    b = rng.normal(size=(3, 8, 8))
    assert mae(a, b) == pytest.approx(oracles.mae_naive(a, b), abs=1e-12)
    assert psnr(a, b, 2.0) == pytest.approx(oracles.psnr_naive(a, b, 2.0), abs=1e-9)


def test_psnr_identity_and_errors(rng):
    a = rng.normal(size=(4, 4))
    assert psnr(a, a.copy(), 1.0) == math.inf
    with pytest.raises(ShapeError):
        psnr(a, a, 0.0)
    with pytest.raises(ShapeError):
        mae(a, a[:2])


@pytest.mark.parametrize("n,sigma,radius", [
    (8, 1.0, 4), (8, 4.0, 16), (12, 1.5, 5), (16, 2.0, 8), (16, 8.0, 32),
    (32, 4.0, 16), (40, 2.5, 1), (64, 8.0, 32), (64, 1.5, 6),
])
def test_gaussian_band_blur_matches_scipy_reflect_filter(n, sigma, radius):
    """band_w @ x @ band_h.T is SciPy's reflect-edged Gaussian filter, also
    when the radius exceeds the axis; measured worst 2.5e-16."""
    x = np.random.default_rng(n).standard_normal((3, n, 2 * n))
    got = gaussian_band(n, sigma, radius) @ x @ gaussian_band(2 * n, sigma, radius).T
    ref = ndimage.gaussian_filter(x, (0, sigma, sigma), mode="reflect", radius=(0, radius, radius))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)


def test_ssim_identity_is_one(rng):
    a = rng.random((3, 16, 16))
    assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-12)


def test_ssim_matches_naive_window_loops(rng):
    for shape in ((12, 12), (3, 16, 16)):
        a = rng.random(shape)
        b = np.clip(a + rng.normal(size=shape) * 0.1, 0, 1)
        assert ssim(a, b) == pytest.approx(oracles.ssim_naive(a, b, 1.0), abs=1e-9)


def test_ssim_shrinks_window_on_small_images(rng):
    a, b = rng.random((6, 6)), rng.random((6, 6))
    # 11 doesn't fit a 6x6 image; largest odd window is 5
    assert ssim(a, b) == pytest.approx(
        oracles.ssim_naive(a, b, 1.0, window=5), abs=1e-9)
    with pytest.raises(ShapeError):
        ssim(np.ones((1, 0, 5)), np.ones((1, 0, 5)))


def test_ssim_degrades_with_noise(rng):
    a = rng.random((16, 16))
    noisy = np.clip(a + rng.normal(size=(16, 16)) * 0.3, 0, 1)
    assert ssim(a, noisy) < ssim(a, a.copy())


def test_sam_matches_naive_and_identity(rng):
    a = rng.random((5, 8, 8)) + 0.1
    b = rng.random((5, 8, 8)) + 0.1
    assert sam_degrees(a, b) == pytest.approx(oracles.sam_naive(a, b), abs=1e-6)
    assert sam_degrees(a, a.copy()) == 0.0  # chord form is exact at zero angle
    assert sam_degrees(a, 3.0 * a) == pytest.approx(0.0, abs=1e-10)  # scale invariant


def test_sam_orthogonal_is_ninety_degrees():
    a = np.zeros((2, 1, 1))
    b = np.zeros((2, 1, 1))
    a[0], b[1] = 1.0, 1.0
    assert sam_degrees(a, b) == pytest.approx(90.0)


def test_sam_errors(rng):
    a = rng.random((3, 4, 4))
    with pytest.raises(NumericError):
        sam_degrees(a, np.zeros_like(a))
    with pytest.raises(ShapeError):
        sam_degrees(a[0], a[0])


def test_ssi_matches_naive_and_identity(rng):
    o = rng.random((4, 8, 8)) + 0.5
    f = o + rng.normal(size=o.shape) * 0.05
    np.testing.assert_allclose(ssi(o, f), oracles.ssi_naive(o, f), atol=1e-12)
    np.testing.assert_allclose(ssi(o, o.copy()), np.ones(4))


def test_ssi_errors(rng):
    o = rng.random((2, 4, 4)) + 0.5
    balanced = np.ones((2, 4, 4))
    balanced[:, :, :2] = -1.0  # mean exactly zero per band
    with pytest.raises(NumericError):
        ssi(balanced, o)
    with pytest.raises(NumericError):
        ssi(o, balanced)
    with pytest.raises(NumericError):
        ssi(np.ones_like(o), o)  # zero variance original
    with pytest.raises(ShapeError):
        ssi(o[0], o[0])


# ---------------------------------------------------------------------------
# randomized agreement sweep in one go, mirroring how evaluation uses them

def test_metric_suite_agrees_with_oracles_on_random_images():
    for trial in range(10):
        r = np.random.default_rng(300 + trial)
        a = r.random((14, 8, 8)) + 0.1
        b = np.clip(a + r.normal(size=a.shape) * 0.1, 0.01, None)
        assert mae(a, b) == pytest.approx(oracles.mae_naive(a, b), abs=1e-6)
        assert psnr(a, b, 1.0) == pytest.approx(
            oracles.psnr_naive(a, b, 1.0), abs=1e-6)
        assert ssim(a, b) == pytest.approx(oracles.ssim_naive(a, b, 1.0), abs=1e-6)
        assert sam_degrees(a, b) == pytest.approx(oracles.sam_naive(a, b), abs=1e-6)
        np.testing.assert_allclose(ssi(a, b), oracles.ssi_naive(a, b), atol=1e-6)
