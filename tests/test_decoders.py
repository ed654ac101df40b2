"""Pixel decoders, cross/self target selection, masked reconstruction loss."""

import numpy as np
import pytest

import crossmim.tensor as T
from crossmim.config import ModelConfig
from crossmim.decoders import (ReconstructionPlan, choose_targets, decode,
                               reconstruction_loss)
from crossmim.errors import ShapeError
from crossmim.masking import draw_mask, to_pixel_mask
from crossmim.sensors import gen_synthetic, pair_registry, single_registry

import oracles
from test_tensor import check_op, weighted

# width 8, 4x4 patches over 8x8 images: 4 tokens per image
CFG = ModelConfig(width=8, heads=2, patch_size=4, image_w=8, image_h=8, mask_unit=4)


def make_params(rng, sensor_id=0, width=8, channels=3, patch=4, dtype=np.float64):
    out = patch * patch * channels
    return {
        f"decoder.{sensor_id}.proj": T.Tensor(rng.normal(size=(out, width)), dtype=dtype,
                                              requires_grad=True),
        f"decoder.{sensor_id}.bias": T.Tensor(rng.normal(size=out), dtype=dtype,
                                              requires_grad=True),
    }


def test_decode_matches_explicit_projection(rng):
    params = make_params(rng, sensor_id=1)
    feats = rng.normal(size=(2, 4, 8))
    out = decode(T.Tensor(feats, dtype=np.float64), params, 1, CFG)
    assert out.shape == (2, 3, 8, 8)
    tokens = feats @ params["decoder.1.proj"].data.T + params["decoder.1.bias"].data
    expect = T.unpatchify(T.Tensor(tokens, dtype=np.float64), 4, 3, 8, 8)
    np.testing.assert_allclose(out.data, expect.data, rtol=1e-12)


def test_decode_rejects_wrong_feature_width(rng):
    params = make_params(rng, width=8)
    with pytest.raises(ShapeError, match=r"expects \(B, L, 8\) features"):
        decode(T.Tensor(np.ones((1, 4, 5))), params, 0, CFG)


def test_decode_gradients(rng):
    feats = rng.normal(size=(2, 4, 8))
    proj = rng.normal(size=(48, 8))
    bias = rng.normal(size=48)

    def build(f, p, b):
        return weighted(decode(f, {"decoder.0.proj": p, "decoder.0.bias": b}, 0, CFG))

    check_op(build, feats, proj, bias)


def _plans_setup(seed=3):
    reg = pair_registry()
    ds = gen_synthetic(reg, 4, 16, 16, seed=seed)
    mask_rng = np.random.default_rng(1)
    return ds, [draw_mask(16, 16, 8, 0.6, mask_rng) for _ in ds.records]


def test_choose_targets_all_self_at_zero(rng):
    ds, masks = _plans_setup()
    plans = choose_targets(ds.records, ds, masks, 0.0, rng)
    assert all(not p.is_cross for p in plans)
    for p, r, mask in zip(plans, ds.records, masks):
        assert p.sample_id == r.sample_id
        assert p.target_sensor == r.sensor_id
        np.testing.assert_array_equal(p.target_image, ds.image(r.sample_id))
        np.testing.assert_array_equal(p.pixel_loss_mask,
                                      to_pixel_mask(mask))


def test_choose_targets_all_cross_at_one(rng):
    ds, masks = _plans_setup()
    plans = choose_targets(ds.records, ds, masks, 1.0, rng)
    assert all(p.is_cross for p in plans)
    for p, r, mask in zip(plans, ds.records, masks):
        partner = ds.partner_record(r)
        assert p.target_sensor == partner.sensor_id
        np.testing.assert_array_equal(p.target_image, ds.image(partner.sample_id))
        # loss footprint stays on the SOURCE's mask either way
        np.testing.assert_array_equal(p.pixel_loss_mask,
                                      to_pixel_mask(mask))


def test_choose_targets_unpaired_never_consume_a_draw():
    ds = gen_synthetic(single_registry(), 5, 16, 16, seed=2)
    mask_rng = np.random.default_rng(1)
    masks = [draw_mask(16, 16, 8, 0.6, mask_rng) for _ in ds.records]
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    plans = choose_targets(ds.records, ds, masks, 0.9, rng)
    assert rng.bit_generator.state == before  # stream untouched
    assert all(not p.is_cross for p in plans)


def test_choose_targets_one_draw_per_paired_record():
    ds, masks = _plans_setup()
    rng = np.random.default_rng(9)
    ref = np.random.default_rng(9)
    plans = choose_targets(ds.records, ds, masks, 0.5, rng)
    expect = [ref.random() < 0.5 for _ in ds.records]
    assert [p.is_cross for p in plans] == expect
    assert rng.bit_generator.state == ref.bit_generator.state


def test_choose_targets_rate_approaches_p_cross():
    ds, masks = _plans_setup()
    rng = np.random.default_rng(0)
    crossed = 0
    for _ in range(500):
        crossed += sum(p.is_cross for p in choose_targets(ds.records, ds, masks, 0.3, rng))
    rate = crossed / (500 * len(ds.records))
    assert abs(rate - 0.3) < 0.03


def test_choose_targets_rejects_bad_probability(rng):
    ds, masks = _plans_setup()
    with pytest.raises(ShapeError):
        choose_targets(ds.records, ds, masks, -0.1, rng)
    with pytest.raises(ShapeError):
        choose_targets(ds.records, ds, masks, 1.5, rng)


def test_reconstruction_loss_matches_naive(rng):
    target = rng.normal(size=(3, 8, 8)).astype(np.float64)
    pred = rng.normal(size=(3, 8, 8))
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4, 4:] = True
    plan = ReconstructionPlan(0, 0, 0, target, mask)
    out = reconstruction_loss(T.Tensor(pred, dtype=np.float64), plan)
    np.testing.assert_allclose(float(out.data),
                               oracles.masked_l1_naive(pred, target, mask),
                               rtol=1e-12)
    check_op(lambda p: reconstruction_loss(p, plan), pred)


def test_reconstruction_loss_validation(rng):
    target = rng.normal(size=(3, 8, 8)).astype(np.float64)
    mask = np.ones((8, 8), dtype=bool)
    plan = ReconstructionPlan(0, 0, 0, target, mask)
    with pytest.raises(ShapeError):
        reconstruction_loss(T.Tensor(np.ones((2, 8, 8))), plan)
    empty = ReconstructionPlan(0, 0, 0, target, np.zeros((8, 8), dtype=bool))
    with pytest.raises(ShapeError, match="no pixels"):
        reconstruction_loss(T.Tensor(target), empty)


def test_reconstruction_loss_ignores_visible_pixels(rng):
    target = rng.normal(size=(2, 8, 8)).astype(np.float64)
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = True
    pred = target.copy()
    pred[:, 4:, :] += 100.0  # garbage outside the mask must not matter
    plan = ReconstructionPlan(0, 0, 0, target, mask)
    out = reconstruction_loss(T.Tensor(pred, dtype=np.float64), plan)
    assert float(out.data) == 0.0
