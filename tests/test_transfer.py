"""Transfer learning: parameter surgery, task heads, fine-tuning, eval."""

import json
import os
import re

import numpy as np
import pytest

import crossmim.tensor as T
from crossmim.config import ModelConfig
from crossmim.errors import ConfigError
from crossmim.model import init_params
from crossmim.sensors import gen_synthetic, pair_registry, single_registry
from crossmim.training import stream_rng
from crossmim.transfer import (TaskSample, TransferConfig,
                               cross_reconstruction_l1, finetune,
                               finetune_forward, head_input_width,
                               head_output_width, init_transfer_params, make_task,
                               reconstruction_report, task_loss, task_metrics)

MCFG = ModelConfig(width=16, depth=1, heads=2, patch_size=4, image_w=16,
                   image_h=16, mask_unit=8, moe=False)
REG = pair_registry()


def pretrained_table(seed=5):
    return init_params(REG, MCFG, seed)


def dataset(n=4, seed=11):
    return gen_synthetic(REG, n, 16, 16, seed=seed)


# ---------------------------------------------------------------------------
# configuration

def test_transfer_config_validation():
    TransferConfig(mode="channel_stack", head="dense_regression", num_classes=1)
    with pytest.raises(ConfigError):
        TransferConfig(mode="bogus")
    with pytest.raises(ConfigError):
        TransferConfig(head="bogus")
    with pytest.raises(ConfigError):
        TransferConfig(head="multilabel", num_classes=1)


def test_head_widths():
    concat = TransferConfig(mode="shared_encoder_concat", head="multilabel",
                            num_classes=5)
    assert head_input_width(MCFG, concat, 2) == 32
    stack = TransferConfig(mode="channel_stack", head="multilabel")
    assert head_input_width(MCFG, stack, 2) == 16
    assert head_output_width(MCFG, concat) == 5
    dense_r = TransferConfig(head="dense_regression")
    assert head_output_width(MCFG, dense_r) == 16
    dense_c = TransferConfig(head="dense_classification", num_classes=4)
    assert head_output_width(MCFG, dense_c) == 16 * 4


# ---------------------------------------------------------------------------
# parameter surgery

def test_init_transfer_copies_trunk_and_adds_head():
    pre = pretrained_table()
    tcfg = TransferConfig()
    params = init_transfer_params(pre, REG, MCFG, tcfg, (0, 1), seed=9)
    for k in ("shared.pos_embed", "embedder.0.kernel", "embedder.1.bias",
              "encoder.block0.attn.wq"):
        np.testing.assert_array_equal(params[k].data, pre[k].data)
        assert params[k].requires_grad
        assert params[k].data is not pre[k].data  # private copy
    assert params["head.w"].shape == (32, 4)
    assert params["head.b"].shape == (4,)
    assert not any(k.startswith("decoder.") for k in params)


@pytest.mark.parametrize("mode,embedders", [
    ("shared_encoder_concat", ["embedder.0.kernel", "embedder.0.bias",
                               "embedder.1.kernel", "embedder.1.bias"]),
    ("channel_stack", ["transfer.embed.kernel", "transfer.embed.bias"]),
])
def test_init_transfer_key_set(mode, embedders):
    """Transfer never masks, so the table carries no mask token and no
    decoder: the positional table, the encoder, the embedders, the head."""
    pre = pretrained_table()
    params = init_transfer_params(pre, REG, MCFG, TransferConfig(mode=mode), (0, 1), seed=9)
    encoder = [k for k in pre if k.startswith("encoder.")]
    assert list(params) == ["shared.pos_embed", *encoder, *embedders, "head.w", "head.b"]


def test_init_transfer_channel_stack_casts_before_stacking():
    pre = init_params(REG, MCFG, 5, dtype=np.float64)
    for sid in (0, 1):
        pre[f"embedder.{sid}.bias"].data[:] = np.random.default_rng(sid).normal(size=16)
    params = init_transfer_params(pre, REG, MCFG, TransferConfig(mode="channel_stack"),
                                  (0, 1), seed=9)
    expect = (pre["embedder.0.bias"].data.astype(np.float32)
              + pre["embedder.1.bias"].data.astype(np.float32))
    assert params["transfer.embed.bias"].data.dtype == np.float32
    np.testing.assert_array_equal(params["transfer.embed.bias"].data, expect)


def test_init_transfer_frozen_trunk_flags():
    pre = pretrained_table()
    tcfg = TransferConfig(frozen_trunk=True)
    params = init_transfer_params(pre, REG, MCFG, tcfg, (0,), seed=9)
    for k, p in params.items():
        if k.startswith("head."):
            assert p.requires_grad
        else:
            assert not p.requires_grad


def test_init_transfer_channel_stack_fuses_embedders():
    pre = pretrained_table()
    tcfg = TransferConfig(mode="channel_stack")
    params = init_transfer_params(pre, REG, MCFG, tcfg, (0, 1), seed=9)
    assert "embedder.0.kernel" not in params
    assert "embedder.1.kernel" not in params
    fused = params["transfer.embed.kernel"]
    assert fused.shape == (16, 5, 4, 4)  # 2 + 3 channels stacked
    np.testing.assert_array_equal(fused.data[:, :2], pre["embedder.0.kernel"].data)
    np.testing.assert_array_equal(fused.data[:, 2:], pre["embedder.1.kernel"].data)
    np.testing.assert_array_equal(params["transfer.embed.bias"].data,
                                  pre["embedder.0.bias"].data
                                  + pre["embedder.1.bias"].data)


def test_init_transfer_from_scratch_baseline():
    params = init_transfer_params(None, REG, MCFG, TransferConfig(), (0,), seed=9)
    assert "embedder.0.kernel" in params and "head.w" in params
    again = init_transfer_params(None, REG, MCFG, TransferConfig(), (0,), seed=9)
    np.testing.assert_array_equal(params["head.w"].data, again["head.w"].data)


# ---------------------------------------------------------------------------
# forward + loss

def _sample(task_sensors, seed=0):
    ds = dataset(seed=seed)
    r = ds.by_sensor[task_sensors[0]][0]
    images = {task_sensors[0]: ds.image(r.sample_id)}
    if len(task_sensors) > 1:
        partner = ds.partner_record(r)
        images[partner.sensor_id] = ds.image(partner.sample_id)
    return images


def test_forward_shapes_per_mode_and_head():
    pre = pretrained_table()
    cases = [
        (TransferConfig(mode="shared_encoder_concat", head="multilabel",
                        num_classes=3), (0, 1), (3,)),
        (TransferConfig(mode="channel_stack", head="multilabel",
                        num_classes=6), (0, 1), (6,)),
        (TransferConfig(head="dense_regression"), (0,), (1, 16, 16)),
        (TransferConfig(head="dense_classification", num_classes=4), (0,),
         (4, 16, 16)),
    ]
    for tcfg, sensors, out_shape in cases:
        params = init_transfer_params(pre, REG, MCFG, tcfg, sensors, seed=9)
        samples = [TaskSample(images=_sample(sensors, seed=s), label=np.zeros(1))
                   for s in (11, 12)]
        out = finetune_forward(params, MCFG, tcfg, sensors, samples)
        assert out.shape == (2,) + out_shape, (tcfg.mode, tcfg.head)


def test_forward_rejects_missing_sensor():
    pre = pretrained_table()
    tcfg = TransferConfig()
    params = init_transfer_params(pre, REG, MCFG, tcfg, (0, 1), seed=9)
    sample = TaskSample(images={0: np.zeros((2, 16, 16), np.float32)},
                        label=np.zeros(4))
    with pytest.raises(ConfigError, match="missing sensor"):
        finetune_forward(params, MCFG, tcfg, (0, 1), [sample])


def _bce(z, y):
    p = 1.0 / (1.0 + np.exp(-z))
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log1p(-p))))


def test_task_loss_multilabel_matches_manual_mean():
    pre = pretrained_table()
    tcfg = TransferConfig(head="multilabel", num_classes=4)
    params = init_transfer_params(pre, REG, MCFG, tcfg, (0,), seed=9)
    ds = dataset()
    samples = make_task(ds, tcfg, (0,))[:3]
    got = task_loss(params, MCFG, tcfg, (0,), samples)
    expect = np.mean([
        _bce(finetune_forward(params, MCFG, tcfg, (0,), [s]).data[0], s.label)
        for s in samples
    ])
    assert float(got.data) == pytest.approx(expect, rel=1e-5)


def test_task_loss_dense_regression_matches_manual():
    pre = pretrained_table()
    tcfg = TransferConfig(head="dense_regression")
    params = init_transfer_params(pre, REG, MCFG, tcfg, (0,), seed=9)
    samples = make_task(dataset(), tcfg, (0,))[:2]
    got = task_loss(params, MCFG, tcfg, (0,), samples)
    expect = np.mean([
        np.abs(finetune_forward(params, MCFG, tcfg, (0,), [s]).data[0] - s.label).mean()
        for s in samples
    ])
    assert float(got.data) == pytest.approx(expect, rel=1e-5)


def test_task_loss_dense_classification_matches_manual():
    pre = pretrained_table()
    tcfg = TransferConfig(head="dense_classification", num_classes=3)
    params = init_transfer_params(pre, REG, MCFG, tcfg, (0,), seed=9)
    samples = make_task(dataset(), tcfg, (0,))[:2]
    got = task_loss(params, MCFG, tcfg, (0,), samples)
    per = []
    for s in samples:
        out = finetune_forward(params, MCFG, tcfg, (0,), [s]).data[0]
        logits = out.reshape(3, -1).T
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        per.append(-logp[np.arange(logits.shape[0]), s.label.reshape(-1)].mean())
    assert float(got.data) == pytest.approx(np.mean(per), rel=1e-4)


# ---------------------------------------------------------------------------
# task builders

def test_multilabel_task_follows_strip_rule():
    ds = dataset()
    samples = make_task(ds, TransferConfig(head="multilabel", num_classes=4), (0,))
    assert len(samples) == len(ds.by_sensor[0])
    for s in samples:
        img = s.images[0]
        assert set(np.unique(s.label)) <= {0.0, 1.0}
        for k in range(4):
            lo, hi = k * 4, (k + 1) * 4
            expect = 1.0 if img[k % 2, lo:hi, :].mean() > 0 else 0.0
            assert s.label[k] == expect


def test_dense_task_targets():
    ds = dataset()
    reg_samples = make_task(ds, TransferConfig(head="dense_regression"), (0,))
    for s in reg_samples:
        np.testing.assert_allclose(
            s.label, s.images[0].mean(axis=0, keepdims=True), atol=1e-6)
    cls_samples = make_task(ds, TransferConfig(head="dense_classification", num_classes=4),
                            (0,))
    for s in cls_samples:
        assert s.label.shape == (16, 16)
        assert s.label.dtype == np.int64
        assert s.label.min() >= 0 and s.label.max() <= 3
        counts = np.bincount(s.label.reshape(-1), minlength=4)
        assert counts.min() >= 32  # quantile bins stay roughly balanced


def test_multi_sensor_task_uses_colocated_partners():
    ds = dataset()
    samples = make_task(ds, TransferConfig(num_classes=4), (0, 1))
    assert len(samples) == len(ds.by_sensor[0])
    for s in samples:
        assert set(s.images) == {0, 1}
        assert s.images[0].shape == (2, 16, 16)
        assert s.images[1].shape == (3, 16, 16)


def test_task_groups_require_registered_pairing():
    ds = gen_synthetic(single_registry(), 3, 16, 16, seed=1)
    # sensor 0 has no partner, so a two-sensor task cannot be assembled
    reg2 = pair_registry()
    ds2 = gen_synthetic(reg2, 3, 16, 16, seed=1)
    tcfg = TransferConfig(head="multilabel", num_classes=2)
    unpaired = [s for s in make_task(ds, tcfg, (0,))]
    assert unpaired  # single-sensor task on unpaired data works
    with pytest.raises(ConfigError, match="colocated"):
        make_task(gen_synthetic(single_registry(), 3, 16, 16, seed=1), tcfg, (0, 1))
    assert make_task(ds2, tcfg, (0, 1))


# ---------------------------------------------------------------------------
# fine-tuning

def test_finetune_reduces_task_loss(tmp_path):
    ds = dataset(n=6)
    tcfg = TransferConfig(head="dense_regression")
    samples = make_task(ds, tcfg, (0,))
    log = str(tmp_path / "task.log")
    params, losses = finetune(REG, MCFG, tcfg, (0,), samples,
                              pretrained=pretrained_table(), steps=40,
                              lr=3e-3, batch_size=3, seed=2, log_path=log)
    assert len(losses) == 40
    assert np.mean(losses[-5:]) < 0.7 * np.mean(losses[:5])
    logged = [json.loads(ln) for ln in open(log)]
    assert [r["step"] for r in logged] == list(range(40))
    assert "head.w" in params


def test_finetune_frozen_trunk_only_moves_head():
    ds = dataset(n=4)
    tcfg = TransferConfig(head="multilabel", num_classes=4, frozen_trunk=True)
    samples = make_task(ds, tcfg, (0,))
    pre = pretrained_table()
    params, _ = finetune(REG, MCFG, tcfg, (0,), samples, pretrained=pre,
                         steps=10, lr=1e-2, batch_size=4, seed=2)
    for k, p in params.items():
        if k.startswith("head."):
            continue
        np.testing.assert_array_equal(p.data, pre[k].data)
    init_head = init_transfer_params(pre, REG, MCFG, tcfg, (0,), seed=2)["head.w"]
    assert not np.array_equal(params["head.w"].data, init_head.data)


def test_finetune_rejects_negative_seed():
    ds = dataset(n=4)
    tcfg = TransferConfig(head="multilabel", num_classes=2)
    with pytest.raises(ConfigError, match="seed"):
        finetune(REG, MCFG, tcfg, (0,), make_task(ds, tcfg, (0,)), pretrained=None,
                 steps=1, lr=1e-3, batch_size=4, seed=-1)


@pytest.mark.parametrize("arg, key, bad", [
    ("steps", "transfer.steps", 0), ("lr", "transfer.lr", 0.0),
    ("lr", "transfer.lr", float("nan")), ("batch_size", "transfer.batch", 0)])
def test_finetune_rejects_bad_arguments_by_transfer_key(arg, key, bad):
    ds = dataset(n=4)
    tcfg = TransferConfig(head="multilabel", num_classes=2)
    kwargs = dict(steps=1, lr=1e-3, batch_size=4, seed=2)
    kwargs[arg] = bad
    with pytest.raises(ConfigError, match="^" + re.escape(key) + " must be"):
        finetune(REG, MCFG, tcfg, (0,), make_task(ds, tcfg, (0,)), pretrained=None, **kwargs)


def test_finetune_from_scratch_baseline_runs():
    ds = dataset(n=4)
    tcfg = TransferConfig(head="multilabel", num_classes=2)
    samples = make_task(ds, tcfg, (0,))
    params, losses = finetune(REG, MCFG, tcfg, (0,), samples, pretrained=None,
                              steps=5, lr=1e-3, batch_size=4, seed=2)
    assert len(losses) == 5 and np.all(np.isfinite(losses))


def test_task_metrics_keys_and_ranges():
    pre = pretrained_table()
    ds = dataset()
    for head, key in (("multilabel", "map"), ("dense_regression", "mae"),
                      ("dense_classification", "miou")):
        tcfg = TransferConfig(head=head, num_classes=4)
        params = init_transfer_params(pre, REG, MCFG, tcfg, (0,), seed=9)
        samples = make_task(ds, tcfg, (0,))
        scores = task_metrics(params, MCFG, tcfg, (0,), samples)
        assert set(scores) == {key}
        assert np.isfinite(scores[key])
        if key in ("map", "miou"):
            assert 0.0 <= scores[key] <= 1.0


# ---------------------------------------------------------------------------
# reconstruction evaluation

def test_reconstruction_report_structure():
    ds = dataset(n=3)
    params = pretrained_table()
    report = reconstruction_report(params, MCFG, ds, ds.records,
                                   stream_rng(1, 99))
    assert set(report) == {0, 1}
    for sid, entry in report.items():
        assert entry["masked_l1"] > 0
        assert np.isfinite(entry["mae"])
        assert np.isfinite(entry["psnr"])
        assert -1.0 <= entry["ssim"] <= 1.0
        assert "sam_deg" in entry  # both sensors are multichannel


def test_cross_reconstruction_l1_paired_vs_unpaired():
    ds = dataset(n=3)
    params = pretrained_table()
    val = cross_reconstruction_l1(params, MCFG, ds, ds.records, stream_rng(1, 99))
    assert val is not None and val > 0
    solo_reg = single_registry()
    solo = gen_synthetic(solo_reg, 3, 16, 16, seed=1)
    solo_params = init_params(solo_reg, MCFG, 5)
    assert cross_reconstruction_l1(solo_params, MCFG, solo, solo.records,
                                   stream_rng(1, 99)) is None
