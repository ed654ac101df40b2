"""System-level acceptance checks, one test per promise the package makes.

Each test pins a tolerance and enforces its own wall-clock budget:

  1. every gradient of the full pretraining loss matches finite differences
  2. 200 training steps at least halve the masked-reconstruction loss
  3. 500 steps shrink cross-sensor reconstruction error for three seeds
  4. masking invariants hold over an exhaustive geometry sweep
  5. expert routing conserves tokens, bounds capacity, matches an oracle
  6. every metric tracks its naive-loop oracle to 1e-6 plus identity cases
  7. the multisensor loop degenerates bitwise to a single-sensor baseline
  8. the ablation harness emits the full {routing} x {cross rate} table
  9. checkpoints, resumption and manifests round-trip bitwise
"""

import json
import math
import time

import numpy as np
import pytest

import crossmim.checkpoint as ckpt
import crossmim.model
import crossmim.tensor as T
from crossmim.cli import STREAM_EVAL, main
from crossmim.config import ModelConfig
from crossmim.encoder import expert_capacity, moe_forward
from crossmim.masking import (draw_mask, masked_unit_count, to_pixel_mask,
                              to_token_mask)
from crossmim.metrics import (mae, map_score, mean_iou, psnr, sam_degrees,
                              ssi, ssim)
from crossmim.model import init_params, reconstruct_sample, round_loss
from crossmim.sensors import (MultisensorBatch, desk_registry, gen_synthetic,
                              load_manifest, pair_registry, save_manifest,
                              single_registry)
from crossmim.training import (STREAM_CROSS, STREAM_DATA, STREAM_MASK,
                               TrainConfig, Trainer, stream_rng)
from crossmim.transfer import cross_reconstruction_l1

import oracles


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    registry = pair_registry()
    dataset = gen_synthetic(registry, 4, 16, 16, seed=11)
    mcfg = ModelConfig(width=8, depth=2, heads=2, patch_size=4, image_w=16,
                       image_h=16, mask_unit=8, moe=True, num_experts=2,
                       ffn_mult=2)
    params = init_params(registry, mcfg, 3, dtype=np.float64)
    batch = MultisensorBatch(
        per_sensor={0: dataset.by_sensor[0][:2], 1: dataset.by_sensor[1][:2]},
        round_index=0,
    )

    def loss_value():
        # fresh draw streams per evaluation keep masks and targets frozen
        total, _, _ = round_loss(params, mcfg, dataset, batch,
                                 stream_rng(1, STREAM_MASK),
                                 stream_rng(1, STREAM_CROSS))
        return float(total.data)

    with T.fresh_tape():
        total, stats, _ = round_loss(params, mcfg, dataset, batch,
                                     stream_rng(1, STREAM_MASK),
                                     stream_rng(1, STREAM_CROSS))
        T.backward(total)
    assert stats["cross_samples"] > 0 and stats["self_samples"] > 0
    analytic = {}
    for name, p in params.items():
        assert p.grad is not None, f"{name} received no gradient"
        analytic[name] = p.grad.copy()
        p.grad = None

    h = 1e-5
    checked = 0
    failures = []
    with T.no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            grad = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = loss_value()
                flat[i] = orig - h
                f_minus = loss_value()
                flat[i] = orig
                fd = (f_plus - f_minus) / (2.0 * h)
                if abs(grad[i] - fd) > 1e-3 * max(abs(grad[i]), abs(fd)) + 1e-8:
                    failures.append((name, i, grad[i], fd))
                checked += 1
    assert checked > 2000
    assert failures == [], failures[:10]
    assert time.monotonic() - start < 60.0


def _signal_model():
    return ModelConfig(width=64, depth=2, heads=4, patch_size=4, image_w=16,
                       image_h=16, mask_unit=8, mask_ratio=0.6, moe=True,
                       num_experts=2, capacity_factor=1.25, aux_weight=0.01,
                       ffn_mult=8, p_cross=0.5)


def test_criterion_2_learning_signal():
    start = time.monotonic()
    dataset = gen_synthetic(pair_registry(), 4, 16, 16, seed=21)
    tcfg = TrainConfig(seed=13, base_batch=4, base_lr=1e-2, epochs=200,
                       warmup_epochs=20, warmup_lr=1e-4, milestones=(),
                       weight_decay=0.05)
    trainer = Trainer(dataset, _signal_model(), tcfg)
    mim = []
    for _ in range(200):
        metrics = trainer.train_step()
        mim.append(sum(v["mim"] for v in metrics["sensors"].values()))
    assert mim[-1] < 0.5 * mim[0], (mim[0], mim[-1])
    assert time.monotonic() - start < 300.0


def test_criterion_3_cross_sensor_signal():
    start = time.monotonic()
    dataset = gen_synthetic(pair_registry(), 4, 16, 16, seed=21)
    mcfg = _signal_model()
    records = list(dataset.records)
    for seed in (1, 2, 3):
        tcfg = TrainConfig(seed=seed, base_batch=4, base_lr=1e-2, epochs=500,
                           warmup_epochs=20, warmup_lr=1e-4, milestones=(),
                           weight_decay=0.05)
        trainer = Trainer(dataset, mcfg, tcfg)
        before = cross_reconstruction_l1(trainer.state.params, mcfg, dataset,
                                         records, stream_rng(seed, STREAM_EVAL))
        for _ in range(500):
            trainer.train_step()
        after = cross_reconstruction_l1(trainer.state.params, mcfg, dataset,
                                        records, stream_rng(seed, STREAM_EVAL))
        assert after < 0.7 * before, (seed, before, after)
    assert time.monotonic() - start < 600.0


def test_criterion_4_masking_invariants(monkeypatch):
    start = time.monotonic()
    rng = np.random.default_rng(99)
    # exact clamped counts over every divisible (W, H, unit, ratio) combination
    for w in (16, 32, 64):
        for h in (16, 32, 64):
            for unit in (8, 16, 32):
                if w % unit or h % unit:
                    continue
                total = (w // unit) * (h // unit)
                if total < 2:  # a plan must keep both masked and visible units
                    continue
                for ratio in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
                    expected = min(max(int(round(ratio * total)), 1), total - 1)
                    assert masked_unit_count(total, ratio) == expected
                    plan = draw_mask(w, h, unit, ratio, rng)
                    assert plan.units_masked == expected
                    assert plan.grid.shape == (w // unit, h // unit)
                    assert to_pixel_mask(plan).sum() == expected * unit * unit

    # channel consistency: one plan per sample, no channel axis anywhere
    calls = []
    real_draw = crossmim.model.draw_mask

    def counting(w, h, unit, ratio, r):
        calls.append((w, h))
        return real_draw(w, h, unit, ratio, r)

    monkeypatch.setattr(crossmim.model, "draw_mask", counting)
    registry = desk_registry()
    dataset = gen_synthetic(registry, 2, 16, 16, seed=5)
    mcfg = ModelConfig(width=8, depth=1, heads=2, patch_size=4, image_w=16,
                       image_h=16, mask_unit=8, moe=False)
    params = init_params(registry, mcfg, 0)
    batch = MultisensorBatch(per_sensor=dict(dataset.by_sensor), round_index=0)
    with T.no_grad():
        round_loss(params, mcfg, dataset, batch,
                   stream_rng(0, STREAM_MASK), stream_rng(0, STREAM_CROSS))
    assert len(calls) == len(dataset)
    monkeypatch.undo()

    # paired sensors draw independent plans: near-zero coincidence
    shared = stream_rng(123, STREAM_MASK)
    coincide = 0
    for _ in range(1000):
        a = draw_mask(32, 32, 8, 0.6, shared)
        b = draw_mask(32, 32, 8, 0.6, shared)
        coincide += int(np.array_equal(a.grid, b.grid))
    assert coincide / 1000 < 0.01
    assert time.monotonic() - start < 30.0


def _expert(rng, width, hidden):
    return {
        "w1": T.constant(rng.standard_normal((width, hidden)) * 0.5),
        "b1": T.constant(rng.standard_normal(hidden) * 0.1),
        "w2": T.constant(rng.standard_normal((hidden, width)) * 0.5),
        "b2": T.constant(rng.standard_normal(width) * 0.1),
    }


def test_criterion_5_moe_routing():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    width, n_experts = 16, 8
    bank = [_expert(rng, width, 32) for _ in range(n_experts)]
    for _ in range(200):
        n_tok = int(rng.integers(8, 257))
        x = T.constant(rng.standard_normal((n_tok, width)))
        gate_w = T.constant(rng.standard_normal((width, n_experts)))
        with T.no_grad():
            _, _, report = moe_forward(x, gate_w, bank, 1.25)
        cap = int(math.floor(1.25 * n_tok / n_experts))
        assert expert_capacity(n_tok, n_experts, 1.25) == cap
        assert max(report.expert_counts) <= cap
        assert sum(report.expert_counts) + report.dropped == n_tok

    # uniform gating scores exactly 1.0
    x = T.constant(rng.standard_normal((24, width)))
    with T.no_grad():
        _, aux, _ = moe_forward(x, T.constant(np.zeros((width, n_experts))),
                                bank, 1.25)
    assert float(aux.data) == 1.0

    # hand-built 4-token / 2-expert dispatch, bit-for-bit against the oracle
    x = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],      # tie -> expert 0
        [-0.5, 0.1, -0.4, 0.2, -0.6, 0.3, -0.5, -0.2],  # sum < 0 -> expert 0
        [0.3, -0.8, 0.2, -0.7, 0.1, -0.6, 0.4, -0.5],   # expert 0, over capacity
        [0.6, 0.2, 0.5, 0.1, 0.4, 0.3, 0.2, 0.1],       # sum > 0 -> expert 1
    ])
    r77 = np.random.default_rng(77)
    col = r77.standard_normal(8)
    gate = np.stack([col, col + 0.3], axis=1)
    pair = [_expert(r77, 8, 16) for _ in range(2)]
    with T.no_grad():
        combined, aux, report = moe_forward(T.constant(x), T.constant(gate),
                                            pair, 1.25)
    raw = [{k: v.data for k, v in e.items()} for e in pair]
    ref_combined, ref_aux, ref_counts, ref_dropped = oracles.moe_dispatch_naive(
        x, gate, raw, 1.25)
    assert report.expert_counts == (2, 1) and report.dropped == 1
    assert (combined.data[2] == 0.0).all()  # the dropped token rides the residual
    assert np.array_equal(combined.data, ref_combined)
    assert float(aux.data) == ref_aux
    assert report.expert_counts == ref_counts
    assert report.dropped == len(ref_dropped)
    assert time.monotonic() - start < 30.0


def test_criterion_6_metric_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.uniform(0.05, 1.0, size=(14, 8, 8))
        b = np.clip(a + rng.normal(0.0, 0.1, size=a.shape), 0.01, 1.2)
        assert abs(mae(a, b) - oracles.mae_naive(a, b)) < 1e-6
        assert abs(psnr(a, b, 1.0) - oracles.psnr_naive(a, b, 1.0)) < 1e-6
        assert abs(ssim(a, b, max_val=1.0)
                   - oracles.ssim_naive(a, b, 1.0, window=7)) < 1e-6
        assert abs(sam_degrees(a, b) - oracles.sam_naive(a, b)) < 1e-6
        assert np.max(np.abs(ssi(a, b) - oracles.ssi_naive(a, b))) < 1e-6
        scores = rng.normal(size=(8, 14))
        labels = (rng.random(size=(8, 14)) < 0.4).astype(np.int64)
        assert abs(map_score(scores, labels)
                   - oracles.map_naive(scores, labels)) < 1e-6
        pred = rng.integers(0, 14, size=(8, 8))
        gt = rng.integers(0, 14, size=(8, 8))
        assert abs(mean_iou(pred, gt, 14) - oracles.miou_naive(pred, gt, 14)) < 1e-6

    # identity cases: (psnr, miou, sam, mae, ssim, ssi) = (inf, 1, 0 deg, 0, 1, 1)
    a = rng.uniform(0.1, 1.0, size=(14, 8, 8))
    assert mae(a, a) == 0.0
    assert psnr(a, a, 1.0) == math.inf
    assert ssim(a, a.copy(), max_val=1.0) == 1.0
    assert sam_degrees(a, a.copy()) == 0.0
    assert np.array_equal(ssi(a, a.copy()), np.ones(14))
    labels = (rng.random(size=(16, 14)) < 0.5).astype(np.int64)
    labels[0] = 1  # every class keeps at least one positive
    assert map_score(labels.astype(np.float64), labels) == 1.0
    seg = rng.integers(0, 14, size=(8, 8))
    assert mean_iou(seg, seg.copy(), 14) == 1.0
    assert time.monotonic() - start < 30.0


def test_criterion_7_single_sensor_reduction():
    start = time.monotonic()
    registry = single_registry()
    dataset = gen_synthetic(registry, 8, 16, 16, seed=31)
    mcfg = ModelConfig(width=16, depth=2, heads=2, patch_size=4, image_w=16,
                       image_h=16, mask_unit=8, moe=False, p_cross=0.0)
    tcfg = TrainConfig(seed=3, base_batch=4, base_lr=1e-3, epochs=6,
                       warmup_epochs=1, warmup_lr=1e-5, milestones=(3,),
                       weight_decay=0.05)
    steps_per_epoch = 2  # 8 samples at batch 4
    n_steps = tcfg.epochs * steps_per_epoch

    trainer = Trainer(dataset, mcfg, tcfg)
    multi_losses = [trainer.train_step()["loss_total"] for _ in range(n_steps)]

    # independent plain masked-autoencoding loop over the one sensor
    params = init_params(registry, mcfg, tcfg.seed)
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    mask_rng = stream_rng(tcfg.seed, STREAM_MASK)
    records = dataset.by_sensor[0]
    cycle, pos = 0, 0
    single_losses = []
    for step in range(n_steps):
        batch = []
        order = stream_rng(tcfg.seed, STREAM_DATA, 0, cycle).permutation(len(records))
        while len(batch) < tcfg.base_batch:
            if pos >= len(order):
                cycle += 1
                pos = 0
                order = stream_rng(tcfg.seed, STREAM_DATA, 0, cycle).permutation(len(records))
            batch.append(records[order[pos]])
            pos += 1

        warmup_steps = tcfg.warmup_epochs * steps_per_epoch
        if step < warmup_steps:
            r0 = tcfg.warmup_lr / tcfg.base_lr
            mult = r0 + (1.0 - r0) * (step / warmup_steps)
        else:
            epoch = step // steps_per_epoch
            mult = tcfg.gamma ** sum(1 for ms in tcfg.milestones if epoch >= ms)

        with T.fresh_tape():
            loss = None
            for r in batch:
                plan = draw_mask(16, 16, mcfg.mask_unit, mcfg.mask_ratio, mask_rng)
                gt = dataset.image(r.sample_id)
                pred, _aux, _ = reconstruct_sample(
                    params, mcfg, gt, 0, to_token_mask(plan, mcfg.patch_size), 0)
                term = T.l1_loss(pred, T.constant(gt, like=pred), to_pixel_mask(plan))
                loss = term if loss is None else loss + term
            loss = loss * (1.0 / float(len(batch)))
            T.backward(loss)
        single_losses.append(float(loss.data))

        t = step + 1
        bc1 = 1.0 - tcfg.beta1 ** t
        bc2 = 1.0 - tcfg.beta2 ** t
        lr = tcfg.base_lr * mult * 1.0
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m[name] = tcfg.beta1 * m[name] + (1.0 - tcfg.beta1) * g
            v[name] = tcfg.beta2 * v[name] + (1.0 - tcfg.beta2) * (g * g)
            update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + tcfg.eps)
            if p.data.ndim >= 2:
                update = update + tcfg.weight_decay * p.data
            p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)
            p.grad = None

    assert multi_losses == single_losses
    for name, p in trainer.state.params.items():
        assert np.array_equal(p.data, params[name].data), name
        assert np.array_equal(trainer.state.m[name], m[name]), name
    assert time.monotonic() - start < 300.0


def test_criterion_8_ablation_harness(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "ablate.cfg"
    cfg.write_text(
        "seed = 11\n"
        "data.registry = pair\n"
        "data.n_per_sensor = 8\n"
        "data.width = 16\n"
        "data.height = 16\n"
        "model.width = 32\n"
        "model.depth = 2\n"
        "model.heads = 4\n"
        "model.patch_size = 4\n"
        "model.mask_unit = 8\n"
        "model.num_experts = 2\n"
        "model.ffn_mult = 2\n"
        "train.base_batch = 4\n"
        "train.epochs = 30\n"
        "train.warmup_epochs = 2\n"
        "train.base_lr = 0.003\n"
        "eval.samples = 8\n"
    )
    out = tmp_path / "grid"
    code = main(["ablate", "--config", str(cfg), "--out", str(out),
                 "--grid", "moe=0,1;cross=0,0.5,1.0"])
    assert code == 0
    lines = (out / "ablation-table.txt").read_text().splitlines()
    rows = lines[2:]
    assert [r.split()[0] for r in rows] == [
        "dense/cross=0", "dense/cross=0.5", "dense/cross=1",
        "moe/cross=0", "moe/cross=0.5", "moe/cross=1",
    ]
    cells = json.loads((out / "ablation.json").read_text())
    assert [(c["moe"], c["cross"]) for c in cells] == [
        (False, 0.0), (False, 0.5), (False, 1.0),
        (True, 0.0), (True, 0.5), (True, 1.0),
    ]
    # the 50% crossing rows are reported with usable numbers, not asserted
    for cell in cells:
        if cell["cross"] == 0.5:
            assert np.isfinite(cell["aggregate"]["masked_l1"])
            assert np.isfinite(cell["cross_l1"])
    assert time.monotonic() - start < 1800.0


def test_criterion_9_persistence(tmp_path):
    start = time.monotonic()
    registry = pair_registry()
    dataset = gen_synthetic(registry, 8, 16, 16, seed=31)
    mcfg = ModelConfig(width=16, depth=2, heads=2, patch_size=4, image_w=16,
                       image_h=16, mask_unit=8, moe=True, num_experts=2,
                       p_cross=0.5)

    def tcfg():
        return TrainConfig(seed=3, base_batch=4, base_lr=1e-3, epochs=10,
                           warmup_epochs=1, warmup_lr=1e-5, milestones=(3,))

    solo = Trainer(dataset, mcfg, tcfg())
    solo_losses = [solo.train_step()["loss_total"] for _ in range(10)]

    first = Trainer(dataset, mcfg, tcfg())
    split_losses = [first.train_step()["loss_total"] for _ in range(5)]
    mid = tmp_path / "mid.msgm"
    first.save(str(mid))
    second = Trainer(dataset, mcfg, tcfg())
    second.train_step()  # desynchronize before resuming
    second.resume(str(mid))
    split_losses += [second.train_step()["loss_total"] for _ in range(5)]
    assert split_losses == solo_losses
    for name, p in solo.state.params.items():
        assert np.array_equal(p.data, second.state.params[name].data), name

    named = {
        "w": np.arange(12, dtype="<f4").reshape(3, 4),
        "step": np.asarray(7, dtype="<i8"),
        "blob": np.frombuffer(b"\x00\x01\xfe", dtype=np.uint8).copy(),
        "big": np.linspace(0.0, 1.0, 9, dtype="<f8"),
    }
    path = tmp_path / "round.msgm"
    ckpt.save_tensors(str(path), named)
    back = ckpt.load_tensors(str(path))
    assert list(back) == list(named)
    for key in named:
        assert back[key].dtype == named[key].dtype
        assert np.array_equal(back[key], named[key])

    manifest = tmp_path / "data.msgfm"
    save_manifest(dataset, str(manifest))
    loaded = load_manifest(str(manifest))
    assert len(loaded) == len(dataset)
    for r, r2 in zip(dataset.records, loaded.records):
        assert (r.sample_id, r.sensor_id, r.partner_sample_id) == \
               (r2.sample_id, r2.sensor_id, r2.partner_sample_id)
        assert np.array_equal(dataset.image(r.sample_id), loaded.image(r2.sample_id))
    assert time.monotonic() - start < 60.0
