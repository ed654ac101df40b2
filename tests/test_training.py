"""Training loop: streams, schedule, AdamW, samplers, checkpoint lifecycle."""

import json
import os
import re
import zlib
from dataclasses import replace

import numpy as np
import pytest

import crossmim.checkpoint as ckpt
import crossmim.model as model
import crossmim.sensors as sensors
import crossmim.tensor as T
import crossmim.training as training
from crossmim.config import ModelConfig
from crossmim.errors import (CheckpointError, CompatibilityError, ConfigError,
                             NumericError)
from crossmim.render import write_ppm
from crossmim.sensors import desk_registry, gen_synthetic, pair_registry, save_manifest
from crossmim.training import (STREAM_CROSS, STREAM_DATA, STREAM_MASK,
                               STREAM_TASK, SensorSampler, TrainConfig, Trainer,
                               adamw_step, json_safe, load_pretrained, lr_at,
                               make_schedule, owner_sensor, stream_rng)
from crossmim.transfer import TransferConfig, finetune, make_task

import oracles

MCFG = ModelConfig(width=16, depth=2, heads=2, patch_size=4, image_w=16,
                   image_h=16, mask_unit=8, mask_ratio=0.6, moe=True,
                   num_experts=2, ffn_mult=2, p_cross=0.5)
TCFG = TrainConfig(seed=3, base_batch=2, base_lr=1e-3, epochs=2,
                   warmup_epochs=1, warmup_lr=1e-5, milestones=(1,))


def make_trainer(tmp=None, n=4, **overrides):
    ds = gen_synthetic(pair_registry(), n, 16, 16, seed=7)
    tcfg = replace(TCFG, **overrides)
    return Trainer(ds, MCFG, tcfg, **(tmp or {}))


# ---------------------------------------------------------------------------
# rng streams

def test_stream_rng_deterministic_and_independent():
    a = stream_rng(5, STREAM_MASK).random(4)
    b = stream_rng(5, STREAM_MASK).random(4)
    np.testing.assert_array_equal(a, b)
    c = stream_rng(5, STREAM_CROSS).random(4)
    d = stream_rng(6, STREAM_MASK).random(4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    e = stream_rng(5, STREAM_DATA, 0, 1).random(4)
    f = stream_rng(5, STREAM_DATA, 1, 0).random(4)
    assert not np.array_equal(e, f)


def test_stream_keys_of_every_caller(monkeypatch):
    """The key each caller gives `stream_rng`, and no two keys of any
    caller's shape give the same generator, trailing zeros included."""
    calls = {}

    def spy(log):
        return lambda *key: log.append(key) or ckpt.stream_rng(*key)

    for mod in (model, sensors, training):
        monkeypatch.setattr(mod, "stream_rng", spy(calls.setdefault(mod.__name__, [])))
    model.param_rng(4, "head.w")
    assert calls["crossmim.model"] == [(4, ckpt.STREAM_PARAM, zlib.crc32(b"head.w"))]
    gen_synthetic(desk_registry(), 2, 8, 8, seed=5)
    synth, pair = ckpt.STREAM_SYNTH, ckpt.STREAM_PAIR
    assert calls["crossmim.sensors"] == [(5, synth, 0), (5, synth, 1), (7041, pair, 1, 2),
                                         (7041, pair, 1, 2), (5, synth, 3), (7041, pair, 3, 4),
                                         (7041, pair, 3, 4)]
    make_trainer().train_step()
    assert calls["crossmim.training"] == [(3, STREAM_MASK), (3, STREAM_CROSS),
                                          (3, STREAM_DATA, 0, 0), (3, STREAM_DATA, 1, 0)]
    ds = gen_synthetic(pair_registry(), 3, 16, 16, seed=7)
    tcfg = TransferConfig(head="multilabel", num_classes=2)
    finetune(ds.registry, MCFG, tcfg, (0, 1), make_task(ds, tcfg, (0, 1)), None,
             steps=2, lr=1e-3, batch_size=2, seed=9)
    assert calls["crossmim.training"][4:] == [(9, STREAM_TASK, 0, 0), (9, STREAM_TASK, 0, 0),
                                              (9, STREAM_TASK, 0, 1)]

    # every caller's key shape (the CLI adds the evaluation and render keys)
    # at small entries, under one run seed and the pair mix's 7041, plus
    # each key with one and two trailing zeros and without its last entry
    shapes = {key[1:] for log in calls.values() for key in log}
    shapes |= {(training.STREAM_EVAL,), (training.STREAM_EVAL, 1), (training.STREAM_RENDER,)}
    shapes |= {(tag, *(e % 3 for e in entries)) for tag, *entries in shapes}
    keys = {(seed, *key, *zeros) for seed in (5, 7041) for key in shapes
            for zeros in ((), (0,), (0, 0))}
    keys |= {key[:-1] for key in keys if len(key) > 2}
    # among them the keys that zero-padded entropy made equal: (1,) and (1, 0)
    assert (5, STREAM_CROSS) in keys and (5, synth, STREAM_CROSS) in keys and (5, 1, 0) in keys
    states = {key: ckpt.stream_rng(*key).bit_generator.state["state"] for key in keys}
    assert len({(st["state"], st["inc"]) for st in states.values()}) == len(keys)

    src = os.path.dirname(ckpt.__file__)
    tagging = [name for name in sorted(os.listdir(src)) if name.endswith(".py") and
               re.search(r"^STREAM_\w+ =", open(os.path.join(src, name)).read(), re.M)]
    assert tagging == ["checkpoint.py"]


def test_only_checkpoint_builds_seeded_generators():
    src = os.path.dirname(ckpt.__file__)
    seeding = [name for name in sorted(os.listdir(src)) if name.endswith(".py") and
                re.search(r"SeedSequence\(|PCG64\(", open(os.path.join(src, name)).read())]
    assert seeding == ["checkpoint.py"]


# ---------------------------------------------------------------------------
# config & schedule

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(base_batch=0)
    with pytest.raises(ConfigError):
        TrainConfig(warmup_epochs=3, epochs=2)
    for name, value in [("warmup_epochs", -1), ("seed", -1), ("log_every", 0), ("checkpoint_every", 0),
                        ("base_lr", 0.0), ("base_lr", float("nan")), ("base_lr", float("inf")),
                        ("warmup_lr", -1e-6), ("warmup_lr", float("inf")),
                        ("gamma", 0.0), ("gamma", float("nan")),
                        ("beta1", 1.0), ("beta2", -0.1), ("beta2", 2.0),
                        ("eps", 0.0), ("weight_decay", -0.01), ("weight_decay", float("nan"))]:
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})
    TrainConfig(warmup_lr=0.0, beta1=0.0, weight_decay=0.0)


def test_make_schedule_proportional_batches():
    sched = make_schedule({0: 100, 1: 50, 2: 10}, base_batch=8)
    assert sched[0].batch_size == 8 and sched[0].lr_scale == 1.0
    assert sched[1].batch_size == 4 and sched[1].lr_scale == 0.5
    assert sched[2].batch_size == 1 and sched[2].lr_scale == 1 / 8
    assert all(e.steps_per_epoch == 13 for e in sched.values())  # ceil(100/8)


def test_make_schedule_overrides_and_floor():
    assert make_schedule({0: 64, 1: 1}, 8)[1].batch_size == 1  # max(1, ...)


def test_make_schedule_validation():
    with pytest.raises(ConfigError):
        make_schedule({}, 8)
    with pytest.raises(ConfigError):
        make_schedule({0: 0}, 8)
    with pytest.raises(ConfigError, match="base_batch 5 exceeds"):
        make_schedule({0: 4, 1: 2}, 5)
    assert make_schedule({0: 4, 1: 2}, 4)[0].batch_size == 4


def test_lr_at_warmup_then_milestones():
    cfg = TrainConfig(base_lr=1e-3, warmup_lr=1e-5, epochs=10,
                      warmup_epochs=2, milestones=(4, 8), gamma=0.1)
    spe = 5
    assert lr_at(0, cfg, spe) == pytest.approx(1e-5 / 1e-3)
    mid = lr_at(5, cfg, spe)
    assert 0.01 < mid < 1.0
    assert lr_at(10, cfg, spe) == 1.0  # warmup ends exactly at 1
    assert lr_at(19, cfg, spe) == 1.0  # epoch 3, before first milestone
    assert lr_at(20, cfg, spe) == pytest.approx(0.1)  # epoch 4
    assert lr_at(45, cfg, spe) == pytest.approx(0.01)  # past both milestones
    nowarm = TrainConfig(epochs=2, warmup_epochs=0)
    assert lr_at(0, nowarm, spe) == 1.0


def test_owner_sensor_prefixes():
    assert owner_sensor("embedder.3.kernel") == 3
    assert owner_sensor("decoder.0.proj") == 0
    assert owner_sensor("encoder.block1.attn.wq") is None
    assert owner_sensor("shared.mask_token") is None


# ---------------------------------------------------------------------------
# optimizer

def test_adamw_matches_naive_trajectory(rng):
    cfg = TrainConfig(base_lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8,
                      weight_decay=0.05, epochs=1, warmup_epochs=0)
    w0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(7)]
    p = T.Tensor(w0.copy(), dtype=np.float64, requires_grad=True)
    params = {"encoder.block0.attn.wq": p}
    m = {k: np.zeros_like(v.data) for k, v in params.items()}
    v = {k: np.zeros_like(t.data) for k, t in params.items()}
    for step, g in enumerate(grads):
        p.grad = g
        adamw_step(params, m, v, step, cfg.base_lr, 1.0, cfg, {})
        assert p.grad is None
    expect = oracles.adamw_naive(w0, grads, cfg.base_lr, 0.9, 0.999, 1e-8,
                                 0.05, decay_applies=True)
    np.testing.assert_array_equal(p.data, expect)


def test_adamw_skips_decay_for_vectors(rng):
    cfg = TrainConfig(base_lr=1e-2, weight_decay=0.05, epochs=1, warmup_epochs=0)
    b0 = rng.normal(size=5)
    grads = [rng.normal(size=5) for _ in range(3)]
    p = T.Tensor(b0.copy(), dtype=np.float64, requires_grad=True)
    m, v = {"shared.mask_token": np.zeros(5)}, {"shared.mask_token": np.zeros(5)}
    for step, g in enumerate(grads):
        p.grad = g
        adamw_step({"shared.mask_token": p}, m, v, step, cfg.base_lr, 1.0, cfg, {})
    expect = oracles.adamw_naive(b0, grads, cfg.base_lr, 0.9, 0.999, 1e-8,
                                 0.05, decay_applies=False)
    np.testing.assert_array_equal(p.data, expect)


def test_adamw_missing_grad_counts_as_zero(rng):
    cfg = TrainConfig(base_lr=1e-2, weight_decay=0.05, epochs=1, warmup_epochs=0)
    w0 = rng.normal(size=(2, 2))
    p = T.Tensor(w0.copy(), dtype=np.float64, requires_grad=True)
    m, v = {"x": np.zeros((2, 2))}, {"x": np.zeros((2, 2))}
    adamw_step({"x": p}, m, v, 0, cfg.base_lr, 1.0, cfg, {})
    expect = oracles.adamw_naive(w0, [np.zeros((2, 2))], cfg.base_lr, 0.9,
                                 0.999, 1e-8, 0.05, decay_applies=True)
    np.testing.assert_array_equal(p.data, expect)


def test_adamw_applies_per_sensor_lr_scale(rng):
    cfg = TrainConfig(base_lr=1e-2, weight_decay=0.0, epochs=1, warmup_epochs=0)
    g = rng.normal(size=(2, 2))
    owned = T.Tensor(np.ones((2, 2)), dtype=np.float64, requires_grad=True)
    shared = T.Tensor(np.ones((2, 2)), dtype=np.float64, requires_grad=True)
    owned.grad, shared.grad = g.copy(), g.copy()
    params = {"embedder.1.kernel": owned, "encoder.block0.attn.wq": shared}
    m = {k: np.zeros((2, 2)) for k in params}
    v = {k: np.zeros((2, 2)) for k in params}
    adamw_step(params, m, v, 0, cfg.base_lr, 1.0, cfg, {1: 0.5})
    step_owned = np.abs(1.0 - owned.data)
    step_shared = np.abs(1.0 - shared.data)
    np.testing.assert_allclose(step_owned, 0.5 * step_shared, rtol=1e-12)


# ---------------------------------------------------------------------------
# sampler

def test_sampler_covers_each_record_once_per_cycle():
    records = list(range(10))  # works on any sequence
    s = SensorSampler(records, batch_size=3, seed=1, sensor_id=0)
    seen = [r for _ in range(4) for r in s.next_batch()]
    assert sorted(seen[:10]) == records  # first cycle is a permutation
    assert s.cycle == 1 and s.pos == 2


def test_sampler_reshuffles_between_cycles_deterministically():
    a = SensorSampler(list(range(8)), 8, seed=2, sensor_id=1)
    b = SensorSampler(list(range(8)), 8, seed=2, sensor_id=1)
    first_a, second_a = a.next_batch(), a.next_batch()
    assert first_a == b.next_batch() and second_a == b.next_batch()
    assert first_a != second_a  # same records, fresh order
    assert sorted(first_a) == sorted(second_a)
    c = SensorSampler(list(range(8)), 8, seed=3, sensor_id=1)
    assert c.next_batch() != first_a
    task = SensorSampler(list(range(8)), 8, seed=2, sensor_id=1, stream=STREAM_TASK)
    assert task.next_batch() != first_a  # its own lane, not the pretraining data stream


# ---------------------------------------------------------------------------
# trainer lifecycle

def test_train_step_metrics_and_history():
    tr = make_trainer()
    rec = tr.train_step()
    assert rec["step"] == 0 and rec["epoch"] == 0
    assert rec["lr"] == pytest.approx(1e-5)
    assert np.isfinite(rec["loss_total"])
    assert set(rec["sensors"]) == {"0", "1"}
    for v in rec["sensors"].values():
        assert np.isfinite(v["mim"]) and np.isfinite(v["aux"])
    assert rec["cross_samples"] + rec["self_samples"] == 4  # 2 per sensor
    assert rec["routing"]["expert_tokens"]
    assert tr.state.history == [rec["loss_total"]]
    assert tr.state.step == 1


def test_trainer_is_deterministic():
    a, b = make_trainer(), make_trainer()
    for _ in range(3):
        ra, rb = a.train_step(), b.train_step()
        assert ra["loss_total"] == rb["loss_total"]
    for k in a.state.params:
        np.testing.assert_array_equal(a.state.params[k].data,
                                      b.state.params[k].data)


def test_step_routing_sums_every_moe_report(monkeypatch):
    reports, round_loss = [], training.round_loss

    def kept(*args, **kwargs):
        out = round_loss(*args, **kwargs)
        reports.extend(out[2])
        return out

    monkeypatch.setattr(training, "round_loss", kept)
    rec = make_trainer().train_step()
    assert rec["routing"] == {
        "dropped": sum(r.dropped for r in reports),
        "expert_tokens": [sum(r.expert_counts[e] for r in reports)
                          for e in range(MCFG.num_experts)]}
    tr = Trainer(gen_synthetic(pair_registry(), 4, 16, 16, seed=7),
                 replace(MCFG, moe=False), TCFG)
    assert tr.train_step()["routing"] == {"dropped": 0, "expert_tokens": []}


def test_trainer_writes_jsonl_log(tmp_path):
    log = str(tmp_path / "train.log")
    tr = make_trainer(tmp={"log_path": log}, log_every=2)
    for _ in range(4):
        tr.train_step()
    tr.close()
    lines = [json.loads(ln) for ln in open(log)]
    assert [r["step"] for r in lines] == [1, 3]  # every 2nd step
    assert all("loss_total" in r and "routing" in r for r in lines)


def test_train_epochs_writes_checkpoints(tmp_path):
    tr = make_trainer()
    tr.train_epochs(checkpoint_dir=str(tmp_path))
    names = sorted(os.listdir(tmp_path))
    assert "checkpoint-final.msgm" in names
    assert any(n.startswith("checkpoint-epoch") for n in names)
    assert tr.state.step == tr.cfg.epochs * tr.steps_per_epoch


def test_train_epochs_encodes_the_last_checkpoint_once(tmp_path, monkeypatch):
    """A run that ends on an epoch boundary writes its last epoch checkpoint
    and checkpoint-final from one encoding; resuming from either continues
    the trajectory bit for bit."""
    encoded, save = [], ckpt.save_tensors

    def counted(path, named):
        encoded.append(os.path.basename(path))
        return save(path, named)

    monkeypatch.setattr(ckpt, "save_tensors", counted)
    tr = make_trainer(checkpoint_every=1)
    tr.train_epochs(checkpoint_dir=str(tmp_path))
    assert encoded == ["checkpoint-epoch1.msgm", "checkpoint-epoch2.msgm"]
    last = (tmp_path / "checkpoint-epoch2.msgm").read_bytes()
    assert (tmp_path / "checkpoint-final.msgm").read_bytes() == last
    want = tr.train_step()["loss_total"]
    for name in ("checkpoint-epoch2.msgm", "checkpoint-final.msgm"):
        fresh = make_trainer()
        fresh.resume(str(tmp_path / name))
        assert fresh.train_step()["loss_total"] == want
        for k, p in tr.state.params.items():
            np.testing.assert_array_equal(fresh.state.params[k].data, p.data)


def test_resume_restores_exact_trajectory(tmp_path):
    path = str(tmp_path / "ckpt.msgm")
    solo = make_trainer()
    for _ in range(4):
        solo.train_step()
    split = make_trainer()
    split.train_step()
    split.train_step()
    split.save(path)
    fresh = make_trainer()
    fresh.train_step()  # move off init so resume really has to restore
    fresh.resume(path)
    assert fresh.state.step == 2
    r3, r4 = fresh.train_step(), fresh.train_step()
    assert [r3["loss_total"], r4["loss_total"]] == solo.state.history[2:]
    for k in solo.state.params:
        np.testing.assert_array_equal(solo.state.params[k].data,
                                      fresh.state.params[k].data)
        np.testing.assert_array_equal(solo.state.m[k], fresh.state.m[k])


def test_resume_rejects_foreign_registry(tmp_path):
    path = str(tmp_path / "ckpt.msgm")
    make_trainer().save(path)
    other = Trainer(gen_synthetic(desk_registry(), 2, 16, 16, seed=1),
                    MCFG, TCFG)
    with pytest.raises(CompatibilityError, match="registry"):
        other.resume(path)


def test_resume_rejects_different_model_config(tmp_path):
    path = str(tmp_path / "ckpt.msgm")
    make_trainer().save(path)
    ds = gen_synthetic(pair_registry(), 4, 16, 16, seed=7)
    # more heads keep every parameter shape, so only the architecture check sees it
    other = Trainer(ds, ModelConfig(**{**MCFG.to_dict(), "heads": 4}), TCFG)
    with pytest.raises(CompatibilityError, match="configuration"):
        other.resume(path)
    # objective settings are not pinned by the checkpoint
    Trainer(ds, ModelConfig(**{**MCFG.to_dict(), "mask_ratio": 0.5, "p_cross": 0.0}),
            TCFG).resume(path)


def test_resume_rejects_missing_parameter(tmp_path):
    path = str(tmp_path / "ckpt.msgm")
    tr = make_trainer()
    tr.save(path)
    named = ckpt.load_tensors(path)
    victim = next(k for k in named if k.startswith("decoder."))
    del named[victim]
    ckpt.save_tensors(path, named)
    with pytest.raises(CompatibilityError, match=r"missing entry 'decoder\."):
        make_trainer().resume(path)


@pytest.mark.parametrize("load", [
    lambda path: make_trainer().resume(path),
    lambda path: load_pretrained(path, pair_registry(), MCFG),
], ids=["resume", "load_pretrained"])
def test_resume_rejects_shape_mismatch(tmp_path, load):
    path = str(tmp_path / "ckpt.msgm")
    tr = make_trainer()
    tr.save(path)
    named = ckpt.load_tensors(path)
    named["shared.mask_token"] = np.zeros(7, dtype=np.float32)
    ckpt.save_tensors(path, named)
    with pytest.raises(CompatibilityError, match="shape"):
        load(path)


def test_resume_refuses_each_dropped_or_reshaped_entry(tmp_path):
    """Dropping any one entry, or giving it a leading axis, raises
    CompatibilityError; only the byte-encoded JSON entries read the same
    bytes at any shape, so they resume."""
    path, bad = str(tmp_path / "ckpt.msgm"), str(tmp_path / "bad.msgm")
    tr = make_trainer()
    tr.train_step()
    tr.save(path)
    named = ckpt.load_tensors(path)
    assert len(named) == 149
    target = make_trainer()

    def outcome(variant):
        ckpt.save_tensors(bad, variant)
        try:
            target.resume(bad)
        except CompatibilityError:
            return "refused"
        return "resumed"

    refused = dict.fromkeys(named, "refused")
    dropped = {k: outcome({j: a for j, a in named.items() if j != k}) for k in named}
    assert dropped == refused
    as_json = {k for k in named if k == "meta.model_config" or k.startswith("rng.")}
    reshaped = {k: outcome({**named, k: named[k][None]}) for k in named}
    assert reshaped == {**refused, **dict.fromkeys(as_json, "resumed")}
    assert len(as_json) == 3


def test_checkpoint_layout(tmp_path):
    """A saved pretraining checkpoint lists the parameters in `init_params`
    order, then every `opt.m.*`, then every `opt.v.*`, then the step, pins,
    streams and sampler cursors, each at the dtype older files hold."""
    path = str(tmp_path / "ckpt.msgm")
    tr = make_trainer()
    tr.train_step()
    tr.save(path)
    params = list(model.init_params(pair_registry(), MCFG, TCFG.seed))
    want = {**dict.fromkeys(params, "float32"),
            **dict.fromkeys([f"opt.m.{k}" for k in params], "float32"),
            **dict.fromkeys([f"opt.v.{k}" for k in params], "float32"),
            "meta.step": "int64", "meta.registry": "uint8", "meta.model_config": "uint8",
            "rng.mask": "uint8", "rng.cross": "uint8", "sampler.sensor_ids": "int64",
            "sampler.cycle": "int64", "sampler.pos": "int64"}
    named = ckpt.load_tensors(path)
    assert list(named) == list(want)
    assert {k: str(arr.dtype) for k, arr in named.items()} == want


def test_load_pretrained_returns_saved_parameters(tmp_path):
    path = str(tmp_path / "ckpt.msgm")
    tr = make_trainer()
    tr.train_step()
    tr.save(path)
    params = load_pretrained(path, tr.dataset.registry, MCFG)
    assert set(params) == set(tr.state.params)
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, tr.state.params[k].data)
    with pytest.raises(CompatibilityError):
        load_pretrained(path, desk_registry(), MCFG)


def test_numeric_failure_dumps_diagnostics(tmp_path):
    tr = make_trainer(tmp={"dump_dir": str(tmp_path)})
    tr.state.params["encoder.block0.ffn.w2"].data[:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        tr.train_step()
    diag = exc.value.diagnostics
    assert diag["step"] == 0
    assert diag["round_sensors"] == {"0": 2, "1": 2}
    assert os.path.isfile(diag["dump_path"])
    dumped = json.load(open(diag["dump_path"]))
    assert dumped["diagnostics"]["stage"] == "feedforward"
    assert dumped["diagnostics"]["block"] == 0


def test_json_safe_spells_non_finite_values_as_strict_json():
    obj = {1: (np.float32(np.inf), -np.inf, float("nan"), np.float64(-np.inf)),
           "scalars": [np.float32(1.5), np.float32(np.nan), np.int64(3), 0.25],
           "array": np.array([1.0, -np.inf, np.inf, np.nan], dtype=np.float32)}
    text = json.dumps(json_safe(obj), allow_nan=False)
    assert json.loads(text) == {"1": ["inf", "-inf", "nan", "-inf"],
                                "scalars": [1.5, "nan", 3, 0.25],
                                "array": [1.0, "-inf", "inf", "nan"]}


def test_step_log_is_strict_json(tmp_path):
    log = tmp_path / "steps.jsonl"
    w = T.Tensor(np.ones(2), requires_grad=True)

    def stub_loss(params, batch):
        return T.reduce_sum(params["w"]), {"scale": np.float32(0.5), "ratio": np.inf}

    tr = Trainer.for_loss(stub_loss, {"task": SensorSampler([1, 2], 1, 0, 0)}, {},
                          TrainConfig(warmup_epochs=0, log_every=1), {"w": w},
                          steps_per_epoch=2, log_path=str(log))
    tr.train_step()
    tr.close()

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    record = json.loads(log.read_text(), parse_constant=reject)
    assert record["scale"] == 0.5 and record["ratio"] == "inf"


def test_step_checks_any_loss_is_finite(tmp_path):
    w = T.Tensor(np.ones((2, 2)), requires_grad=True)
    seen = []

    def stub_loss(params, batch):
        seen.append(batch)
        return T.reduce_sum(params["w"]) * np.inf, {}

    tr = Trainer.for_loss(stub_loss, {"task": SensorSampler([1, 2, 3], 2, 0, 0)}, {},
                          TrainConfig(warmup_epochs=0), {"w": w}, steps_per_epoch=2,
                          dump_dir=str(tmp_path))
    with pytest.raises(NumericError, match="non-finite loss") as exc:
        tr.train_step()
    diag = exc.value.diagnostics
    assert diag["step"] == 0 and diag["round_sensors"] == {"task": 2}
    assert len(seen) == 1 and len(seen[0]["task"]) == 2
    assert json.load(open(diag["dump_path"]))["error"] == "non-finite loss"
    assert tr.state.step == 0 and tr.state.history == []
    np.testing.assert_array_equal(w.data, np.ones((2, 2)))  # no update applied


# ---------------------------------------------------------------------------
# checkpoint container

def test_checkpoint_round_trip_all_dtypes(tmp_path, rng):
    path = str(tmp_path / "t.msgm")
    named = {
        "a.f32": rng.normal(size=(2, 3)).astype(np.float32),
        "b.f64": rng.normal(size=4).astype(np.float64),
        "c.u8": np.arange(5, dtype=np.uint8),
        "d.i64": np.asarray(-3, dtype=np.int64),
    }
    ckpt.save_tensors(path, named)
    back = ckpt.load_tensors(path)
    assert list(back) == list(named)  # order preserved
    for k in named:
        assert back[k].dtype == named[k].dtype
        np.testing.assert_array_equal(back[k], named[k])


def test_checkpoint_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        ckpt.save_tensors(str(tmp_path / "t.msgm"),
                          {"x": np.zeros(2, dtype=np.float16)})


class TornFile:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("disk full")


def tear_writes(monkeypatch):
    """Make every write that goes through `checkpoint.write_atomic` tear."""
    monkeypatch.setattr(ckpt, "open", lambda p, mode: TornFile(open(p, mode)), raising=False)


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "checkpoint-final.msgm")
    good = {"x": np.arange(6, dtype=np.float32)}
    ckpt.save_tensors(path, good)
    tear_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        ckpt.save_tensors(path, {"x": np.zeros(64, dtype=np.float32)})
    monkeypatch.undo()
    np.testing.assert_array_equal(ckpt.load_tensors(path)["x"], good["x"])
    assert os.listdir(tmp_path) == ["checkpoint-final.msgm"]


def test_checkpoint_rejects_corruption(tmp_path):
    path = str(tmp_path / "t.msgm")
    ckpt.save_tensors(path, {"x": np.arange(6, dtype=np.float32)})
    raw = bytearray(open(path, "rb").read())

    open(path, "wb").write(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="magic"):
        ckpt.load_tensors(path)

    bad = bytearray(raw)
    bad[4] = 9  # version field
    open(path, "wb").write(bytes(bad))
    with pytest.raises(CheckpointError, match="version"):
        ckpt.load_tensors(path)

    bad = bytearray(raw)
    bad[14] ^= 0xFF  # flip a payload byte under the checksum
    open(path, "wb").write(bytes(bad))
    with pytest.raises(CheckpointError, match="checksum"):
        ckpt.load_tensors(path)

    open(path, "wb").write(bytes(raw[:6]))
    with pytest.raises(CheckpointError, match="truncated"):
        ckpt.load_tensors(path)

    with pytest.raises(CheckpointError, match="cannot read"):
        ckpt.load_tensors(str(tmp_path / "absent.msgm"))


def test_rng_state_round_trip():
    gen = stream_rng(4, STREAM_MASK)
    gen.random(13)
    blob = ckpt.rng_to_u8(gen)
    clone = ckpt.rng_from_u8(blob)
    np.testing.assert_array_equal(gen.random(8), clone.random(8))


def test_registry_digest_distinguishes_registries():
    a = ckpt.registry_digest(pair_registry())
    b = ckpt.registry_digest(pair_registry())
    c = ckpt.registry_digest(desk_registry())
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (32,)


WRITERS = {
    "text": lambda path, v: ckpt.write_atomic(path, f"report {v}\n" * 50),
    "ppm": lambda path, v: write_ppm(path, np.full((8, 8, 3), v, dtype=np.uint8)),
    "manifest": lambda path, v: save_manifest(
        gen_synthetic(pair_registry(), 2, 8, 8, seed=v), path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_halfway_failure_keeps_previous_file_and_no_temp(tmp_path, monkeypatch, writer):
    path = str(tmp_path / "out")
    WRITERS[writer](path, 1)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    tear_writes(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](path, 2)
    monkeypatch.undo()
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
