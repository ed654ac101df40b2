"""Parameter table construction and the pretraining round loss."""

import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import crossmim.model
import crossmim.tensor as T
from crossmim.config import ModelConfig
from crossmim.decoders import decode
from crossmim.embedder import embed
from crossmim.encoder import attention, encode
from crossmim.errors import NumericError, ShapeError
from crossmim.masking import to_pixel_mask, draw_mask, to_token_mask
from crossmim.model import init_params, param_rng, reconstruct_sample, round_loss
from crossmim.sensors import (MultisensorBatch, desk_registry, gen_synthetic,
                              pair_registry)
from crossmim.training import STREAM_CROSS, STREAM_MASK, TrainConfig, Trainer, stream_rng
from crossmim.transfer import HEADS, TransferConfig, init_transfer_params, make_task, task_loss

import oracles
from test_tensor import held, held_arrays, held_bytes, shares_any

MCFG = ModelConfig(width=16, depth=2, heads=2, patch_size=4, image_w=16,
                   image_h=16, mask_unit=8, mask_ratio=0.6, moe=True,
                   num_experts=2, ffn_mult=2)
REG = pair_registry()


def full_batch(ds):
    return MultisensorBatch(per_sensor=dict(ds.by_sensor), round_index=0)


def test_init_params_names_and_shapes():
    params = init_params(REG, MCFG, seed=1)
    assert params["embedder.0.kernel"].shape == (16, 2, 4, 4)
    assert params["embedder.1.kernel"].shape == (16, 3, 4, 4)
    assert params["shared.mask_token"].shape == (16,)
    assert params["shared.pos_embed"].shape == (MCFG.tokens, 16)
    assert params["encoder.block0.ffn.w1"].shape == (16, 32)  # dense block
    assert params["encoder.block1.gate.w"].shape == (16, 2)  # moe block
    assert params["encoder.block1.expert1.w2"].shape == (32, 16)
    assert params["decoder.1.proj"].shape == (48, 16)
    assert all(p.requires_grad for p in params.values())
    assert all(p.dtype == np.float32 for p in params.values())
    # biases and norms start at their conventional fixed points
    assert np.all(params["embedder.0.bias"].data == 0.0)
    assert np.all(params["encoder.block0.ln1.gamma"].data == 1.0)


def test_init_params_independent_of_module_set():
    # the same name draws the same weights regardless of what else exists
    dense = ModelConfig(**{**MCFG.to_dict(), "moe": False})
    a = init_params(REG, MCFG, seed=4)
    b = init_params(REG, dense, seed=4)
    for k in ("embedder.0.kernel", "shared.pos_embed",
              "encoder.block0.attn.wq", "decoder.1.proj"):
        np.testing.assert_array_equal(a[k].data, b[k].data)
    assert param_rng(4, "x").random() == param_rng(4, "x").random()
    assert param_rng(4, "x").random() != param_rng(4, "y").random()


def test_reconstruct_sample_shapes_and_cross_decoder():
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    plan = draw_mask(16, 16, 8, 0.6, np.random.default_rng(0))
    tmask = to_token_mask(plan, 4)
    img = ds.image(ds.by_sensor[0][0].sample_id)
    pred_self, aux, reports = reconstruct_sample(params, MCFG, img, 0, tmask, 0)
    assert pred_self.shape == (2, 16, 16)
    pred_cross, _, _ = reconstruct_sample(params, MCFG, img, 0, tmask, 1)
    assert pred_cross.shape == (3, 16, 16)  # partner's channel space
    assert len(reports) == 1  # one moe block


def test_reconstruct_sample_single_image_is_row_0_of_a_batch_of_one():
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    tmask = to_token_mask(draw_mask(16, 16, 8, 0.6, np.random.default_rng(0)), 4)
    img = ds.image(ds.by_sensor[1][0].sample_id)
    assert img.dtype == np.float32
    one, aux, reports = reconstruct_sample(params, MCFG, img, 1, tmask, 0)
    batch, b_aux, b_reports = reconstruct_sample(params, MCFG, img[None], 1, tmask[None], 0)
    assert one.shape == (2, 16, 16) and batch.shape == (1, 2, 16, 16)
    assert one.data.tobytes() == batch.data[0].tobytes()
    assert aux.shape == () and aux.data.tobytes() == b_aux.data[0].tobytes()
    assert reports == b_reports


def test_layers_reject_unbatched_input():
    params = init_params(REG, MCFG, seed=1)
    b = "encoder.block0.attn."
    attn = {k[len(b):]: v for k, v in params.items() if k.startswith(b)}
    tokens = T.Tensor(np.zeros((MCFG.tokens, MCFG.width), np.float32))
    with pytest.raises(ShapeError):
        embed(T.Tensor(np.zeros((2, 16, 16), np.float32)), params, "embedder.0.")
    with pytest.raises(ShapeError):
        encode(tokens, MCFG, params)
    with pytest.raises(ShapeError):
        decode(tokens, params, 0, MCFG)
    with pytest.raises(ShapeError):
        attention(tokens, attn, MCFG.heads)


def test_round_loss_stats_and_gradients():
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    with T.fresh_tape():
        total, stats, reports = round_loss(
            params, MCFG, ds, full_batch(ds),
            stream_rng(1, STREAM_MASK), stream_rng(1, STREAM_CROSS), p_cross=0.5)
        T.backward(total)
    assert set(stats["sensors"]) == {0, 1}
    assert stats["cross_samples"] + stats["self_samples"] == 4
    assert stats["loss_total"] == pytest.approx(sum(
        v["mim"] + MCFG.aux_weight * v["aux"] for v in stats["sensors"].values()),
        rel=1e-5)
    assert len(reports) == 4  # one per sample, single moe block
    grads = [k for k, p in params.items() if p.grad is not None]
    assert "shared.mask_token" in grads and "encoder.block1.gate.w" in grads


def test_round_loss_sensor_order_and_mask_draws_fixed():
    # masks are drawn per sample in ascending sensor order; replaying the
    # stream by hand must reproduce the library's plans exactly
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    mask_rng = stream_rng(7, STREAM_MASK)
    _, stats, _ = round_loss(params, MCFG, ds, full_batch(ds), mask_rng,
                             stream_rng(7, STREAM_CROSS), p_cross=0.0)
    replay = stream_rng(7, STREAM_MASK)
    for sid in (0, 1):
        for _ in ds.by_sensor[sid]:
            draw_mask(16, 16, 8, 0.6, replay)
    assert mask_rng.bit_generator.state == replay.bit_generator.state


def test_round_loss_cross_fraction_follows_probability():
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    mask_rng = stream_rng(1, STREAM_MASK)
    cross_rng = stream_rng(1, STREAM_CROSS)
    _, all_self, _ = round_loss(params, MCFG, ds, full_batch(ds), mask_rng,
                                cross_rng, p_cross=0.0)
    assert all_self["cross_samples"] == 0 and all_self["self_samples"] == 4
    _, all_cross, _ = round_loss(params, MCFG, ds, full_batch(ds), mask_rng,
                                 cross_rng, p_cross=1.0)
    assert all_cross["cross_samples"] == 4 and all_cross["self_samples"] == 0


def test_round_loss_self_terms_match_direct_reconstruction():
    # with p_cross=0 the round loss is just the mean masked L1 per sensor;
    # recompute it sample by sample through the public pieces
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    seed = 12
    _, stats, _ = round_loss(params, MCFG, ds, full_batch(ds),
                             stream_rng(seed, STREAM_MASK),
                             stream_rng(seed, STREAM_CROSS), p_cross=0.0)
    replay = stream_rng(seed, STREAM_MASK)
    for sid in (0, 1):
        per_sample = []
        for r in ds.by_sensor[sid]:
            plan = draw_mask(16, 16, 8, 0.6, replay)
            with T.no_grad():
                pred, _, _ = reconstruct_sample(
                    params, MCFG, ds.image(r.sample_id), sid,
                    to_token_mask(plan, 4), sid)
            err = np.abs(pred.data - ds.image(r.sample_id))
            per_sample.append(err[:, to_pixel_mask(plan)].mean())
        assert stats["sensors"][sid]["mim"] == pytest.approx(
            np.mean(per_sample), rel=1e-5)


def test_repeated_record_is_masked_by_each_of_its_plans():
    # a sensor whose sample count is not a multiple of its batch can hold
    # one record twice in a round; each copy draws and keeps its own plan
    params = init_params(REG, MCFG, seed=1, dtype=np.float64)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    r = ds.by_sensor[0][0]
    batch = MultisensorBatch(per_sensor={0: [r, r]}, round_index=0)
    _, stats, _ = round_loss(params, MCFG, ds, batch, stream_rng(4, STREAM_MASK),
                             stream_rng(4, STREAM_CROSS), p_cross=0.0)
    replay = stream_rng(4, STREAM_MASK)
    plans = [draw_mask(16, 16, 8, 0.6, replay) for _ in range(2)]
    assert not np.array_equal(plans[0].grid, plans[1].grid)
    per_copy = []
    for plan in plans:
        with T.no_grad():
            pred, _, _ = reconstruct_sample(params, MCFG, ds.image(r.sample_id), 0,
                                            to_token_mask(plan, 4), 0)
        per_copy.append(np.abs(pred.data - ds.image(r.sample_id))[:, to_pixel_mask(plan)].mean())
    assert per_copy[0] != pytest.approx(per_copy[1], rel=1e-6)
    assert stats["sensors"][0]["mim"] == pytest.approx(np.mean(per_copy), rel=1e-12)


def test_round_loss_rejects_empty_round():
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    empty = MultisensorBatch(per_sensor={0: [], 1: []}, round_index=0)
    with pytest.raises(NumericError, match="no samples"):
        round_loss(params, MCFG, ds, empty, stream_rng(1, STREAM_MASK),
                   stream_rng(1, STREAM_CROSS))


def _round_with_grads(round_fn, params, cfg, ds, batch, seed):
    mask_rng, cross_rng = stream_rng(seed, STREAM_MASK), stream_rng(seed, STREAM_CROSS)
    for p in params.values():
        p.grad = None
    with T.fresh_tape():
        total, stats, reports = round_fn(params, cfg, ds, batch, mask_rng, cross_rng, 0.5)
        T.backward(total)
    grads = {k: p.grad for k, p in params.items()}
    return total, stats, reports, grads, (mask_rng.bit_generator.state,
                                          cross_rng.bit_generator.state)


@pytest.mark.parametrize("moe", [True, False])
def test_batched_round_matches_per_sample_oracle_in_float64(moe):
    # desk registry: one unpaired sensor and two pairs, cross targets at
    # p_cross=0.5; sharpened gates make the MoE blocks drop tokens
    registry = desk_registry()
    cfg = ModelConfig(width=16, depth=4, heads=2, patch_size=4, image_w=16, image_h=16,
                      mask_unit=8, mask_ratio=0.5, moe=moe, num_experts=4, ffn_mult=2)
    ds = gen_synthetic(registry, 4, 16, 16, seed=5)
    params = init_params(registry, cfg, seed=2, dtype=np.float64)
    for k, p in params.items():
        if k.endswith("gate.w"):
            p.data *= 200.0
    batch = full_batch(ds)
    got = _round_with_grads(round_loss, params, cfg, ds, batch, seed=9)
    want = _round_with_grads(oracles.round_loss_per_sample, params, cfg, ds, batch, seed=9)

    (total, stats, reports, grads, states), (w_total, w_stats, w_reports, w_grads, w_states) = got, want
    assert float(total.data) == pytest.approx(float(w_total.data), rel=1e-10, abs=0.0)
    assert stats["loss_total"] == pytest.approx(w_stats["loss_total"], rel=1e-10, abs=0.0)
    assert stats["sensors"].keys() == w_stats["sensors"].keys()
    for sid, want_sensor in w_stats["sensors"].items():
        for key in ("mim", "aux"):
            assert stats["sensors"][sid][key] == pytest.approx(want_sensor[key], rel=1e-10,
                                                               abs=0.0), (sid, key)
    assert stats["cross_samples"] == w_stats["cross_samples"] > 0
    assert stats["self_samples"] == w_stats["self_samples"] > 0
    scale = max(float(np.abs(g).max()) for g in w_grads.values() if g is not None)
    for k in params:
        assert (grads[k] is None) == (w_grads[k] is None), k
        if grads[k] is not None:
            np.testing.assert_allclose(grads[k], w_grads[k], rtol=0.0, atol=1e-10 * scale,
                                       err_msg=k)
    assert states == w_states
    assert [(r.block_index, r.expert_counts, r.dropped) for r in reports] == \
        [(r.block_index, r.expert_counts, r.dropped) for r in w_reports]
    for r, w in zip(reports, w_reports):
        np.testing.assert_allclose(r.mean_gate_prob, w.mean_gate_prob, rtol=1e-12)
        assert r.aux_loss == pytest.approx(w.aux_loss, rel=1e-12)
    if moe:
        assert len(reports) == 2 * len(ds.records)  # blocks 1 and 3, sample-major
        assert sum(r.dropped for r in reports) > 0
    else:
        assert reports == []


def test_float32_round_tape_holds_no_float64_array():
    params = init_params(REG, MCFG, seed=1)
    ds = gen_synthetic(REG, 2, 16, 16, seed=3)
    with T.fresh_tape() as tape:
        round_loss(params, MCFG, ds, full_batch(ds), stream_rng(1, STREAM_MASK),
                   stream_rng(1, STREAM_CROSS), p_cross=0.5)
        wide = [a.shape for a in held_arrays(tape) if a.dtype == np.float64]
    assert len(tape) > 0
    assert wide == []


def test_criterion_1_loss_records_every_model_primitive():
    """Acceptance criterion 1 finite-difference checks the pretraining loss
    of this configuration, so it covers every primitive on its tape.  That
    tape and one fine-tuning step of each transfer head together record
    every primitive the tensor module defines, so none is dead code; the
    heads' losses each have their own check in test_tensor.py."""
    recording = {name for name, fn in vars(T).items()
                 if inspect.isfunction(fn) and fn.__module__ == T.__name__
                 and "_record" in fn.__code__.co_names}

    def kinds(tape):
        return {fn.__qualname__.split(".")[0] for _, fn in tape.nodes}

    ds = gen_synthetic(REG, 4, 16, 16, seed=11)
    mcfg = ModelConfig(width=8, depth=2, heads=2, patch_size=4, image_w=16, image_h=16,
                       mask_unit=8, moe=True, num_experts=2, ffn_mult=2)
    batch = MultisensorBatch(per_sensor={0: ds.by_sensor[0][:2], 1: ds.by_sensor[1][:2]},
                             round_index=0)
    params = init_params(REG, mcfg, 3, dtype=np.float64)
    with T.fresh_tape() as tape:
        round_loss(params, mcfg, ds, batch, stream_rng(1, STREAM_MASK), stream_rng(1, STREAM_CROSS))
        on_tape = kinds(tape)
    assert {"linear", "attend", "layer_norm", "softmax"} <= on_tape
    tuning = set()
    for head in HEADS:
        tcfg = TransferConfig(head=head, num_classes=2)
        tuned = init_transfer_params(params, REG, mcfg, tcfg, (0,), seed=3)
        with T.fresh_tape() as tape:
            task_loss(tuned, mcfg, tcfg, (0,), make_task(ds, tcfg, (0,))[:2])
            tuning |= kinds(tape)
    assert recording == on_tape | tuning


@pytest.fixture(scope="module")
def desk_round_tape():
    """(node count, node kinds, encode calls, decode calls, bytes held, tensors
    held) of one round at the benchmark's desk-pretrain shape: five sensors,
    32x32, width 32, depth 4, MoE, base batch 8.  An encode call is logged by
    its token shape, a decode call by its target sensor.  The bytes are
    those of the arrays the tape holds after the forward pass, parameters
    aside."""
    ds = gen_synthetic(desk_registry(), 32, 32, 32, seed=7)
    trainer = Trainer(ds, ModelConfig(), TrainConfig(base_batch=8, seed=7))
    encoded, decoded = [], []

    def counted_encode(*args, **kwargs):
        encoded.append(args[0].shape)
        return encode(*args, **kwargs)

    def counted_decode(*args, **kwargs):
        decoded.append(args[2])
        return decode(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossmim.model, "encode", counted_encode)
        mp.setattr(crossmim.model, "decode", counted_decode)
        with T.fresh_tape() as tape:
            trainer.loss(trainer.state.params, trainer.next_round())
            kinds = {fn.__qualname__.split(".")[0] for _, fn in tape.nodes}
            nbytes = held_bytes(tape, [p.data for p in trainer.state.params.values()])
            tensors = [o for o in held(tape) if isinstance(o, T.Tensor)]
    return len(tape), kinds, encoded, decoded, nbytes, tensors


def test_desk_round_tape_budget(desk_round_tape):
    """Each feed-forward and expert bank is one node, each attention two
    (`attend`, then the output `linear`), each pre-norm lives inside the
    node that reads it except in MoE blocks, the trunk runs once for all
    five sensors, and the loss is one weighted sum: 123 nodes in all."""
    nodes, kinds = desk_round_tape[:2]
    assert nodes <= 129
    assert {"ffn", "moe_ffn", "attend"} <= kinds
    assert not kinds & {"gelu", "put_rows"}


def test_desk_round_tape_holds_at_most_19_mib(desk_round_tape):
    """The tape holds gradient records and only the arrays that backward
    reads: 15.8 MiB after the forward pass.  With a `layer_norm` node before
    every attention and dense FFN it held 17.7 MiB, with every attention's
    q, k and v also kept 21.8 MiB, with its probabilities also kept
    31.5 MiB, and holding whole tensors, so also every residual sum,
    projection and FFN output, 39.8 MiB."""
    assert desk_round_tape[4] <= 17.0 * 2**20


def test_wide_round_tape_holds_at_most_57_mib():
    """At the benchmark's wide-pretrain shape (two sensors, 64x64, width
    128, depth 4, dense trunk, base batch 4) the tape holds 46.1 MiB,
    parameters aside, after the forward pass, in 55 nodes; it held
    54.1 MiB in 63 nodes with a `layer_norm` node before every attention
    and FFN, and 66.1 MiB in 75 nodes while every attention also kept its
    q, k and v."""
    cfg = ModelConfig(width=128, image_w=64, image_h=64, moe=False)
    trainer = Trainer(gen_synthetic(pair_registry(), 16, 64, 64, seed=7), cfg,
                      TrainConfig(base_batch=4, seed=7))
    with T.fresh_tape() as tape:
        trainer.loss(trainer.state.params, trainer.next_round())
        nbytes = held_bytes(tape, [p.data for p in trainer.state.params.values()])
    assert len(tape) <= 58
    assert nbytes <= 48.8 * 2**20


def test_desk_round_tape_holds_no_tensor(desk_round_tape):
    assert desk_round_tape[5] == []


def test_desk_round_encodes_every_sensor_in_one_call(desk_round_tape):
    encoded = desk_round_tape[2]
    assert encoded == [(40, ModelConfig().tokens, ModelConfig().width)]


def test_desk_round_decodes_each_target_sensor_once(desk_round_tape):
    decoded = desk_round_tape[3]
    assert decoded == [0, 1, 2, 3, 4]


def test_encode_tape_holds_no_residual_sum(monkeypatch):
    """No backward pass reads a residual sum x + attention(...) or
    x + feed-forward(...), so none is reachable from the tape after encode."""
    params = init_params(REG, MCFG, seed=2)
    tokens = T.Tensor(np.random.default_rng(5).normal(size=(3, MCFG.tokens, MCFG.width)),
                      requires_grad=True)
    sums, add = [], T.add

    def spy(a, b):
        out = add(a, b)
        if out.shape == tokens.shape:
            sums.append(out.data)
        return out

    monkeypatch.setattr(T, "add", spy)
    with T.fresh_tape() as tape:
        encode(tokens, MCFG, params)
        kept = held_arrays(tape)
    assert len(sums) == 2 * MCFG.depth
    assert kept and not shares_any(kept, sums)


def test_readme_desk_round_node_count_is_measured(desk_round_tape):
    """The README's Performance paragraph quotes the node count of this round."""
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    performance = readme.split("## Performance", 1)[1].split("\n## ", 1)[0]
    quoted = re.search(r"records\s+(\d+)\s+nodes", performance)
    assert quoted, "README's Performance paragraph no longer quotes the desk-round node count"
    assert int(quoted.group(1)) == desk_round_tape[0]


def test_float32_desk_round_never_calls_scipy_erf():
    """The float32 GELU is NumPy's own; SciPy's erf serves float64 only, so
    in a fresh interpreter neither `import crossmim` nor one float32 desk
    round loads any `scipy` module."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from crossmim import ModelConfig, TrainConfig, Trainer, desk_registry, gen_synthetic
        loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded(), loaded()
        ds = gen_synthetic(desk_registry(), 32, 32, 32, seed=7)
        trainer = Trainer(ds, ModelConfig(), TrainConfig(base_batch=8, seed=7))
        trainer.train_step()
        assert len(trainer.state.history) == 1 and np.isfinite(trainer.state.history[0])
        assert not loaded(), loaded()
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
