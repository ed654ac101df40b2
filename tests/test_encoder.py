"""Transformer trunk: attention oracle, MoE routing invariants, encode."""

import numpy as np
import pytest

import crossmim.tensor as T
from crossmim.config import ModelConfig
from crossmim.encoder import RoutingReport, attention, encode, expert_capacity, moe_forward
from crossmim.errors import ConfigError, NumericError, ShapeError

import oracles
from test_tensor import check_op, held_arrays, weighted


def test_every_other_block_puts_moe_in_odd_slots():
    assert ModelConfig(depth=8).moe_block_indices == (1, 3, 5, 7)
    assert ModelConfig(depth=2).moe_block_indices == (1,)
    assert ModelConfig(depth=1).moe_block_indices == ()


def test_encoder_config_defaults_and_validation():
    # the trunk's size lives on ModelConfig and is checked where it is built
    cfg = ModelConfig(depth=6, width=32, heads=4)
    assert cfg.moe_block_indices == (1, 3, 5)
    assert cfg.width // cfg.heads == 8
    assert cfg.ffn_mult * cfg.width == 128
    with pytest.raises(ConfigError, match="depth"):
        ModelConfig(depth=-1)
    with pytest.raises(ConfigError, match="divisible by heads"):
        ModelConfig(width=30, heads=4)
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="capacity_factor"):
            ModelConfig(capacity_factor=bad)
    with pytest.raises(ConfigError, match="num_experts"):
        ModelConfig(depth=2, num_experts=0)
    assert ModelConfig(depth=0, capacity_factor=1.0).depth == 0


def test_expert_capacity_floor_with_minimum_one():
    assert expert_capacity(64, 8, 1.25) == 10
    assert expert_capacity(4, 2, 1.25) == 2
    assert expert_capacity(3, 8, 1.25) == 1  # floor would be 0


def test_expert_capacity_clamps_a_huge_factor_to_the_token_count():
    assert expert_capacity(16, 4, 1e308) == 16  # 1e308 * 16 overflows to inf
    assert expert_capacity(16, 4, 8.0) == 16


def attn_params(rng, d, dtype=np.float64, grad=False):
    p = {}
    for k in ("wq", "wk", "wv", "wo"):
        p[k] = T.Tensor(rng.normal(size=(d, d)) * 0.3, dtype=dtype, requires_grad=grad)
    for k in ("bq", "bk", "bv", "bo"):
        p[k] = T.Tensor(rng.normal(size=d) * 0.1, dtype=dtype, requires_grad=grad)
    return p


def attention_naive(x, p, heads):
    """Per-head loops: the slow, obviously-correct reference."""
    n, d = x.shape
    dh = d // heads
    q = x @ p["wq"].data + p["bq"].data
    k = x @ p["wk"].data + p["bk"].data
    v = x @ p["wv"].data + p["bv"].data
    ctx = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        scores -= scores.max(axis=1, keepdims=True)
        w = np.exp(scores)
        w /= w.sum(axis=1, keepdims=True)
        ctx[:, sl] = w @ v[:, sl]
    return ctx @ p["wo"].data + p["bo"].data


def test_attention_matches_per_head_naive(rng):
    b, d, heads, n = 2, 8, 2, 5
    p = attn_params(rng, d)
    x = rng.normal(size=(b, n, d))
    out = attention(T.Tensor(x, dtype=np.float64), p, heads)
    for i in range(b):
        np.testing.assert_allclose(out.data[i], attention_naive(x[i], p, heads), rtol=1e-9)


def test_attention_gradients(rng):
    d, heads, n = 4, 2, 3
    x = rng.normal(size=(2, n, d)) * 0.5
    wq = rng.normal(size=(d, d)) * 0.3
    bq = rng.normal(size=d) * 0.1

    def build(xx, wqq, bqq):
        p = attn_params(np.random.default_rng(0), d)
        p["wq"], p["bq"] = wqq, bqq
        return weighted(attention(xx, p, heads))

    check_op(build, x, wq, bq)


def test_attention_tape_keeps_no_score_sized_array(rng):
    """attend keeps each query's softmax max and sum, not its probabilities,
    which the backward pass re-forms."""
    b, n, d, heads = 2, 7, 8, 2  # L differs from every other axis length
    p = attn_params(rng, d, dtype=np.float32, grad=True)
    x = T.Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
    with T.fresh_tape() as tape:
        attention(x, p, heads)
        shapes = [a.shape for a in held_arrays(tape)]
    assert not [s for s in shapes if s[-2:] == (n, n)]
    assert (b, heads, 1, n) in shapes


def hidden_sized(tape, hidden, params):
    """Tape arrays whose last axis is the FFN hidden width, parameters aside."""
    skip = {id(p.data) for p in params}
    return [a for a in held_arrays(tape) if a.shape[-1:] == (hidden,) and id(a) not in skip]


def test_ffn_tape_keeps_two_hidden_sized_arrays(rng):
    b, n, d, hidden = 2, 7, 8, 11  # the hidden width differs from every other axis length
    x = T.Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
    params = [T.Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((d, hidden), (hidden,), (hidden, d), (d,))]
    with T.fresh_tape() as tape:
        T.ffn(x, *params)
        kept = hidden_sized(tape, hidden, params)
    assert [a.shape for a in kept] == [(b, n, hidden)] * 2


def test_moe_ffn_tape_keeps_two_hidden_sized_arrays_per_expert_with_rows(rng):
    x, gate_w, bank = moe_case(rng, n_tokens=12, d=8, experts=4, hidden=16)
    groups = [np.array([0, 5, 7]), np.array([], dtype=np.intp), np.array([1, 2]),
              np.array([3, 4, 6, 9])]  # rows 8, 10 and 11 dropped; expert 1 idle
    probs = T.Tensor(rng.random((12, 4)), requires_grad=True)
    params = [p for e in bank for p in e.values()]
    with T.fresh_tape() as tape:
        T.moe_ffn(T.Tensor(x, requires_grad=True), probs, groups, bank)
        kept = hidden_sized(tape, 16, params)
    assert sorted(a.shape for a in kept) == [(2, 16)] * 2 + [(3, 16)] * 2 + [(4, 16)] * 2


def moe_case(rng, n_tokens=12, d=8, experts=4, hidden=16, dtype=np.float32):
    x = rng.normal(size=(n_tokens, d)).astype(dtype)
    gate_w = rng.normal(size=(d, experts)).astype(dtype)
    bank = []
    for _ in range(experts):
        bank.append({
            "w1": T.Tensor(rng.normal(size=(d, hidden)).astype(dtype) * 0.5, requires_grad=True),
            "b1": T.Tensor(rng.normal(size=hidden).astype(dtype) * 0.1, requires_grad=True),
            "w2": T.Tensor(rng.normal(size=(hidden, d)).astype(dtype) * 0.5, requires_grad=True),
            "b2": T.Tensor(rng.normal(size=d).astype(dtype) * 0.1, requires_grad=True),
        })
    return x, gate_w, bank


def test_moe_matches_naive_dispatch_bitwise(rng):
    for trial in range(5):
        x, gate_w, bank = moe_case(np.random.default_rng(100 + trial))
        combined, aux, report = moe_forward(
            T.Tensor(x), T.Tensor(gate_w), bank, capacity_factor=1.25)
        raw = [{k: v.data for k, v in e.items()} for e in bank]
        ref_out, ref_aux, ref_counts, ref_dropped = \
            oracles.moe_dispatch_naive(x, gate_w, raw, 1.25)
        np.testing.assert_array_equal(combined.data, ref_out)
        assert float(aux.data) == ref_aux
        assert report.expert_counts == ref_counts
        assert report.dropped == len(ref_dropped)


def test_moe_conserves_tokens_and_respects_capacity(rng):
    for n_tokens in (5, 16, 37, 64):
        x, gate_w, bank = moe_case(rng, n_tokens=n_tokens, experts=4)
        _, _, report = moe_forward(T.Tensor(x), T.Tensor(gate_w), bank, 1.25)
        cap = expert_capacity(n_tokens, 4, 1.25)
        assert sum(report.expert_counts) + report.dropped == n_tokens
        assert all(c <= cap for c in report.expert_counts)


def test_moe_ties_break_to_lowest_index(rng):
    x, gate_w, bank = moe_case(rng, n_tokens=4)
    x[0] = 0.0  # zero token -> all gate logits equal -> expert 0
    _, _, report = moe_forward(T.Tensor(x), T.Tensor(gate_w * 0.0), bank, 4.0)
    assert report.expert_counts[0] == 4
    assert report.expert_counts[1:] == (0, 0, 0)


def test_moe_dropped_rows_are_exactly_zero(rng):
    # one dominant expert and capacity 1 forces drops
    x, _, bank = moe_case(rng, n_tokens=4, experts=2)
    gate_w = np.zeros((8, 2), dtype=np.float32)  # all tokens tie to expert 0
    combined, _, report = moe_forward(T.Tensor(x), T.Tensor(gate_w), bank, 1.0)
    assert report.expert_counts == (2, 0)  # capacity floor(1*4/2) = 2
    assert report.dropped == 2
    np.testing.assert_array_equal(combined.data[2:], np.zeros((2, 8), np.float32))
    assert np.any(combined.data[:2] != 0.0)


def test_moe_single_expert_reduces_to_plain_ffn(rng):
    x, _, bank = moe_case(rng, n_tokens=6, experts=1)
    gate_w = rng.normal(size=(8, 1)).astype(np.float32)
    combined, aux, report = moe_forward(T.Tensor(x), T.Tensor(gate_w), bank, 1.25)
    e = bank[0]
    expect = T.ffn(T.Tensor(x), e["w1"], e["b1"], e["w2"], e["b2"])
    # softmax over one logit is exactly 1, so gating is a no-op
    np.testing.assert_array_equal(combined.data, expect.data)
    assert float(aux.data) == 1.0
    assert report.dropped == 0


def test_moe_balance_loss_is_one_for_uniform_routing(rng):
    # zero gate weights: every token ties to expert 0, so f = (1,0,...,0) and
    # P_e = 1/E exactly; the loss E * sum f_e P_e is exactly 1.0
    for experts in (2, 8):
        x, _, bank = moe_case(rng, n_tokens=16, experts=experts)
        gate_w = np.zeros((8, experts), dtype=np.float32)
        _, aux, _ = moe_forward(T.Tensor(x), T.Tensor(gate_w), bank, 8.0)
        assert float(aux.data) == 1.0


def test_moe_balance_loss_grows_when_routing_collapses(rng):
    x, gate_w, bank = moe_case(rng, n_tokens=32, experts=4)
    _, aux_spread, _ = moe_forward(T.Tensor(x), T.Tensor(gate_w * 0.0), bank, 8.0)
    x[:, 0] = np.abs(x[:, 0]) + 1.0  # positive feature every token shares
    strong = np.zeros_like(gate_w)
    strong[0, 0] = 50.0  # that feature slams everything onto expert 0
    _, aux_collapsed, _ = moe_forward(T.Tensor(x), T.Tensor(strong), bank, 8.0)
    assert float(aux_collapsed.data) > float(aux_spread.data) + 1.0


def test_moe_validation(rng):
    x, gate_w, bank = moe_case(rng)
    with pytest.raises(ConfigError):
        moe_forward(T.Tensor(x), T.Tensor(gate_w), [], 1.25)
    with pytest.raises(ShapeError):
        moe_forward(T.Tensor(np.zeros((0, 8), np.float32)), T.Tensor(gate_w),
                    bank, 1.25)


def test_moe_gradients_flow_through_gate_and_experts(rng):
    d, experts, hidden, n = 4, 2, 6, 5
    x = rng.normal(size=(n, d))
    gate_w = rng.normal(size=(d, experts))

    def build(xx, gw):
        bank = []
        r = np.random.default_rng(3)
        for _ in range(experts):
            bank.append({
                "w1": T.constant(r.normal(size=(d, hidden)) * 0.5, like=xx),
                "b1": T.constant(r.normal(size=hidden) * 0.1, like=xx),
                "w2": T.constant(r.normal(size=(hidden, d)) * 0.5, like=xx),
                "b2": T.constant(r.normal(size=d) * 0.1, like=xx),
            })
        combined, aux, _ = moe_forward(xx, gw, bank, 2.0)
        return weighted(combined) + aux

    # routing decisions are data-dependent constants; FD still agrees because
    # the perturbation is far too small to flip an argmax here
    check_op(build, x, gate_w, rel=1e-3, atol=1e-7)


# ---------------------------------------------------------------------------
# encode

def enc_params(cfg, rng, dtype=np.float64, grad=False):
    p = {}
    d, hidden = cfg.width, cfg.ffn_mult * cfg.width

    def mk(shape, scale=0.3):
        return T.Tensor(rng.normal(size=shape) * scale, dtype=dtype, requires_grad=grad)

    for k in range(cfg.depth):
        b = f"encoder.block{k}."
        p[b + "ln1.gamma"] = T.Tensor(np.ones(d), dtype=dtype, requires_grad=grad)
        p[b + "ln1.beta"] = T.Tensor(np.zeros(d), dtype=dtype, requires_grad=grad)
        p[b + "ln2.gamma"] = T.Tensor(np.ones(d), dtype=dtype, requires_grad=grad)
        p[b + "ln2.beta"] = T.Tensor(np.zeros(d), dtype=dtype, requires_grad=grad)
        for k2 in ("wq", "wk", "wv", "wo"):
            p[b + "attn." + k2] = mk((d, d))
        for k2 in ("bq", "bk", "bv", "bo"):
            p[b + "attn." + k2] = mk(d, 0.05)
        if k in cfg.moe_block_indices:
            p[b + "gate.w"] = mk((d, cfg.num_experts))
            for e in range(cfg.num_experts):
                p[f"{b}expert{e}.w1"] = mk((d, hidden))
                p[f"{b}expert{e}.b1"] = mk(hidden, 0.05)
                p[f"{b}expert{e}.w2"] = mk((hidden, d))
                p[f"{b}expert{e}.b2"] = mk(d, 0.05)
        else:
            p[b + "ffn.w1"] = mk((d, hidden))
            p[b + "ffn.b1"] = mk(hidden, 0.05)
            p[b + "ffn.w2"] = mk((hidden, d))
            p[b + "ffn.b2"] = mk(d, 0.05)
    return p


def test_encode_depth_zero_is_identity(rng):
    cfg = ModelConfig(depth=0, width=8, heads=2, moe=False)
    x = T.Tensor(rng.normal(size=(2, 4, 8)))
    out, aux, reports = encode(x, cfg, {})
    np.testing.assert_array_equal(out.data, x.data)
    np.testing.assert_array_equal(aux.data, [0.0, 0.0])
    assert reports == []


def test_encode_shapes_and_reports(rng):
    cfg = ModelConfig(depth=4, width=8, heads=2, num_experts=2, ffn_mult=2)
    p = enc_params(cfg, rng)
    x = T.Tensor(rng.normal(size=(2, 6, 8)), dtype=np.float64)
    out, aux, reports = encode(x, cfg, p)
    assert out.shape == (2, 6, 8) and aux.shape == (2,)
    assert [r.block_index for r in reports] == [1, 3, 1, 3]  # sample-major
    for r in reports:
        assert sum(r.expert_counts) + r.dropped == 6
        assert abs(sum(r.mean_gate_prob) - 1.0) < 1e-6
    for i in range(2):
        own = reports[2 * i:2 * i + 2]
        assert float(aux.data[i]) == pytest.approx(sum(r.aux_loss for r in own))


def test_encode_rejects_wrong_token_width(rng):
    cfg = ModelConfig(depth=1, width=8, heads=2, moe=False)
    with pytest.raises(ShapeError):
        encode(T.Tensor(rng.normal(size=(1, 4, 7))), cfg, {})


def test_encode_flags_non_finite_with_block_and_stage(rng):
    cfg = ModelConfig(depth=2, width=8, heads=2, moe=False, ffn_mult=2)
    p = enc_params(cfg, rng)
    x = T.Tensor(rng.normal(size=(1, 4, 8)), dtype=np.float64)

    p["encoder.block0.attn.wo"].data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        encode(x, cfg, p)
    assert exc.value.diagnostics["block"] == 0
    assert exc.value.diagnostics["stage"] == "attention"

    p["encoder.block0.attn.wo"].data[0, 0] = 0.3
    p["encoder.block1.ffn.w2"].data[:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        encode(x, cfg, p)
    assert exc.value.diagnostics["block"] == 1
    assert exc.value.diagnostics["stage"] == "feedforward"


def test_encode_gradients_through_moe_trunk(rng):
    cfg = ModelConfig(depth=2, width=4, heads=2, num_experts=2, ffn_mult=2)
    p = enc_params(cfg, np.random.default_rng(8))
    x = rng.normal(size=(2, 5, 4)) * 0.5

    def build(xx):
        out, aux, _ = encode(xx, cfg, p)
        return weighted(out) + T.reduce_sum(aux)

    check_op(build, x, rel=1e-3, atol=1e-7)
