"""Shared transformer trunk with sparse top-1 mixture-of-experts blocks.

Every sensor's (B, L, width) token batch passes through one parameter set,
read from the table under `encoder.block<k>.`: pre-norm blocks
`x += attention(ln(x))` then `x += feedforward(ln(x))`, where the
feed-forward of selected blocks is a gated bank of experts.  Each token is
routed to its argmax expert, subject to a per-expert capacity; overflow
tokens skip the expert entirely and ride the residual connection.
Attention is two tape nodes: `attend`, which applies ln1 and projects its
own q, k and v, and the output `linear`.  A dense feed-forward is one `ffn`
node, which applies ln2 itself.  In an MoE block ln2 stays a `layer_norm`
node, because the gate and the experts both read its output.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError


@dataclass(frozen=True)
class RoutingReport:
    """Per-MoE-layer dispatch accounting for one sample's forward pass."""

    block_index: int
    expert_counts: tuple  # tokens actually processed per expert
    mean_gate_prob: tuple  # mean gate probability per expert over the sample's tokens
    dropped: int
    aux_loss: float


class BatchRouting(tuple):
    """The RoutingReports of one MoE layer, one per sample of the batch.

    `expert_counts` and `dropped` read as totals over the batch, so a
    single-sample result reads like that sample's own report.
    """

    @property
    def expert_counts(self):
        return tuple(int(sum(c)) for c in zip(*(r.expert_counts for r in self)))

    @property
    def dropped(self):
        return sum(r.dropped for r in self)

    @property
    def mean_gate_prob(self):
        return tuple(float(np.mean(p)) for p in zip(*(r.mean_gate_prob for r in self)))


def expert_capacity(n_tokens, num_experts, capacity_factor):
    """Tokens one expert takes per sample: floor(cf * n_tokens / E), at
    least 1 and at most n_tokens, which no expert can exceed anyway; the
    clamp comes before the int, so a huge factor cannot overflow."""
    return max(1, int(math.floor(min(capacity_factor * n_tokens / num_experts, n_tokens))))


def attention(x, p, heads):
    """Multi-head self-attention over (B, L, width) sequences; with a
    (gamma, beta) pair under p["norm"], over their layer_norm of x, folded
    into the `attend` node.  The pair rides in `p` so that the signature
    stays (x, p, heads), which `benchmarks/selftest` wraps."""
    qkv = [p[name + part] for part in "qkv" for name in ("w", "b")]
    return T.linear(T.attend(x, *qkv, heads, norm=p.get("norm")), p["wo"], p["bo"])


def _dispatch(assign, n_tokens, num_experts, capacity):
    """Token indices each expert processes, in flat (sample, position) order.

    `assign` holds the expert of every token of B samples of n_tokens each.
    Tokens are stable-sorted by expert; a token's rank within its (sample,
    expert) run is its arrival order, and tokens ranked at or past the
    capacity are dropped.  Returns one index array per expert.
    """
    order = np.argsort(assign, kind="stable")
    run = assign[order] * (len(assign) // n_tokens) + order // n_tokens
    pos = np.arange(len(order))
    rank = pos - np.maximum.accumulate(np.where(np.r_[True, run[1:] != run[:-1]], pos, 0))
    kept = order[rank < capacity]
    return np.split(kept, np.searchsorted(assign[kept], np.arange(1, num_experts)))


def moe_forward(x, gate_w, experts, capacity_factor):
    """Route each token of x, (T, width) or (B, T, width), to its argmax expert.

    experts: list of parameter dicts with keys w1/b1/w2/b2.  The capacity
    floor(cf * T / E) holds per expert and per sample, and a sample's
    overflow tokens are dropped in arrival order.  Returns the combined
    output (zeros where a token was dropped), the balance loss per sample
    as a tape tensor of shape x.shape[:-2], and a BatchRouting with one
    RoutingReport per sample.

    The balance loss is num_experts * sum_e f_e * P_e, where f_e is the
    pre-drop fraction of the sample's tokens assigned to expert e (a
    constant) and P_e the mean gate probability of e over the sample's
    tokens (differentiable).
    """
    num_experts = len(experts)
    if num_experts == 0:
        raise ConfigError("moe_forward needs at least one expert")
    if x.shape[-2] < 1:
        raise ShapeError("moe_forward needs at least one token")
    xb = T.reshape(x, (-1,) + tuple(x.shape[-2:]))  # one sequence is a batch of one
    b, n_tokens, width = xb.shape
    rows = T.reshape(xb, (b * n_tokens, width))

    probs = T.softmax(xb @ gate_w)  # (B, T, E)
    assign = np.argmax(probs.data, axis=-1).reshape(-1)  # ties break to lowest index
    capacity = expert_capacity(n_tokens, num_experts, capacity_factor)

    groups = _dispatch(assign, n_tokens, num_experts, capacity)
    combined = T.moe_ffn(rows, probs, groups, experts)

    sample = np.arange(b * n_tokens) // n_tokens
    routed = np.bincount(sample * num_experts + assign, minlength=b * num_experts)
    routed = routed.reshape(b, num_experts)
    processed = np.minimum(routed, capacity)
    mean_prob = T.reduce_mean(probs, axis=1)  # (B, E)
    fractions = T.constant(routed / float(n_tokens), like=probs)
    aux = T.reduce_sum(mean_prob * fractions, axis=-1) * float(num_experts)  # (B,)

    routing = BatchRouting(RoutingReport(
        block_index=-1,
        expert_counts=tuple(int(c) for c in processed[i]),
        mean_gate_prob=tuple(float(v) for v in mean_prob.data[i]),
        dropped=int(n_tokens - processed[i].sum()),
        aux_loss=float(aux.data[i]),
    ) for i in range(b))
    return T.reshape(combined, x.shape), T.reshape(aux, x.shape[:-2]), routing


def _check_finite(x, block_index, stage):
    if not np.all(np.isfinite(x.data)):
        bad = int(np.size(x.data) - np.count_nonzero(np.isfinite(x.data)))
        raise NumericError(
            f"non-finite activations in block {block_index} after {stage}",
            diagnostics={"block": block_index, "stage": stage, "bad_values": bad},
        )


def encode(x, config, params):
    """Run the shared trunk over a (B, L, width) batch of token sequences.

    `config` is the ModelConfig, whose width, depth, heads,
    moe_block_indices, num_experts and capacity_factor shape the trunk;
    block k reads its parameters under `encoder.block<k>.`.

    Returns (features, aux_loss, reports): aux_loss is the tape sum of
    balance losses over MoE blocks per sample, shaped (B,) (a zero constant
    when there are none); reports holds one RoutingReport per
    (sample, MoE block), sample-major.
    """
    if x.ndim != 3 or x.shape[-1] != config.width:
        raise ShapeError(f"encode expects (B, L, {config.width}) tokens, got {tuple(x.shape)}")
    aux_total = T.constant(np.zeros(x.shape[:1], dtype=x.dtype))
    per_block = []
    for k in range(config.depth):
        b = f"encoder.block{k}."
        attn_params = {key: params[b + "attn." + key]
                       for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
        attn_params["norm"] = (params[b + "ln1.gamma"], params[b + "ln1.beta"])
        x = x + attention(x, attn_params, config.heads)
        _check_finite(x, k, "attention")
        ln2 = (params[b + "ln2.gamma"], params[b + "ln2.beta"])
        if k in config.moe_block_indices:
            # the gate and the expert bank both read the normalized x, so it
            # stays a node of its own, where their two gradients meet
            experts = [{key: params[f"{b}expert{e}.{key}"] for key in ("w1", "b1", "w2", "b2")}
                       for e in range(config.num_experts)]
            y, aux, routing = moe_forward(T.layer_norm(x, *ln2), params[b + "gate.w"], experts,
                                          config.capacity_factor)
            aux_total = aux_total + aux
            per_block.append([replace(r, block_index=k) for r in routing])
        else:
            y = T.ffn(x, *(params[b + "ffn." + key] for key in ("w1", "b1", "w2", "b2")),
                      norm=ln2)
        x = x + y
        _check_finite(x, k, "feedforward")
    reports = [r for sample in zip(*per_block) for r in sample]
    return x, aux_total, reports
