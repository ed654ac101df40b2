"""Autodiff core: finite-difference checks per op, tape mechanics, errors."""

import tracemalloc
import types

import numpy as np
import pytest
from scipy.special import erf, ndtr

import crossmim.tensor as T
from crossmim.errors import NumericError, ShapeError

import oracles


def check_op(build, *arrays, rel=1e-4, atol=1e-9, h=1e-5):
    """Gradient-check a scalar-valued composition of library ops in 64-bit."""
    leaves = [T.Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
              for a in arrays]
    with T.fresh_tape():
        out = build(*leaves)
        T.backward(out)
    analytic = {str(i): (leaf.grad.copy() if leaf.grad is not None
                         else np.zeros_like(leaf.data))
                for i, leaf in enumerate(leaves)}
    for leaf in leaves:
        leaf.grad = None

    def loss():
        with T.fresh_tape():
            return float(build(*leaves).data)

    fd = oracles.fd_gradients({str(i): leaf for i, leaf in enumerate(leaves)},
                              loss, h=h)
    bad = oracles.grad_mismatches(analytic, fd, rel, atol)
    assert not bad, f"gradient mismatches: {bad}"


def weighted(x, seed=0):
    """Project to a scalar with fixed random weights so every output entry
    contributes a distinct gradient (catches transposed/misplaced grads)."""
    w = np.random.default_rng(seed).normal(size=x.shape)
    return T.reduce_sum(x * T.constant(w, like=x))


# ---------------------------------------------------------------------------
# tensor basics

def test_tensor_defaults_to_float32():
    t = T.Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float32
    assert t.shape == (2, 2)
    assert not t.requires_grad


def test_tensor_scalar_stays_zero_dim():
    t = T.Tensor(3.5)
    assert t.shape == ()
    assert t.item() == 3.5
    s = T.reduce_sum(T.Tensor(np.ones((2, 3))))
    assert s.shape == ()
    assert float(s.data) == 6.0


def test_tensor_detach_and_repr():
    t = T.Tensor(np.ones(3), requires_grad=True)
    assert "requires_grad=True" in repr(t)


def test_operator_sugar_with_python_scalars():
    t = T.Tensor(np.array([2.0, 4.0]), requires_grad=True)
    out = (1.0 + t) * 3.0
    np.testing.assert_allclose(out.data, [9.0, 15.0])


# ---------------------------------------------------------------------------
# tape mechanics

def held(tape):
    """Every object a node of `tape` reaches: the node, its output record
    and that record's gradient, and what its backward closure captures,
    looking inside lists, tuples, records, tensors and nested functions."""
    found = {}

    def visit(item):
        if id(item) in found:
            return
        found[id(item)] = item
        if isinstance(item, (list, tuple)):
            for sub in item:
                visit(sub)
        elif isinstance(item, types.FunctionType):
            for cell in item.__closure__ or ():
                visit(cell.cell_contents)
        elif isinstance(item, T.GradRecord):
            visit(item.grad)
        elif isinstance(item, T.Tensor):
            visit(item.data)

    for node in tape.nodes:
        visit(node)
    return list(found.values())


def held_arrays(tape):
    return [a for a in held(tape) if isinstance(a, np.ndarray)]


def _buffer(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def held_bytes(tape, exclude=()):
    """Bytes of the distinct buffers behind the tape's arrays, where a view
    counts as the array it views, leaving out the buffers of `exclude`."""
    skip = {id(_buffer(a)) for a in exclude}
    buffers = {id(b): b for b in map(_buffer, held_arrays(tape))}
    return sum(b.nbytes for key, b in buffers.items() if key not in skip)


def shares_any(arrays, others):
    return any(np.shares_memory(a, b) for a in arrays for b in others)


def test_add_and_shape_ops_keep_no_array():
    """add, reshape and concat keep records only; take_rows keeps its index."""
    a = T.Tensor(np.ones((4, 3)), requires_grad=True)
    b = T.Tensor(np.ones((4, 3)), requires_grad=True)
    for build in (lambda: a + b, lambda: T.reshape(a, (3, 4)), lambda: T.concat([a, b]),
                  lambda: T.take_rows(a, [2, 0])):
        with T.fresh_tape() as tape:
            build()
        assert len(tape) == 1
        assert not any(isinstance(o, T.Tensor) for o in held(tape))
        assert [kept.tolist() for kept in held_arrays(tape)] in ([], [[2, 0]])


def test_layer_norm_does_not_hold_its_input(rng):
    x = T.Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
    gamma = T.Tensor(rng.normal(size=8), requires_grad=True)
    beta = T.Tensor(np.zeros(8), requires_grad=True)
    with T.fresh_tape() as tape:
        T.layer_norm(x, gamma, beta)
    kept = held_arrays(tape)
    assert not shares_any(kept, [x.data])
    assert shares_any(kept, [gamma.data])


def test_mul_keeps_an_operand_only_for_the_other_operands_gradient(rng):
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = T.constant(rng.normal(size=(3, 4)), like=x)
    with T.fresh_tape() as tape:
        x * c
    kept = held_arrays(tape)
    assert shares_any(kept, [c.data])
    assert not shares_any(kept, [x.data])
    y = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with T.fresh_tape() as tape:
        x * y
    assert shares_any(held_arrays(tape), [x.data]) and shares_any(held_arrays(tape), [y.data])


def test_linear_keeps_an_operand_only_for_the_other_operands_gradient(rng):
    """As in `mul`, x is kept for w's gradient and w for x's, so a constant
    x, such as `conv_patch`'s patch rows, keeps no w and gets no gradient."""
    x = T.constant(rng.normal(size=(2, 3, 4)))
    w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = T.Tensor(rng.normal(size=5), requires_grad=True)
    g = rng.normal(size=(2, 3, 5))
    with T.fresh_tape() as tape:
        out = T.linear(x, w, b)
        kept = held_arrays(tape)
        T.backward(T.reduce_sum(out * T.constant(g, like=out)))
    assert shares_any(kept, [x.data]) and not shares_any(kept, [w.data])
    assert x.grad is None
    np.testing.assert_allclose(w.grad, np.einsum("blk,bln->kn", x.data, g), rtol=1e-12)
    w_only = T.constant(w.data)
    xt = T.Tensor(x.data, requires_grad=True)
    with T.fresh_tape() as tape:
        T.linear(xt, w_only, b)
        kept = held_arrays(tape)
    assert shares_any(kept, [w_only.data]) and not shares_any(kept, [xt.data])


def test_backward_follows_reassigned_data():
    """Assigning `data`, as AdamW and checkpoint loads do, keeps the record
    in step: the gradient takes the new array's shape and dtype."""
    p = T.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    p.data = np.full((3, 2), 2.0)  # float64, a new shape
    assert (p.rec.shape, p.rec.dtype) == ((3, 2), np.float64)
    with T.fresh_tape():
        T.backward(T.reduce_sum(p * T.Tensor(np.ones(2), dtype=np.float64)))
    assert p.grad.shape == (3, 2) and p.grad.dtype == np.float64
    np.testing.assert_array_equal(p.grad, np.ones((3, 2)))
    b = T.Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    b.data = np.arange(4, dtype=np.float32)  # same shape and dtype
    x = T.Tensor(np.ones((2, 5, 4), dtype=np.float32))
    with T.fresh_tape():
        T.backward(T.reduce_sum(x + b))  # a broadcast gradient sums down to b
    assert b.grad.shape == (4,) and b.grad.dtype == np.float32
    np.testing.assert_array_equal(b.grad, np.full(4, 10.0, dtype=np.float32))


def test_fresh_tape_isolates_and_restores():
    outer = T.active_tape()
    x = T.Tensor(np.ones(2), requires_grad=True)
    _ = x + x
    n_before = len(outer)
    with T.fresh_tape() as inner:
        _ = x * x
        assert len(inner) == 1
        assert T.active_tape() is inner
    assert T.active_tape() is outer
    assert len(outer) == n_before


def test_no_grad_stops_recording():
    x = T.Tensor(np.ones(2), requires_grad=True)
    with T.fresh_tape() as tape:
        with T.no_grad():
            y = x * x
        assert len(tape) == 0
        assert not y.requires_grad


def test_backward_accumulates_until_cleared():
    x = T.Tensor(np.array([3.0]), requires_grad=True)
    with T.fresh_tape():
        y = x * x
        T.backward(y)
        T.backward(y)
    np.testing.assert_allclose(x.grad, [12.0])  # two accumulated passes
    x.grad = None
    with T.fresh_tape():
        T.backward(x * x)
    np.testing.assert_allclose(x.grad, [6.0])  # one pass after clearing


def test_backward_rejects_non_scalar_and_disconnected():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.fresh_tape():
        y = x * x
        with pytest.raises(ShapeError):
            T.backward(y)
    z = T.Tensor(np.ones(1))
    with pytest.raises(ShapeError):
        T.backward(z)


def test_intermediate_grads_are_consumed_leaves_keep_theirs():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.fresh_tape():
        mid = x * 2.0
        out = T.reduce_sum(mid)
        T.backward(out)
    assert mid.grad is None
    np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])


# ---------------------------------------------------------------------------
# elementwise and arithmetic gradients

def test_grad_add_sub_mul_div(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    check_op(lambda x, y: weighted(x + y), a, b)
    check_op(lambda x, y: weighted(x * y), a, b)


def test_grad_broadcasting(rng):
    col = rng.normal(size=(3, 1))
    row = rng.normal(size=(1, 4))
    full = rng.normal(size=(3, 4))
    check_op(lambda x, y: weighted(x + y), col, row)
    check_op(lambda x, y: weighted(x * y), col, full)
    check_op(lambda x, y: weighted(x + y), np.array(2.0), full)


def test_forward_gelu_matches_erf_formula(rng):
    # with identity weights and zero biases, ffn is the GELU alone
    x = rng.normal(size=(5, 5))
    eye, zero = T.Tensor(np.eye(5), dtype=np.float64), T.Tensor(np.zeros(5), dtype=np.float64)
    out = T.ffn(T.Tensor(x, dtype=np.float64), eye, zero, eye, zero)
    expect = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(out.data, expect, rtol=1e-12)


# float32 GELU and GELU' against float64, absolute: 4.2 ulp of 1.0, 5.0e-7
GELU32_BOUND = 4.2 * float(np.finfo(np.float32).eps)


def erf_gelu(h):
    """(gelu, gelu') through scipy's erf, in h's own dtype."""
    cdf = 0.5 * (1.0 + erf(h * (1.0 / np.sqrt(2.0))))
    return h * cdf, cdf + h * (np.exp(-0.5 * h * h) / np.sqrt(2.0 * np.pi))


def test_float32_gelu_within_bound_of_float64_ndtr():
    tails = [1e-30, 10.0, 1e4]
    h = np.concatenate([np.linspace(-6.0, 6.0, 1_200_001), tails, np.negative(tails)])
    h = h.astype(np.float32)
    act, dact = T._gelu(h.copy())
    assert act.dtype == dact.dtype == np.float32
    h64 = h.astype(np.float64)
    cdf = ndtr(h64)
    want = (h64 * cdf, cdf + h64 * np.exp(-0.5 * h64 * h64) / np.sqrt(2.0 * np.pi))
    for got, exact in zip((act, dact), want):
        err = np.abs(got - exact).max()
        assert err <= GELU32_BOUND, f"{err:.3e} = {err / np.finfo(np.float32).eps:.2f} ulp of 1.0"


def test_float32_gelu_special_values_match_erf_path():
    h = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=np.float32)
    with np.errstate(invalid="ignore"):
        got, want = T._gelu(h.copy()), erf_gelu(h)
    for g, w in zip(got, want):
        assert g.dtype == np.float32
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(np.signbit(g[1:]), np.signbit(w[1:]))


@pytest.mark.parametrize("name", ["ffn", "moe_ffn"])
def test_float32_ffn_within_bound_of_float64_oracle(name, rng):
    # measured worst over 200 draws: 1.1e-6 of the scale (7e-7 with scipy's erf)
    arrays, fused, composite = fused_and_composite(name, rng)
    leaves = [T.Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
    with T.fresh_tape():
        out = fused(*leaves)
        g = rng.normal(size=out.shape)
        T.backward(T.reduce_sum(out * T.constant(g, like=out)))
    expect = composite(*arrays, g)
    for got, want in zip([out.data] + [leaf.grad for leaf in leaves], expect):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-6 * np.abs(want).max())


# ---------------------------------------------------------------------------
# structural op gradients

def test_grad_matmul_2d_and_batched(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    check_op(lambda x, y: weighted(T.matmul(x, y)), a, b)
    ab = rng.normal(size=(2, 3, 4))
    bb = rng.normal(size=(2, 4, 5))
    check_op(lambda x, y: weighted(T.matmul(x, y)), ab, bb)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 4))), T.Tensor(np.ones(3)))


def test_grad_reshape_transpose(rng):
    a = rng.normal(size=(2, 3, 4))
    check_op(lambda x: weighted(T.reshape(x, (6, 4))), a)
    check_op(lambda x: weighted(T.transpose(x, (2, 0, 1))), a)
    check_op(lambda x: weighted(T.transpose(x)), rng.normal(size=(3, 5)))


def test_grad_reductions(rng):
    a = rng.normal(size=(3, 4))
    check_op(lambda x: T.reduce_sum(x), a)
    check_op(lambda x: weighted(T.reduce_sum(x, axis=0)), a)
    check_op(lambda x: T.reduce_mean(x), a)
    check_op(lambda x: weighted(T.reduce_mean(x, axis=0)), a)


def test_grad_take_rows_repeats_accumulate(rng):
    a = rng.normal(size=(4, 3))
    check_op(lambda x: weighted(T.take_rows(x, [0, 2, 2, 1])), a)
    check_op(lambda x: weighted(T.take_rows(x, [3, 0, -2])), a)  # no repeats
    check_op(lambda x: weighted(T.take_rows(x, [1, -3])), a)  # -3 repeats row 1
    x = T.Tensor(np.ones((3, 2)), requires_grad=True)
    with T.fresh_tape():
        out = T.reduce_sum(T.take_rows(x, [1, 1, 1]))
        T.backward(out)
    np.testing.assert_allclose(x.grad, [[0, 0], [3, 3], [0, 0]])


def test_grad_concat(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
    check_op(lambda x, y: weighted(T.concat([x, y], axis=1)), a, b)
    c, d = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    check_op(lambda x, y: weighted(T.concat([x, y], axis=0)), c, d)


# ---------------------------------------------------------------------------
# fused layers

def test_grad_softmax_layer_norm(rng):
    a = rng.normal(size=(3, 5))
    check_op(lambda x: weighted(T.softmax(x)), a)
    g, b = rng.normal(size=5) + 1.0, rng.normal(size=5)
    check_op(lambda x, gg, bb: weighted(T.layer_norm(x, gg, bb)), a, g, b)
    check_op(lambda x, gg, bb: weighted(T.layer_norm(x, gg, bb)),
             rng.normal(size=(2, 3, 5)), g, b)


def attention_arrays(rng, b, n, k, d):
    """x (b, n, k), then wq, bq, wk, bk, wv, bv for (k, d) projections."""
    arrays = [rng.normal(size=(b, n, k))]
    for _ in "qkv":
        arrays += [rng.normal(size=(k, d)) * k ** -0.5, rng.normal(size=d) * 0.3]
    return arrays


def test_grad_linear_attend(rng):
    w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
    check_op(lambda x, ww, bb: weighted(T.linear(x, ww, bb)), rng.normal(size=(5, 4)), w, b)
    check_op(lambda x, ww, bb: weighted(T.linear(x, ww, bb)), rng.normal(size=(2, 5, 4)), w, b)
    check_op(lambda *a: weighted(T.attend(*a, 2)), *attention_arrays(rng, 2, 5, 4, 6))


EXPERT_KEYS = ("w1", "b1", "w2", "b2")


def ffn_arrays(rng, d=6, hidden=5):
    return (rng.normal(size=(d, hidden)) * 0.7, rng.normal(size=hidden) * 0.3,
            rng.normal(size=(hidden, d)) * 0.7, rng.normal(size=d) * 0.3)


def moe_case(rng, groups, experts=3, d=6):
    """(rows, probs, expert weights...) arrays and the fused op over tensors."""
    n = 1 + max(int(i) for idx in groups for i in idx)
    arrays = (rng.normal(size=(n, d)), rng.random((n, experts)) + 0.1) + \
        sum((ffn_arrays(rng, d) for _ in range(experts)), ())

    def fused(rows, probs, *weights):
        bank = [dict(zip(EXPERT_KEYS, weights[4 * e:4 * e + 4])) for e in range(experts)]
        return T.moe_ffn(rows, probs, groups, bank)

    return arrays, fused


def test_grad_ffn_moe_ffn(rng):
    check_op(lambda *a: weighted(T.ffn(*a)), rng.normal(size=(2, 4, 6)), *ffn_arrays(rng))
    # rows 1 and 6 are dropped and expert 2 receives none
    groups = [np.array([0, 4]), np.array([2, 3, 5]), np.array([], dtype=np.intp)]
    arrays, fused = moe_case(rng, groups)
    check_op(lambda *a: weighted(fused(*a)), *arrays)


def test_moe_ffn_forward_scatters_gated_rows_into_zeros(rng):
    groups = [np.array([3]), np.array([0, 1])]
    arrays, fused = moe_case(rng, groups, experts=2)
    out = fused(*(T.Tensor(a, dtype=np.float64) for a in arrays)).data
    rows, probs, weights = arrays[0], arrays[1], arrays[2:]
    for e, idx in enumerate(groups):
        y = T.ffn(*(T.Tensor(a) for a in (rows[idx],) + weights[4 * e:4 * e + 4]))
        np.testing.assert_array_equal(out[idx], y.data * probs[idx, e][:, None])
    np.testing.assert_array_equal(out[2], np.zeros(6))


def fused_and_composite(name, rng):
    """(inputs, fused op over tensors, composite oracle over arrays) per fused layer."""
    x, gamma, beta = rng.normal(size=(2, 6, 8)) * 2.0 + 1.0, rng.normal(size=8), rng.normal(size=8)
    if name == "softmax":
        return (x * 3.0,), T.softmax, oracles.softmax_composite
    if name == "layer_norm":
        return (x, gamma, beta), T.layer_norm, oracles.layer_norm_composite
    if name == "linear":
        return (x, rng.normal(size=(8, 5)), beta[:5]), T.linear, oracles.linear_composite
    if name == "ffn":
        return (x * 0.5,) + ffn_arrays(rng, d=8), T.ffn, oracles.ffn_composite
    if name == "moe_ffn":
        groups = [np.array([7, 0, 4]), np.array([2, 3]), np.array([6, 1])]  # row 5 dropped
        arrays, fused = moe_case(rng, groups)
        return arrays, fused, lambda rows, probs, *rest: oracles.moe_ffn_composite(
            rows, probs, groups, [rest[4 * e:4 * e + 4] for e in range(3)], rest[-1])
    x, wq, bq, wk, bk, wv, bv = attention_arrays(rng, 2, 6, 5, 8)
    # q . bk adds the same term to every score of a softmax row, so bk's
    # gradient is zero up to rounding; it enters as a constant here

    def fused(x, wq, bq, wk, wv, bv):
        return T.attend(x, wq, bq, wk, T.constant(bk, like=x), wv, bv, 2)

    def composite(x, wq, bq, wk, wv, bv, g):
        grads = oracles.attend_projected_composite(x, wq, bq, wk, bk, wv, bv, 2, g)
        return grads[:5] + grads[6:]

    return (x, wq, bq, wk, wv, bv), fused, composite


@pytest.mark.parametrize("name", ["softmax", "layer_norm", "linear", "ffn", "moe_ffn", "attend"])
def test_fused_layer_matches_composite_oracle(name, rng):
    arrays, fused, composite = fused_and_composite(name, rng)
    leaves = [T.Tensor(a, dtype=np.float64, requires_grad=True) for a in arrays]
    with T.fresh_tape():
        out = fused(*leaves)
        g = rng.normal(size=out.shape)
        T.backward(T.reduce_sum(out * T.constant(g, like=out)))
    expect = composite(*arrays, g)
    for got, want in zip([out.data] + [leaf.grad for leaf in leaves], expect):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("name", ["linear", "layer_norm", "ffn"])
def test_batch_matches_single_sample_calls_bitwise_in_float32(name, rng):
    arrays, fused, _ = fused_and_composite(name, rng)
    g = rng.normal(size=fused(*[T.Tensor(a) for a in arrays]).shape)

    def run(xs, gs):
        """Outputs, x grads and parameter grads, stacked over the calls."""
        xs = [T.Tensor(x, dtype=np.float32, requires_grad=True) for x in xs]
        params = [T.Tensor(a, dtype=np.float32, requires_grad=True) for a in arrays[1:]]
        with T.fresh_tape():
            outs = [fused(x, *params) for x in xs]
            terms = [T.reduce_sum(out * T.constant(gi, like=out)) for out, gi in zip(outs, gs)]
            loss = terms[0]
            for term in terms[1:]:
                loss = loss + term
            T.backward(loss)
        return [np.stack([o.data for o in outs]), np.stack([x.grad for x in xs])] + \
            [p.grad for p in params]

    batched = run([arrays[0]], [g])
    single = run(list(arrays[0]), list(g))
    for got, want in zip(batched, single):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.reshape(want.shape), want)


def test_attend_blocks_match_single_sample_calls_bitwise_in_float32(rng):
    """Two full sample blocks and a partial third give the bits of one call
    per sample, in the output and in all seven gradients."""
    heads, x, params, g = multi_block_attend_case(rng)

    def run(xs, gs):
        """Outputs and x grads, stacked over the calls, then parameter grads."""
        xs = [T.Tensor(a, requires_grad=True) for a in xs]
        leaves = [T.Tensor(a, requires_grad=True) for a in params]
        with T.fresh_tape():
            outs = [T.attend(xi, *leaves, heads) for xi in xs]
            terms = [T.reduce_sum(out * T.constant(gi, like=out)) for out, gi in zip(outs, gs)]
            loss = terms[0]
            for term in terms[1:]:
                loss = loss + term
            T.backward(loss)
        return [np.concatenate([o.data for o in outs]), np.concatenate([xi.grad for xi in xs])] + \
            [leaf.grad for leaf in leaves]

    batched = run([x], [g])
    single = run([x[i:i + 1] for i in range(len(x))], [g[i:i + 1] for i in range(len(x))])
    assert len(batched) == 8
    for got, want in zip(batched, single):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unrecorded_ffn_and_moe_ffn_never_ask_for_gelu_derivative(rng, monkeypatch, dtype):
    asked = []
    gelu = T._gelu

    def spy(h, grad=True):
        asked.append(grad)
        return gelu(h, grad)

    monkeypatch.setattr(T, "_gelu", spy)
    arrays, moe = moe_case(rng, [np.array([0, 4]), np.array([2, 3, 5])])
    cases = [(T.ffn, (rng.normal(size=(2, 4, 6)),) + ffn_arrays(rng)), (moe, arrays)]
    for op, inputs in cases:
        leaves = [T.Tensor(a, dtype=dtype, requires_grad=True) for a in inputs]
        with T.no_grad():
            unrecorded = op(*leaves).data
        assert asked and not any(asked)
        asked.clear()
        with T.fresh_tape():
            recorded = op(*leaves).data
        assert asked and all(asked)
        asked.clear()
        np.testing.assert_array_equal(unrecorded, recorded)


def test_unrecorded_attend_reuses_one_block_of_scores(rng):
    """Without a tape, attend keeps no (B, H, L, L) probabilities: it reuses
    one sample block's score buffer, and its output keeps the same bits."""
    heads, x, params, _ = multi_block_attend_case(rng)
    b, n = x.shape[:2]
    per_sample = heads * n * n * 4
    x, *params = (T.Tensor(a, requires_grad=True) for a in [x] + params)
    with T.fresh_tape():
        recorded = T.attend(x, *params, heads).data
    tracemalloc.start()
    try:
        with T.no_grad():
            unrecorded = T.attend(x, *params, heads).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < b * per_sample
    np.testing.assert_array_equal(unrecorded, recorded)


def test_attend_rejects_nan_scores(rng):
    x, *params = (T.Tensor(a) for a in attention_arrays(rng, 1, 4, 5, 6))
    x.data[0, 2, 4] = np.nan  # one token's q, k and v
    with pytest.raises(NumericError, match="softmax received NaN input"):
        T.attend(x, *params, 2)


def test_recorded_attend_rejects_nan_scores(rng):
    x, *params = (T.Tensor(a, requires_grad=True) for a in attention_arrays(rng, 1, 4, 5, 6))
    x.data[0, 2, 4] = np.nan
    with T.fresh_tape() as tape:
        with pytest.raises(NumericError, match="softmax received NaN input"):
            T.attend(x, *params, 2)
    assert len(tape) == 0


def multi_block_attend_case(rng):
    """(heads, x, [wq, bq, wk, bk, wv, bv], g) in float32 for two full
    sample blocks of attention scores plus a partial third."""
    heads, n, d = 4, 128, 32
    b = 2 * (T._ATTEND_BLOCK // (heads * n * n * 4)) + 1
    x, *params = (a.astype(np.float32) for a in attention_arrays(rng, b, n, d, d))
    return heads, x, params, rng.normal(size=(b, n, d)).astype(np.float32)


def test_recorded_attend_keeps_no_probabilities(rng):
    """The node keeps each query's softmax max and sum; no (L, L) array of
    scores or probabilities stays on the tape."""
    heads, x, params, _ = multi_block_attend_case(rng)
    n = x.shape[1]
    with T.fresh_tape() as tape:
        T.attend(*(T.Tensor(a, requires_grad=True) for a in [x] + params), heads)
        shapes = [a.shape for a in held_arrays(tape)]
    assert len(tape) == 1
    assert shapes.count((len(x), heads, 1, n)) == 2
    assert not [s for s in shapes if s[-2:] == (n, n)]


def test_recorded_attend_keeps_no_projection(rng):
    """Besides x and the output, the node keeps no (B, L, D)-sized array:
    the backward pass re-projects q, k and v."""
    heads, x, params, _ = multi_block_attend_case(rng)
    x, *params = (T.Tensor(a, requires_grad=True) for a in [x] + params)
    with T.fresh_tape() as tape:
        out = T.attend(x, *params, heads)
        kept = held_arrays(tape)
    assert shares_any(kept, [x.data]) and shares_any(kept, [out.data])
    assert [a.shape for a in kept if a.size >= x.size
            and not shares_any([a], [x.data, out.data])] == []


def test_attend_matches_kept_probability_attention_bitwise_in_float32(rng):
    """Re-projecting q, k and v and re-forming P in the backward pass give
    the bits of three `linear` projections and the attention that kept P,
    output and all seven gradients alike."""
    heads, x, params, g = multi_block_attend_case(rng)
    x, *params = leaves = [T.Tensor(a, requires_grad=True) for a in [x] + params]
    with T.fresh_tape():
        out = T.attend(x, *params, heads)
        T.backward(T.reduce_sum(out * T.constant(g, like=out)))
    got = [out.data] + [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    with T.fresh_tape():
        qkv = [T.linear(x, w, b) for w, b in zip(params[::2], params[1::2])]
        y, *grads = oracles.attend_kept_p(*(t.data for t in qkv), heads, g, T._ATTEND_BLOCK)
        terms = [T.reduce_sum(t * T.constant(gt, like=t)) for t, gt in zip(qkv, grads)]
        T.backward(terms[0] + terms[1] + terms[2])
    for a, want in zip(got, [y] + [leaf.grad for leaf in leaves]):
        assert a.dtype == np.float32
        np.testing.assert_array_equal(a, want)


def sample_loop_sum(g):
    """Samples added last to first, one at a time."""
    total = g[-1]
    for part in g[-2::-1]:
        total = total + part
    return total


@pytest.mark.parametrize("shape", [(40, 2), (40, 32), (40, 1, 32), (40, 32, 1), (40, 32, 32),
                                   (40, 32, 128), (8, 128, 512), (8, 256, 128)])
def test_one_call_sample_sum_adds_last_to_first_on_installed_numpy(shape):
    """`_unbroadcast`'s one `np.add.reduce` over the reversed batch axis adds
    multi-element per-sample shares in the loop's order on this NumPy."""
    rng = np.random.default_rng(sum(shape))
    for _ in range(20):
        g = rng.standard_normal(shape, dtype=np.float32)
        g *= np.float32(10.0) ** rng.integers(-3, 4, size=shape).astype(np.float32)
        want = sample_loop_sum(g)
        np.testing.assert_array_equal(np.add.reduce(g[::-1], axis=0), want)
        np.testing.assert_array_equal(T._unbroadcast(g, shape[1:]), want)


@pytest.mark.parametrize("shape", [(40,), (40, 1, 1), (8, 1, 1)])
def test_one_element_sample_shares_are_added_one_by_one(shape):
    """A one-element share would turn `np.add.reduce` into a pairwise sum,
    so `_unbroadcast` keeps the last-to-first loop for it."""
    rng = np.random.default_rng(sum(shape))
    for _ in range(200):
        g = rng.standard_normal(shape, dtype=np.float32)
        g *= np.float32(10.0) ** rng.integers(-3, 4, size=shape).astype(np.float32)
        np.testing.assert_array_equal(T._unbroadcast(g, shape[1:]), sample_loop_sum(g))


def test_fused_layer_shape_errors():
    x = T.Tensor(np.ones((2, 3, 4)))
    with pytest.raises(ShapeError, match="ffn"):
        T.ffn(x, T.Tensor(np.ones((3, 5))), T.Tensor(np.ones(5)),
              T.Tensor(np.ones((5, 4))), T.Tensor(np.ones(4)))
    w, b = T.Tensor(np.ones((4, 6))), T.Tensor(np.ones(6))
    T.attend(x, w, b, w, b, w, b, 2)
    with pytest.raises(ShapeError, match="attend"):
        T.attend(T.Tensor(np.ones((2, 3, 5))), w, b, w, b, w, b, 2)  # the projections take 4
    with pytest.raises(ShapeError, match="attend"):
        T.attend(x, w, b, w, b, w, b, 4)  # 6 features do not split into 4 heads
    with pytest.raises(ShapeError, match="attend"):
        T.attend(x, w, b, T.Tensor(np.ones((4, 4))), T.Tensor(np.ones(4)), w, b, 2)
    with pytest.raises(ShapeError, match="attend"):
        T.attend(x, w, b, w, T.Tensor(np.ones(4)), w, b, 2)
    with pytest.raises(ShapeError, match="attend"):
        T.attend(T.Tensor(np.ones((3, 4))), w, b, w, b, w, b, 2)  # unbatched


def test_softmax_rows_sum_to_one_and_reject_nan(rng):
    out = T.softmax(T.Tensor(rng.normal(size=(4, 6))))
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-6)
    bad = T.Tensor(np.array([[1.0, np.nan]]))
    with pytest.raises(NumericError):
        T.softmax(bad)


def test_softmax_stable_for_huge_logits():
    out = T.softmax(T.Tensor(np.array([[1e30, 1e30 - 1e14]])))
    assert np.all(np.isfinite(out.data))


def test_layer_norm_normalizes_last_axis(rng):
    x = rng.normal(size=(4, 8)) * 3.0 + 2.0
    g = T.Tensor(np.ones(8, dtype=np.float64))
    b = T.Tensor(np.zeros(8, dtype=np.float64))
    out = T.layer_norm(T.Tensor(x, dtype=np.float64), g, b)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-4)


def test_conv_patch_matches_naive_loops(rng):
    image = rng.normal(size=(3, 8, 8))
    kernel = rng.normal(size=(5, 3, 4, 4))
    bias = rng.normal(size=5)
    out = T.conv_patch(T.Tensor(image, dtype=np.float64),
                       T.Tensor(kernel, dtype=np.float64), T.Tensor(bias, dtype=np.float64))
    np.testing.assert_allclose(out.data, oracles.conv_patch_naive(image, kernel, bias),
                               rtol=1e-10)


def test_grad_conv_patch(rng):
    image = rng.normal(size=(2, 8, 8))
    kernel = rng.normal(size=(3, 2, 4, 4))
    bias = rng.normal(size=3)
    check_op(lambda i, k, b: weighted(T.conv_patch(i, k, b)), image, kernel, bias)


def test_conv_patch_validation():
    img, kern, bias = T.Tensor(np.ones((2, 8, 8))), T.Tensor(np.ones((3, 2, 4, 4))), T.Tensor(np.ones(3))
    with pytest.raises(ShapeError):
        T.conv_patch(T.Tensor(np.ones((8, 8))), kern, bias)
    with pytest.raises(ShapeError):
        T.conv_patch(T.Tensor(np.ones((3, 8, 8))), kern, bias)  # channel mismatch
    with pytest.raises(ShapeError):
        T.conv_patch(T.Tensor(np.ones((2, 9, 8))), kern, bias)  # indivisible
    with pytest.raises(ShapeError):
        T.conv_patch(img, T.Tensor(np.ones((3, 2, 4, 5))), bias)  # non-square
    with pytest.raises(ShapeError):
        T.conv_patch(img, kern, T.Tensor(np.ones(4)))  # one bias per filter


def test_patchify_unpatchify_roundtrip(rng):
    x = rng.normal(size=(3, 8, 12)).astype(np.float32)
    tokens = T.patchify(T.Tensor(x), 4)
    assert tokens.shape == (6, 48)
    back = T.unpatchify(tokens, 4, 3, 8, 12)
    np.testing.assert_array_equal(back.data, x)


def test_grad_patchify_unpatchify(rng):
    x = rng.normal(size=(2, 8, 8))
    check_op(lambda t: weighted(T.patchify(t, 4)), x)
    tok = rng.normal(size=(4, 32))
    check_op(lambda t: weighted(T.unpatchify(t, 4, 2, 8, 8)), tok)


# ---------------------------------------------------------------------------
# losses

def pixel_masks(rng, n, w, h):
    """(n, 1, w, h) 0/1 masks whose counts differ from sample to sample."""
    masks = np.zeros((n, 1, w, h), dtype=bool)
    for i in range(n):
        masks[i, 0].flat[rng.permutation(w * h)[:i + 2]] = True
    return masks


def test_masked_l1_per_sample_matches_naive_and_grad(rng):
    pred = rng.normal(size=(3, 2, 4, 4))
    target = rng.normal(size=(3, 2, 4, 4))
    masks = pixel_masks(rng, 3, 4, 4)
    out = T.masked_l1(T.Tensor(pred, dtype=np.float64), target, masks)
    assert out.shape == (3,)
    expect = [oracles.masked_l1_naive(pred[i], target[i], masks[i, 0]) for i in range(3)]
    np.testing.assert_allclose(out.data, expect, rtol=1e-12)
    check_op(lambda p: weighted(T.masked_l1(p, target, masks)), pred)


def test_masked_l1_one_sample_with_pixel_mask(rng):
    pred = rng.normal(size=(3, 4, 4))
    target = rng.normal(size=(3, 4, 4))
    mask = pixel_masks(rng, 4, 4, 4)[-1, 0]
    out = T.masked_l1(T.Tensor(pred, dtype=np.float64), target, mask)
    assert out.shape == ()
    np.testing.assert_allclose(float(out.data), oracles.masked_l1_naive(pred, target, mask),
                               rtol=1e-12)
    check_op(lambda p: T.masked_l1(p, target, mask), pred)


def test_masked_l1_float32_bits_match_five_node_composite(rng):
    pred = rng.normal(size=(5, 3, 8, 8)).astype(np.float32)
    target = rng.normal(size=(5, 3, 8, 8)).astype(np.float32)
    masks = pixel_masks(rng, 5, 8, 8)
    g = rng.normal(size=5).astype(np.float32)
    want_loss, want_grad = oracles.masked_l1_composite(pred, target, masks, g)
    p = T.Tensor(pred, requires_grad=True)
    with T.fresh_tape():
        out = T.masked_l1(p, target, masks)
        T.backward(T.reduce_sum(out * T.constant(g)))
    assert out.dtype == p.grad.dtype == np.float32
    np.testing.assert_array_equal(out.data, want_loss)
    np.testing.assert_array_equal(p.grad, want_grad)


def test_masked_l1_validation(rng):
    p = T.Tensor(rng.normal(size=(2, 4, 4)))
    with pytest.raises(ShapeError, match="prediction shape"):
        T.masked_l1(p, np.zeros((3, 4, 4)), np.ones((4, 4)))
    with pytest.raises(ShapeError, match="no pixels"):
        T.masked_l1(p, np.zeros((2, 4, 4)), np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        T.masked_l1(T.Tensor(np.ones((4, 4))), np.zeros((4, 4)), np.ones((4, 4)))


def test_l1_loss_matches_naive_and_grad(rng):
    pred = rng.normal(size=(3, 4, 4))
    target = rng.normal(size=(3, 4, 4))
    mask = rng.random((4, 4)) < 0.5
    mask[0, 0] = True  # never empty
    out = T.l1_loss(T.Tensor(pred, dtype=np.float64),
                    T.Tensor(target, dtype=np.float64), mask)
    np.testing.assert_allclose(float(out.data),
                               oracles.masked_l1_naive(pred, target, mask),
                               rtol=1e-10)
    check_op(lambda p: T.l1_loss(p, T.constant(target, like=p), mask), pred)


def test_l1_loss_empty_mask_rejected(rng):
    p = T.Tensor(rng.normal(size=(2, 4, 4)))
    with pytest.raises(ShapeError):
        T.l1_loss(p, T.constant(np.zeros((2, 4, 4)), like=p),
                  np.zeros((4, 4), dtype=bool))


def test_bce_with_logits_matches_formula_and_grad(rng):
    z = rng.normal(size=(6,)) * 3.0
    y = (rng.random(6) < 0.5).astype(np.float64)
    out = T.bce_with_logits(T.Tensor(z, dtype=np.float64),
                            T.Tensor(y, dtype=np.float64))
    p = 1.0 / (1.0 + np.exp(-z))
    expect = float(np.mean(-(y * np.log(p) + (1 - y) * np.log1p(-p))))
    np.testing.assert_allclose(float(out.data), expect, rtol=1e-9)
    check_op(lambda lg: T.bce_with_logits(lg, T.constant(y, like=lg)), z)


def test_bce_with_logits_stable_for_large_logits():
    out = T.bce_with_logits(T.Tensor(np.array([1000.0, -1000.0])),
                            T.Tensor(np.array([1.0, 0.0])))
    assert np.isfinite(float(out.data))
    np.testing.assert_allclose(float(out.data), 0.0, atol=1e-6)


def test_softmax_cross_entropy_matches_formula_and_grad(rng):
    z = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    out = T.softmax_cross_entropy(T.Tensor(z, dtype=np.float64), labels)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expect = float(np.mean(-np.log(p[np.arange(5), labels])))
    np.testing.assert_allclose(float(out.data), expect, rtol=1e-9)
    check_op(lambda lg: T.softmax_cross_entropy(lg, labels), z)

