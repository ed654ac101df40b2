"""Dense float tensors with reverse-mode automatic differentiation.

Every differentiable operation is a primitive with a hand-written gradient,
including the fused layers and the loss, one tape node each: `linear`,
`softmax`, `layer_norm`, the GELU feed-forward `ffn`, the gated expert bank
`moe_ffn`, multi-head self-attention `attend` with its q, k and v
projections, and the masked L1 `masked_l1`.
The GELU is the exact h * Phi(h); Phi comes from a NumPy normal tail in
float32 and from SciPy's erf, imported on first use, in float64.  Composite
forms survive only as float64 oracles in the tests.  Only the patch
reshapes compose primitives: `conv_patch` is one `linear` over `patchify`'s
rows, and `l1_loss` takes the whole array as one sample of `masked_l1`.
Operations are recorded on a tape in execution order; ``backward`` walks
the tape in exact reverse order, so recording order doubles as the
topological order.  There is no other global state.

The tape never holds a `Tensor`.  Each tensor owns a small `GradRecord`
(requires_grad, grad, shape, dtype); a node is (output record, backward
closure), and each closure holds the records of its inputs plus exactly the
arrays its gradient reads.  So an activation that no backward pass reads,
such as a residual sum, is freed as soon as the forward code drops it, and
one that is cheap to recompute, such as attention's q, k and v, is
recomputed by the backward pass instead of kept.

Tensors default to float32; build parameters with ``dtype=np.float64`` when
running gradient checks.
"""

import math
from contextlib import contextmanager

import numpy as np

from .errors import NumericError, ShapeError

FLOAT_DTYPES = (np.float32, np.float64)


class Tape:
    """Ordered record of operations; cleared between optimization steps."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def clear(self):
        self.nodes.clear()

    def __len__(self):
        return len(self.nodes)


_ACTIVE = Tape()
_GRAD_ENABLED = True


def active_tape():
    return _ACTIVE


@contextmanager
def fresh_tape():
    """Run a block on its own tape (used once per training step)."""
    global _ACTIVE
    saved = _ACTIVE
    _ACTIVE = Tape()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = saved


@contextmanager
def no_grad():
    """Disable recording inside the block (evaluation passes)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class GradRecord:
    """What the backward pass needs of a tensor, without its array: whether
    it takes a gradient, the gradient so far, and the shape and dtype that
    gradient is summed to."""

    __slots__ = ("requires_grad", "grad", "shape", "dtype")

    def __init__(self, requires_grad, shape, dtype):
        self.requires_grad = requires_grad
        self.grad = None
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A dense row-major float array plus its gradient record `rec`.

    `requires_grad` and `grad` read and write the record; assigning `data`
    keeps the record's shape and dtype in step with the new array.
    """

    __slots__ = ("_data", "rec")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype, order="C")
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # asarray keeps 0-d scalars 0-d; ascontiguousarray would pad to (1,)
        self._data = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        self.rec = GradRecord(bool(requires_grad), arr.shape, arr.dtype)

    @property
    def data(self):
        return self._data

    @data.setter
    def data(self, arr):
        self._data = arr
        self.rec.shape, self.rec.dtype = arr.shape, arr.dtype

    @property
    def requires_grad(self):
        return self.rec.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag):
        self.rec.requires_grad = bool(flag)

    @property
    def grad(self):
        return self.rec.grad

    @grad.setter
    def grad(self, g):
        self.rec.grad = g

    @property
    def shape(self):
        return self._data.shape

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def item(self):
        return float(self._data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self._data.dtype.name}{flag})"

    # operator sugar; non-Tensor operands become constants
    def __add__(self, other):
        return add(self, _wrap(other, self))

    def __radd__(self, other):
        return add(_wrap(other, self), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self))

    def __rmul__(self, other):
        return mul(_wrap(other, self), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other, self))


def constant(value, like=None):
    """Wrap raw data as a non-differentiable tensor, matching `like`'s dtype."""
    return Tensor(value, requires_grad=False, dtype=None if like is None else like.data.dtype)


def _wrap(value, like):
    if isinstance(value, Tensor):
        return value
    return constant(value, like=like)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`.

    Axis 0 of a gradient with extra leading axes is taken as the batch axis.
    Each sample's share is reduced first; the samples are then added last
    to first, the order in which one tape node per sample would have
    accumulated them, so a batch gets the same gradient bits as its samples
    run one at a time.  When a share has more than one element, one
    `np.add.reduce` over the reversed batch axis adds them in that order.
    A one-element share would make that a pairwise sum, so those shares
    are added one by one.
    """
    extra = g.ndim - len(shape)
    axes = tuple(range(1, extra)) + tuple(
        extra + i for i, n in enumerate(shape) if n == 1 and g.shape[extra + i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if extra > 0:
        if g[0].size > 1:
            total = np.add.reduce(g[::-1], axis=0)
        else:
            total = g[-1]
            for part in g[-2::-1]:
                total = total + part
        g = total.reshape(shape)
    return g


def _accumulate(r, g):
    """Add gradient `g` into record `r`, summed down to r's shape."""
    if not r.requires_grad:
        return
    if g.shape != r.shape:
        g = _unbroadcast(g, r.shape)
    g = np.asarray(g, dtype=r.dtype)
    r.grad = g if r.grad is None else r.grad + g


def _recording(*inputs):
    """Whether a node over the input records `inputs` goes on the tape."""
    return _GRAD_ENABLED and any(r.requires_grad for r in inputs)


def _record(out, inputs, backward_fn):
    """Put (out's record, backward_fn) on the tape when an input record in
    `inputs` takes a gradient."""
    if _recording(*inputs):
        out.rec.requires_grad = True
        _ACTIVE.nodes.append((out.rec, backward_fn))
    return out


def backward(loss):
    """Populate gradients of every reachable leaf of a scalar loss.

    Walks the active tape in reverse recording order.  Intermediate (node
    output) gradients are consumed as the walk passes them, so only leaves
    keep gradients; calling ``backward`` again without clearing leaf grads
    accumulates into them.
    """
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {tuple(loss.shape)}")
    if not loss.requires_grad:
        raise ShapeError("loss is not connected to the tape (requires_grad is False)")
    loss.grad = np.ones_like(loss.data)
    for rec, fn in reversed(_ACTIVE.nodes):
        g = rec.grad
        if g is None:
            continue
        rec.grad = None
        fn(g)


# ---------------------------------------------------------------------------
# primitives

def add(a, b):
    out = Tensor(a.data + b.data)
    ra, rb = a.rec, b.rec

    def back(g):
        _accumulate(ra, g)
        _accumulate(rb, g)

    return _record(out, (ra, rb), back)


def _operands(a, b):
    """(a's array, b's array) as a product's backward pass reads them: each
    operand's gradient reads the other operand, so an operand is kept only
    when the other takes a gradient."""
    return (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)


def mul(a, b):
    out = Tensor(a.data * b.data)
    ra, rb = a.rec, b.rec
    ad, bd = _operands(a, b)

    def back(g):
        if bd is not None:
            _accumulate(ra, g * bd)
        if ad is not None:
            _accumulate(rb, g * ad)

    return _record(out, (ra, rb), back)


def matmul(a, b):
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {tuple(a.shape)} and {tuple(b.shape)}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {tuple(a.shape)} vs {tuple(b.shape)}")
    out = Tensor(np.matmul(a.data, b.data))
    ra, rb = a.rec, b.rec
    ad, bd = _operands(a, b)

    def back(g):
        if bd is not None:
            _accumulate(ra, np.matmul(g, np.swapaxes(bd, -1, -2)))
        if ad is not None:
            _accumulate(rb, np.matmul(np.swapaxes(ad, -1, -2), g))

    return _record(out, (ra, rb), back)


def reshape(a, shape):
    """Reshape; returns `a` itself, recording nothing, when the shape is unchanged."""
    data = a.data.reshape(tuple(int(s) for s in shape))
    if data.shape == a.data.shape:
        return a
    out = Tensor(data)
    ra = a.rec

    def back(g):
        _accumulate(ra, g.reshape(ra.shape))

    return _record(out, (ra,), back)


def transpose(a, axes=None):
    used = tuple(range(a.ndim))[::-1] if axes is None else tuple(axes)
    out = Tensor(np.ascontiguousarray(a.data.transpose(used)))
    inverse = np.argsort(used)
    ra = a.rec

    def back(g):
        _accumulate(ra, g.transpose(inverse))

    return _record(out, (ra,), back)


def _spread(g, shape, axis):
    """Broadcast a reduction's gradient back over the axes it reduced."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axis=None):
    out = Tensor(a.data.sum(axis=axis))
    ra = a.rec

    def back(g):
        _accumulate(ra, _spread(g, ra.shape, axis))

    return _record(out, (ra,), back)


def reduce_mean(a, axis=None):
    out = Tensor(a.data.mean(axis=axis))
    count = a.data.size // max(out.data.size, 1)
    ra = a.rec

    def back(g):
        _accumulate(ra, _spread(g / count, ra.shape, axis))

    return _record(out, (ra,), back)


def take_rows(a, indices):
    """Gather rows along axis 0; gradient scatters them back, adding the
    rows of a repeated index."""
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(a.data[idx])
    ra = a.rec

    def back(g):
        full = np.zeros(ra.shape, dtype=ra.dtype)
        if np.unique(idx % len(full)).size == idx.size:
            full[idx] = g
        else:
            np.add.at(full, idx, g)
        _accumulate(ra, full)

    return _record(out, (ra,), back)


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1].tolist()
    recs = tuple(t.rec for t in tensors)

    def back(g):
        for r, part in zip(recs, np.split(g, offsets, axis=axis)):
            _accumulate(r, part)

    return _record(out, recs, back)


# ---------------------------------------------------------------------------
# fused layers: one tape node each

def _accumulate_rows(r, g):
    """Accumulate into a per-feature parameter's record: each sample sums
    its rows first, then `_accumulate` adds the samples last to first."""
    _accumulate(r, g.sum(axis=-2) if g.ndim > 1 else g)


def linear(x, w, b):
    """x @ w + b for x (..., K), w (K, N) and b (N,)."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs (..., K), (K, N) and (N,) operands, got "
                         f"{tuple(x.shape)}, {tuple(w.shape)} and {tuple(b.shape)}")
    y = np.matmul(x.data, w.data)
    y += b.data
    xd, wd = _operands(x, w)
    rx, rw, rb = x.rec, w.rec, b.rec

    def back(g):
        if wd is not None:
            _accumulate(rx, np.matmul(g, wd.T))
        if xd is not None:
            _accumulate(rw, np.matmul(np.swapaxes(xd, -1, -2), g))
        _accumulate_rows(rb, g)

    return _record(Tensor(y), (rx, rw, rb), back)


def _softmax_rows(s, axis=-1):
    """Overwrite s with its row-stable softmax along `axis`; rejects NaN.
    Returns each row's max and its sum of exponentials, keepdims-shaped."""
    row_max = s.max(axis=axis, keepdims=True)
    if np.isnan(row_max).any():  # max propagates NaN, so this sees every NaN row
        raise NumericError("softmax received NaN input")
    s -= row_max
    np.exp(s, out=s)
    row_sum = s.sum(axis=axis, keepdims=True)
    s /= row_sum
    return row_max, row_sum


def softmax(a):
    """Row-stable softmax over the last axis; rejects NaN input."""
    y = a.data.copy()
    _softmax_rows(y)
    ra = a.rec

    def back(g):
        _accumulate(ra, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _record(Tensor(y), (ra,), back)


_LAYER_NORM_EPS = 1e-5


def layer_norm(x, gamma, beta):
    """Normalize the last axis to zero mean / unit variance, then affine;
    the variance gets `_LAYER_NORM_EPS` added before its square root."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = ((centered * centered).mean(axis=-1, keepdims=True) + _LAYER_NORM_EPS) ** -0.5
    xhat = centered * inv
    gd = gamma.data
    out = Tensor(xhat * gd + beta.data)
    rx, rgamma, rbeta = x.rec, gamma.rec, beta.rec

    def back(g):
        gx = g * gd
        gx -= gx.mean(axis=-1, keepdims=True) + xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        gx *= inv
        _accumulate(rx, gx)
        _accumulate_rows(rgamma, g * xhat)
        _accumulate_rows(rbeta, g)

    return _record(out, (rx, rgamma, rbeta), back)


# Abramowitz & Stegun 7.1.26 for the upper normal tail, rewritten to take h
# rather than h / sqrt(2): 1 - Phi(|h|) = t * poly(t) * exp(-h^2 / 2) with
# t = 1 / (1 + _TAIL_P * |h|); its erf error is at most 1.5e-7.  Python
# floats, highest power first, so float32 input stays float32.
_TAIL_P = 0.3275911 / math.sqrt(2.0)
_TAIL_POLY = tuple(0.5 * a for a in (1.061405429, -1.453152027, 1.421413741,
                                     -0.284496736, 0.254829592))
# float32 elements per GELU block: its temporaries (128 KiB each) stay in cache
_GELU_BLOCK = 1 << 15
# bytes of attention scores per sample block: the backward pass's re-formed
# P^T and dS^T of one block stay in cache together
_ATTEND_BLOCK = 1 << 19


def _gelu(h, grad=True):
    """(gelu(h), gelu'(h)) = (h Phi(h), Phi(h) + h phi(h)), exact GELU;
    gelu'(h) is None unless `grad`.

    Float64 takes Phi from SciPy's erf, as the tests' oracles do.  Float32
    takes it from the A&S tail above, within 5e-7 (4.2 ulp of 1.0) of
    float64 for both values, and shares one exp(-h^2 / 2) between Phi and
    phi; it overwrites h with gelu(h), so h must be a fresh C-contiguous
    array.
    """
    if h.dtype == np.float64:
        from scipy.special import erf  # math.erf is up to 3 ulp off, so float64 keeps SciPy's
        cdf = 0.5 * (1.0 + erf(h * (1.0 / math.sqrt(2.0))))
        if not grad:
            return h * cdf, None
        pdf = np.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)
        return h * cdf, cdf + h * pdf
    dact = np.empty_like(h) if grad else None
    flat_h = h.reshape(-1)
    for start in range(0, flat_h.size, _GELU_BLOCK):
        x = flat_h[start:start + _GELU_BLOCK]
        e = x * x
        e *= -0.5
        np.exp(e, out=e)
        t = np.abs(x)
        t *= _TAIL_P
        t += 1.0
        np.reciprocal(t, out=t)
        q = t * _TAIL_POLY[0]
        for c in _TAIL_POLY[1:]:
            q += c
            q *= t
        q *= e  # 1 - Phi(|x|)
        np.copysign(q, x, out=q)
        # Phi(x) = [x >= 0] - copysign(q, x); signbit, not x >= 0, keeps
        # Phi(-0.0) at 1/2
        cdf = np.subtract(~np.signbit(x), q, out=q)
        if grad:
            d = dact.reshape(-1)[start:start + _GELU_BLOCK]
            np.multiply(e, 1.0 / math.sqrt(2.0 * math.pi), out=d)
            d *= x
            d += cdf
        x *= cdf
    return h, dact


def _ffn_forward(x, w1, b1, w2, b2, grad=True):
    """gelu(x @ w1 + b1) @ w2 + b2 on arrays, with the exact GELU of `_gelu`.

    Returns the output, the GELU output and the GELU derivative (None
    unless `grad`); the backward pass keeps only those two hidden-sized
    arrays.
    """
    h = np.matmul(x, w1)
    h += b1
    act, dact = _gelu(h, grad)
    y = np.matmul(act, w2)
    y += b2
    return y, act, dact


def _ffn_backward(g, x, act, dact, w1, w2, recs):
    """Accumulate the parameter gradients of `_ffn_forward` into `recs`,
    the records of (w1, b1, w2, b2); return x's."""
    rw1, rb1, rw2, rb2 = recs
    _accumulate(rw2, np.matmul(np.swapaxes(act, -1, -2), g))
    _accumulate_rows(rb2, g)
    gh = np.matmul(g, w2.T)
    gh *= dact
    _accumulate(rw1, np.matmul(np.swapaxes(x, -1, -2), gh))
    _accumulate_rows(rb1, gh)
    return np.matmul(gh, w1.T)


def ffn(x, w1, b1, w2, b2):
    """linear(gelu(linear(x, w1, b1)), w2, b2) for x (..., K), exact GELU."""
    if x.ndim < 2 or x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ShapeError(f"ffn needs (..., K), (K, H) and (H, N) operands, got "
                         f"{tuple(x.shape)}, {tuple(w1.shape)} and {tuple(w2.shape)}")
    xd, w1d, w2d = x.data, w1.data, w2.data
    rx, recs = x.rec, (w1.rec, b1.rec, w2.rec, b2.rec)
    y, act, dact = _ffn_forward(xd, w1d, b1.data, w2d, b2.data, _recording(rx, *recs))

    def back(g):
        _accumulate(rx, _ffn_backward(g, xd, act, dact, w1d, w2d, recs))

    return _record(Tensor(y), (rx,) + recs, back)


def moe_ffn(rows, probs, groups, experts):
    """Gated bank of expert FFNs over (N, D) rows; one tape node.

    Expert e runs `ffn` on the rows `groups[e]` and scales each output row
    by its gate probability probs[row, e], where probs holds N rows of E
    probabilities in any leading shape.  The groups must be disjoint; rows
    in no group come out zero.  Each expert gathers its rows once and writes
    its gated rows straight into the one output buffer.
    """
    xd = rows.data
    gates = probs.data.reshape(len(xd), -1)
    params = [tuple(e[k] for k in ("w1", "b1", "w2", "b2")) for e in experts]
    weights = [(e["w1"].data, e["w2"].data) for e in experts]
    recs = [tuple(p.rec for p in ps) for ps in params]
    rrows, rprobs = rows.rec, probs.rec
    grad = _recording(rrows, rprobs, *sum(recs, ()))
    out = np.zeros_like(xd)
    kept = []  # (expert, row indices, FFN output, GELU, GELU') per expert with rows
    for e, idx in enumerate(groups):
        if len(idx):
            y, act, dact = _ffn_forward(xd[idx], *(p.data for p in params[e]), grad)
            out[idx] = y * gates[idx, e][:, None]
            kept.append((e, idx, y, act, dact))

    def back(g):
        g_rows, g_gates = np.zeros_like(xd), np.zeros_like(gates)
        for e, idx, y, act, dact in kept:
            ge = g[idx]
            g_gates[idx, e] = (ge * y).sum(axis=1)
            g_rows[idx] = _ffn_backward(ge * gates[idx, e][:, None], xd[idx], act, dact,
                                        *weights[e], recs[e])
        _accumulate(rrows, g_rows)
        _accumulate(rprobs, g_gates.reshape(rprobs.shape))

    return _record(Tensor(out), (rrows, rprobs) + sum(recs, ()), back)


def attend(x, wq, bq, wk, bk, wv, bv, heads):
    """Multi-head self-attention softmax(q_h @ k_h^T / sqrt(dh)) @ v_h over a
    (B, L, K) x, with q = x @ wq + bq, k = x @ wk + bk, v = x @ wv + bv, each
    projection (K, D) and each bias (D,).

    Head h owns features [h * dh, (h + 1) * dh) of D; heads are split and
    merged through strided views, with no per-head copies.  Work runs one
    block of samples at a time, sized by `_ATTEND_BLOCK`, so a block's
    scores stay in cache and each sample's arithmetic does not depend on B.
    Each block projects its q, k and v into one reused (3, block, L, D)
    buffer (`np.matmul`, then `+= bias`, as `linear` does) and forms its
    scores keys-major, k_h @ q_h^T shaped (block, H, L_k, L_q), so the
    softmax reduces down columns, vectorised across queries.

    The node keeps x, the output and each query's softmax max and sum:
    neither q, k, v nor the (B, H, L, L) probabilities.  The projections
    are cheap GEMMs of x, so the backward pass re-projects each block with
    the forward's own operations and, as in FlashAttention, re-forms its P^T
    from the max and sum, so q, k, v and P keep their bits.  It takes
    dS = P * (dP - rowsum(dO * O)) without FlashAttention's tiling, then
    the block's dq, dk, dv, the per-sample partials of the six projection
    parameters, and dx = (dv @ wv^T + dk @ wk^T) + dq @ wq^T, the order in
    which three `linear` nodes' backward passes would add it up.
    """
    projections = ((wq, bq), (wk, bk), (wv, bv))
    d = wq.shape[-1]
    if x.ndim != 3 or d % heads or any(w.shape != (x.shape[-1], d) or bias.shape != (d,)
                                       for w, bias in projections):
        raise ShapeError(f"attend needs a (B, L, K) x, (K, D) projections and (D,) biases with "
                         f"D divisible by {heads} heads, got "
                         + ", ".join(str(tuple(t.shape)) for t in (x, wq, bq, wk, bk, wv, bv)))
    xd = x.data
    weights = [(w.data, bias.data) for w, bias in projections]
    b, n, k_in = xd.shape
    scale = 1.0 / math.sqrt(d // heads)
    dtype = np.result_type(xd, *sum(weights, ()))
    step = max(1, _ATTEND_BLOCK // max(1, heads * n * n * dtype.itemsize))
    blocks = [slice(i, i + step) for i in range(0, b, step)]
    block_shape = (min(b, step), heads, n, n)
    qkv_shape = (3, min(b, step), n, d)

    def split(a):  # (m, L, D) -> (m, H, L, dh) view
        return a.reshape(len(a), n, heads, d // heads).transpose(0, 2, 1, 3)

    def project(blk, qkv):  # a block's q, k, v, projected into the qkv buffer
        xb = xd[blk]
        for buf, (w, bias) in zip(qkv, weights):
            np.matmul(xb, w, out=buf[:len(xb)])
            buf[:len(xb)] += bias
        return qkv[:, :len(xb)]

    def scores(qh, kh, buf):  # a block's scaled S^T in buf: keys down, queries across
        s = np.matmul(kh, np.swapaxes(qh, -1, -2), out=buf[:len(kh)])
        s *= scale
        return s

    row_max, row_sum = (np.empty((b, heads, 1, n), dtype=dtype) for _ in range(2))
    y = np.empty((b, n, d), dtype=dtype)
    qkv, pt = np.empty(qkv_shape, dtype=dtype), np.empty(block_shape, dtype=dtype)
    for blk in blocks:
        qh, kh, vh = map(split, project(blk, qkv))
        s = scores(qh, kh, pt)
        row_max[blk], row_sum[blk] = _softmax_rows(s, axis=-2)
        np.matmul(np.swapaxes(s, -1, -2), vh, out=split(y)[blk])
    rx = x.rec
    recs = [(w.rec, bias.rec) for w, bias in projections]
    (wqd, _), (wkd, _), (wvd, _) = weights

    def back(g):
        gh, oh = split(g), split(y)
        qkv, dqkv = np.empty((2,) + qkv_shape, dtype=dtype)  # one block's q, k, v and their grads
        p_buf, ds_buf = np.empty((2,) + block_shape, dtype=dtype)  # one block's P^T and dS^T
        gw = np.empty((3, b, k_in, d), dtype=dtype)  # per-sample partials of wq, wk, wv
        gb = np.empty((3, b, d), dtype=dtype)  # and of bq, bk, bv
        gx = np.empty(xd.shape, dtype=dtype)
        for blk in blocks:
            qh, kh, vh = map(split, project(blk, qkv))
            p = scores(qh, kh, p_buf)
            p -= row_max[blk]
            np.exp(p, out=p)
            p /= row_sum[blk]
            ds = np.matmul(vh, np.swapaxes(gh[blk], -1, -2), out=ds_buf[:len(p)])  # dP^T
            ds -= (gh[blk] * oh[blk]).sum(axis=-1)[..., None, :]
            ds *= p
            ds *= scale
            dq, dk, dv = dqkv[:, :len(p)]
            np.matmul(p, gh[blk], out=split(dv))
            np.matmul(np.swapaxes(ds, -1, -2), kh, out=split(dq))
            np.matmul(ds, qh, out=split(dk))
            xt = np.swapaxes(xd[blk], -1, -2)
            for j, dproj in enumerate((dq, dk, dv)):
                np.matmul(xt, dproj, out=gw[j, blk])
                gb[j, blk] = dproj.sum(axis=-2)
            # v, then k, then q: the sum of three `linear` nodes' backward passes
            np.matmul(dv, wvd.T, out=gx[blk])
            gx[blk] += np.matmul(dk, wkd.T)
            gx[blk] += np.matmul(dq, wqd.T)
        _accumulate(rx, gx)
        for (rw, rb), gwj, gbj in zip(recs, gw, gb):
            _accumulate(rw, gwj)
            _accumulate(rb, gbj)

    return _record(Tensor(y), (rx,) + sum(recs, ()), back)


# ---------------------------------------------------------------------------
# patches and losses

def conv_patch(x, kernel, bias):
    """Non-overlapping patch convolution: (..., C, W, H) -> (..., L, D) tokens.

    The stride equals the kernel's spatial size P, so each token is the
    flattened (C,P,P) patch dotted with each of the D filters, plus the
    filter's bias: one `linear` over `patchify`'s rows.  Token order is
    row-major over the (W/P, H/P) patch grid.
    """
    if x.ndim < 3 or kernel.ndim != 4:
        raise ShapeError(f"conv_patch expects (..., C,W,H) and (D,C,P,P), got {tuple(x.shape)} and {tuple(kernel.shape)}")
    c, w, h = x.shape[-3:]
    d, kc, p, p2 = kernel.shape
    if p != p2:
        raise ShapeError(f"conv_patch kernel must be square, got {p}x{p2}")
    if kc != c:
        raise ShapeError(f"conv_patch channel mismatch: image has {c}, kernel expects {kc}")
    if w % p != 0 or h % p != 0:
        raise ShapeError(f"image size not divisible by patch size: W={w}, H={h}, P={p}")
    return linear(patchify(x, p), transpose(reshape(kernel, (d, c * p * p))), bias)


def patchify(x, p):
    """(..., C, W, H) -> (..., L, C*P*P) rows of flattened patches."""
    c, w, h = x.shape[-3:]
    lead = x.shape[:-3]
    n = len(lead)
    wb, hb = w // p, h // p
    t = reshape(x, lead + (c, wb, p, hb, p))
    t = transpose(t, tuple(range(n)) + (n + 1, n + 3, n, n + 2, n + 4))
    return reshape(t, lead + (wb * hb, c * p * p))


def unpatchify(tokens, p, channels, w, h):
    """(..., L, C*P*P) -> (..., C, W, H); exact inverse of `patchify`."""
    lead = tokens.shape[:-2]
    n = len(lead)
    wb, hb = w // p, h // p
    t = reshape(tokens, lead + (wb, hb, channels, p, p))
    t = transpose(t, tuple(range(n)) + (n + 2, n, n + 3, n + 1, n + 4))
    return reshape(t, lead + (channels, w, h))


def masked_l1(pred, target, mask):
    """Per-sample masked mean absolute error of a (..., C, W, H) prediction.

    `target` (pred's shape) and `mask` (0/1, broadcastable to pred, e.g. a
    (..., 1, W, H) or (W, H) pixel mask) are arrays; the target gets no
    gradient.  Returns the pred.shape[:-3] losses: each sample's sum of
    |pred - target| over the selected elements, divided by how many it
    selects after broadcasting, so a pixel mask's count times C.
    """
    if pred.ndim < 3:
        raise ShapeError(f"masked_l1 expects a (..., C, W, H) prediction, got {tuple(pred.shape)}")
    dtype = pred.data.dtype
    target = np.asarray(target, dtype=dtype)
    if target.shape != pred.shape:
        raise ShapeError(f"prediction shape {tuple(pred.shape)} != target shape {target.shape}")
    m = np.asarray(mask, dtype=dtype)
    axes = (-3, -2, -1)
    count = np.broadcast_to(m, pred.shape).sum(axis=axes)
    if not np.all(count):
        raise ShapeError("masked_l1 mask selects no pixels")
    diff = pred.data - target
    err = np.abs(diff)
    err *= m
    out = Tensor(err.sum(axis=axes) / count)
    rpred = pred.rec

    def back(g):
        gp = np.sign(diff)
        gp *= np.expand_dims(g / count, axes) * m
        _accumulate(rpred, gp)

    return _record(out, (rpred,), back)


def l1_loss(pred, target, mask):
    """Mean absolute error over positions selected by `mask`: `masked_l1`
    over the whole (..., W, H) array taken as one (-1, W, H) sample.

    `mask` is a 0/1 array broadcastable to `pred`; the denominator counts
    every selected element after broadcasting, so a (W,H) mask against a
    (C,W,H) prediction averages over channels as well.
    """
    sample = (-1,) + pred.shape[-2:]
    target = _wrap(target, pred).data.reshape(sample)
    mask = np.broadcast_to(np.asarray(mask), pred.shape).reshape(sample)
    return masked_l1(reshape(pred, sample), target, mask)


def bce_with_logits(logits, targets):
    """Mean binary cross entropy against {0,1} targets, stable for large logits."""
    z = logits.data
    y = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=z.dtype)
    e = np.exp(-np.abs(z))
    val = np.maximum(z, 0.0) - z * y + np.log1p(e)
    out = Tensor(np.asarray(val.mean(), dtype=z.dtype))
    n = z.size
    rlogits = logits.rec

    def back(g):
        _accumulate(rlogits, g * (np.where(z >= 0, 1.0, e) / (1.0 + e) - y) / n)

    return _record(out, (rlogits,), back)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy of (N,K) logits against integer labels (N,)."""
    z = logits.data
    lab = np.asarray(labels, dtype=np.intp)
    shift = z - z.max(axis=1, keepdims=True)
    logp = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    n = z.shape[0]
    out = Tensor(np.asarray(-logp[np.arange(n), lab].mean(), dtype=z.dtype))

    rlogits = logits.rec

    def back(g):
        p = np.exp(logp)
        p[np.arange(n), lab] -= 1.0
        _accumulate(rlogits, g * p / n)

    return _record(out, (rlogits,), back)
