"""Dense float32 tensors with joint forward-mode and reverse-mode autodiff.

Every op computes three things at once: the primal value, an optional
forward-mode tangent (for Jacobian-vector products), and a reverse-mode
closure registered on the primal graph. Tangents ride along as an extra
buffer on each Tensor, so a single evaluation of a network yields both
u and du/dt without a second pass. Arrays are numpy float32 throughout;
tensors are treated as immutable once created (the optimizer rebinds
`.data` between steps, never mid-graph).

`linear`, `layer_norm`, `gelu`, `softmax` and `attention` are single fused
nodes. Each runs the numpy float operations of its composite form (built
from the primitives above it) in the same order, and returns its input
gradients as the separate contributions the composite's nodes would make,
so that results are bitwise those of the composite in any graph. A fused
op writes in place only over a temporary it allocated itself and that
nothing reads again; it never writes an input, its output or an array its
VJP keeps.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "parameter", "jvp", "backward", "zero_grad",
    "add", "sub", "mul", "div", "matmul", "transpose", "reshape", "concat",
    "tsum", "tmean", "exp", "log", "sqrt", "tanh", "sin", "cos", "clip",
    "masked_fill", "detach", "gelu", "softmax", "layer_norm", "linear", "attention",
]

_F32 = np.float32


class ShapeError(ValueError):
    """Raised when an op receives incompatible shapes; names the op."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


def _as_f32(x) -> np.ndarray:
    return np.asarray(x, dtype=_F32)


class Tensor:
    __slots__ = ("data", "tangent", "requires_grad", "grad", "_parents", "_vjp")
    __array_ufunc__ = None  # ndarray op Tensor defers to our reflected methods

    def __init__(self, data, tangent=None, requires_grad: bool = False):
        # np.asarray would return an f32 array as it is; skipping the call
        # keeps node construction cheap. Numpy scalars from 0-d reductions
        # and everything else are coerced.
        if type(data) is np.ndarray and data.dtype == _F32:
            self.data = data
        else:
            self.data = _as_f32(data)
        self.tangent = None if tangent is None else _as_f32(tangent)
        if self.tangent is not None and self.tangent.shape != self.data.shape:
            raise ShapeError("tensor", f"tangent shape {self.tangent.shape} != data shape {self.data.shape}")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("grad")
        if self.tangent is not None:
            flags.append("tangent")
        return f"Tensor(shape={self.data.shape}{', ' + '+'.join(flags) if flags else ''})"

    # operator sugar; scalars become f32 constants so dtype never widens
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, idx):
        return _getitem(self, idx)


def parameter(data) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, tangent, vjp) -> Tensor:
    out = Tensor(data)
    out.tangent = tangent
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple, keep_last: int = 0) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting on the leading axes."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i in range(len(shape) - keep_last)
                 if shape[i] == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


_ZERO = _F32(0.0)
_ONE = _F32(1.0)
_TWO = _F32(2.0)


def _add_tangent(shape, ta, tb, own: bool = False):
    """The tangent of a + b: zeros of the output shape plus each tangent
    present. 0 + t is t + 0, so a full-shape first tangent skips the zeros.
    With own, ta is the caller's temporary and takes the sum in place."""
    if ta is None and tb is None:
        return None
    if ta is not None and ta.shape == shape:
        tan = np.add(ta, _ZERO, out=ta if own else None)
    else:
        tan = np.zeros(shape, dtype=_F32)
        if ta is not None:
            tan += ta
    if tb is not None:
        tan += tb
    return tan


def _product_tangent(f, a, ta, b, tb):
    """The product rule for a bilinear f on arrays: f(ta, b) + f(a, tb),
    where an absent tangent drops its term."""
    tan = None if ta is None else f(ta, b)
    if tb is not None:
        part = f(a, tb)
        tan = part if tan is None else np.add(tan, part, out=tan)
    return tan


def _into(f, a, b, out: np.ndarray) -> np.ndarray:
    """f(a, b) written over out, a temporary of the caller's that nothing
    reads again, or a fresh array where the broadcast result outgrows it."""
    try:
        return f(a, b, out=out)
    except ValueError:  # out too small, or a and b do not broadcast
        return f(a, b)


# ---------------------------------------------------------------------------
# elementwise arithmetic (a VJP skips the parents that take no gradient)

def _elementwise(op: str, f, a: Tensor, b: Tensor) -> np.ndarray:
    """f(a.data, b.data); numpy's broadcast error becomes a ShapeError naming op."""
    try:
        return f(a.data, b.data)
    except ValueError:
        raise ShapeError(op, f"shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    data = _elementwise("add", np.add, a, b)
    tan = _add_tangent(data.shape, a.tangent, b.tangent)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), tan, vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = _elementwise("sub", np.subtract, a, b)
    ta, tb = a.tangent, b.tangent
    if ta is None and tb is None:
        tan = None
    elif tb is None:
        tan = np.broadcast_to(ta, data.shape).astype(_F32)
    elif ta is None:
        tan = -np.broadcast_to(tb, data.shape).astype(_F32)
    else:
        tan = ta - tb

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), tan, vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _elementwise("mul", np.multiply, a, b)
    tan = _product_tangent(np.multiply, a.data, a.tangent, b.data, b.tangent)

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), tan, vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = _elementwise("div", np.divide, a, b)
    ta, tb = a.tangent, b.tangent
    tan = None
    if ta is not None:
        tan = ta / b.data
    if tb is not None:
        part = a.data * tb / (b.data * b.data)
        tan = -part if tan is None else tan - part

    def vjp(g):
        return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                if b.requires_grad else None)

    return _make(data, (a, b), tan, vjp)


# ---------------------------------------------------------------------------
# linear algebra and structure

def _matmul_data(op: str, a: Tensor, b: Tensor) -> np.ndarray:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(op, f"need rank >= 2, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(op, f"inner dims differ: {a.shape} @ {b.shape}")
    try:
        return a.data @ b.data
    except ValueError:
        raise ShapeError(op, f"batch dims differ: {a.shape} @ {b.shape}") from None


def _matmul_grads(g, a: np.ndarray, b: np.ndarray, need_a: bool, need_b: bool):
    """The gradients of a @ b that are needed, each summed to its operand's shape."""
    ga = gb = None
    if need_a:
        ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape, keep_last=2)
    if need_b:
        gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape, keep_last=2)
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = _matmul_data("matmul", a, b)

    def vjp(g):
        return _matmul_grads(g, a.data, b.data, a.requires_grad, b.requires_grad)

    tan = _product_tangent(np.matmul, a.data, a.tangent, b.data, b.tangent)
    return _make(data, (a, b), tan, vjp)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError("transpose", f"axes {axes} invalid for rank {a.ndim}")
    inv = tuple(int(i) for i in np.argsort(axes))
    tan = None if a.tangent is None else a.tangent.transpose(axes)

    def vjp(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes), (a,), tan, vjp)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", f"cannot reshape {old} to {shape}") from None
    tan = None if a.tangent is None else a.tangent.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return _make(data, (a,), tan, vjp)


def _getitem(a: Tensor, idx) -> Tensor:
    _validate_index("getitem", idx)
    tan = None if a.tangent is None else a.tangent[idx]

    def vjp(g):
        out = np.zeros_like(a.data)
        out[idx] = g
        return (out,)

    return _make(a.data[idx], (a,), tan, vjp)


def _validate_index(op, idx):
    parts = idx if isinstance(idx, tuple) else (idx,)
    for p in parts:
        if not isinstance(p, (int, np.integer, slice)) and p is not Ellipsis:
            raise ShapeError(op, f"only basic indexing supported, got {type(p).__name__}")


def concat(tensors, axis: int) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat", "empty input list")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError("concat", f"shapes {[t.shape for t in tensors]} on axis {axis}") from None
    if any(t.tangent is not None for t in tensors):
        tan = np.concatenate(
            [t.tangent if t.tangent is not None else np.zeros_like(t.data)
             for t in tensors], axis=axis)
    else:
        tan = None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tensors, tan, vjp)


# ---------------------------------------------------------------------------
# reductions

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims, dtype=_F32)
    tan = None if a.tangent is None else a.tangent.sum(axis=axis, keepdims=keepdims, dtype=_F32)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(_F32),)

    return _make(data, (a,), tan, vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = a.data.size if axis is None else math.prod(a.shape[i] for i in axes)
    return mul(tsum(a, axis=axis, keepdims=keepdims), _wrap(1.0 / n))


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    tan = None if a.tangent is None else a.tangent * data

    def vjp(g):
        return (g * data,)

    return _make(data, (a,), tan, vjp)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    tan = None if a.tangent is None else a.tangent / a.data

    def vjp(g):
        return (g / a.data,)

    return _make(data, (a,), tan, vjp)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    tan = None if a.tangent is None else a.tangent / (_F32(2.0) * data)

    def vjp(g):
        return (g / (_F32(2.0) * data),)

    return _make(data, (a,), tan, vjp)


def _differentiated(a: Tensor) -> bool:
    """Whether a tangent or a gradient will need the op's derivative."""
    return a.tangent is not None or a.requires_grad


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    sech2 = _ONE - data * data if _differentiated(a) else None
    tan = None if a.tangent is None else a.tangent * sech2

    def vjp(g):
        return (g * sech2,)

    return _make(data, (a,), tan, vjp)


def sin(a: Tensor) -> Tensor:
    cos_ = np.cos(a.data) if _differentiated(a) else None
    tan = None if a.tangent is None else a.tangent * cos_

    def vjp(g):
        return (g * cos_,)

    return _make(np.sin(a.data), (a,), tan, vjp)


def cos(a: Tensor) -> Tensor:
    nsin = -np.sin(a.data) if _differentiated(a) else None
    tan = None if a.tangent is None else a.tangent * nsin

    def vjp(g):
        return (g * nsin,)

    return _make(np.cos(a.data), (a,), tan, vjp)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    data = np.clip(a.data, _F32(lo), _F32(hi))
    # zero slope at the rails
    inside = ((a.data > lo) & (a.data < hi)).astype(_F32) if _differentiated(a) else None
    tan = None if a.tangent is None else a.tangent * inside

    def vjp(g):
        return (g * inside,)

    return _make(data, (a,), tan, vjp)


def masked_fill(a: Tensor, mask, value: float) -> Tensor:
    """Replace entries where mask is true by a constant; grads and tangents there are zero."""
    mask = np.asarray(mask, dtype=bool)
    try:
        data = np.where(mask, _F32(value), a.data)
    except ValueError:
        raise ShapeError("masked_fill", f"mask {mask.shape} vs data {a.shape}") from None
    tan = None if a.tangent is None else np.where(mask, _ZERO, a.tangent)

    def vjp(g):
        return (_unbroadcast(np.where(mask, _ZERO, g), a.shape),)

    return _make(data, (a,), tan, vjp)


def detach(a: Tensor) -> Tensor:
    """Constant copy: no parents, no tangent. Backward through it is a no-op."""
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# fused layers
#
# One node each, replaying the composite's float operations in its order
# (tests/composites.py keeps the composites as the oracle). An input the
# composite reached along several paths is listed once per path, and its
# gradient comes back as one contribution per path, in the order the
# composite's nodes would add them. A temporary the op allocated itself is
# overwritten in place once nothing reads it again; inputs, and arrays a
# closure keeps, are never written.

_GELU_CUBIC = _F32(0.044715)
_GELU_SCALE = _F32(0.7978845608028654)  # sqrt(2 / pi)
_HALF = _F32(0.5)


def gelu(x: Tensor) -> Tensor:
    """tanh approximation: x/2 * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))."""
    xd, tx = x.data, x.tangent
    diff = _differentiated(x)
    xx = xd * xd
    th = xx * xd
    th *= _GELU_CUBIC
    np.add(xd, th, out=th)  # the inner sum
    th *= _GELU_SCALE
    np.tanh(th, out=th)
    sech2 = None
    if diff:
        sech2 = th * th
        np.subtract(_ONE, sech2, out=sech2)
    p = np.add(th, _ONE, out=th)
    # a call that keeps nothing writes the output over its temporaries
    half = np.multiply(xd, _HALF, out=None if diff else xx)
    data = np.multiply(half, p, out=None if diff else p)
    tan = None
    if tx is not None:
        t_cube = (tx * xd + xd * tx) * xd + xx * tx
        t_inner = (tx + _ZERO) + t_cube * _GELU_CUBIC
        t_p = (t_inner * _GELU_SCALE) * sech2 + _ZERO
        tan = (tx * _HALF) * p + half * t_p

    def vjp(g):
        g_inner = ((g * half) * sech2) * _GELU_SCALE
        g_cube = g_inner * _GELU_CUBIC
        g_sq = (g_cube * xd) * xd
        # paths: x/2, the inner sum, x^2 * x, and both factors of x * x
        return (g * p) * _HALF, g_inner, g_cube * xx, g_sq, g_sq

    return _make(data, (x,) * 5, tan, vjp)


def _softmax_parts(x: np.ndarray, axis: int, own: bool):
    """exp(x - max x) and its sum. The shift is a constant, so masked -1e9
    scores underflow to exactly 0. With own, x is scratch and becomes the exp."""
    e = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=x if own else None)
    np.exp(e, out=e)
    return e, e.sum(axis=axis, keepdims=True, dtype=_F32)


def _softmax_tangent(t_e: np.ndarray, e, s, axis: int) -> np.ndarray:
    """The tangent of e / sum(e), from t_e, the scores' tangent times e."""
    t_s = t_e.sum(axis=axis, keepdims=True, dtype=_F32)
    return t_e / s - e * t_s / (s * s)


def _softmax_grad(g: np.ndarray, e, s) -> np.ndarray:
    """The gradient on the scores of e / sum(e)."""
    g_s = _unbroadcast(-g * e / (s * s), s.shape)
    return (g / s + g_s) * e


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    e, s = _softmax_parts(x.data, axis, own=False)
    data = np.divide(e, s, out=None if _differentiated(x) else e)
    tan = None if x.tangent is None else _softmax_tangent(x.tangent * e, e, s, axis)

    def vjp(g):
        return (_softmax_grad(g, e, s),)

    return _make(data, (x,), tan, vjp)


_LN_EPS = _F32(1e-5)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    xd = x.data
    inv_n = _F32(1.0 / xd.shape[-1])
    mean = xd.sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
    d = xd - mean
    dd = d * d
    var = dd.sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
    sq = np.sqrt(var + _LN_EPS)
    q = np.divide(d, sq, out=None if _differentiated(x) else d)  # only x's derivatives read d
    try:
        scaled = _into(np.multiply, q, gain.data, dd)
        data = _into(np.add, scaled, bias.data, scaled)
    except ValueError:
        raise ShapeError("layer_norm", f"gain {gain.shape} and bias {bias.shape} "
                         f"vs input {x.shape}") from None
    scaled_shape = scaled.shape
    tx = x.tangent
    t_scaled = None
    if tx is not None:
        t_d = tx - tx.sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
        t_var = (t_d * d + d * t_d).sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
        t_sq = (t_var + _ZERO) / (_TWO * sq)
        t_scaled = (t_d / sq - d * t_sq / (sq * sq)) * gain.data
    if gain.tangent is not None:
        part = q * gain.tangent
        t_scaled = part if t_scaled is None else _into(np.add, t_scaled, part, t_scaled)
    tan = _add_tangent(data.shape, t_scaled, bias.tangent, own=True)

    def vjp(g):
        g_scaled = _unbroadcast(g, scaled_shape)
        g_gain = _unbroadcast(g_scaled * q, gain.shape) if gain.requires_grad else None
        g_bias = _unbroadcast(g, bias.shape) if bias.requires_grad else None
        if not x.requires_grad:
            return None, None, g_gain, g_bias
        g_q = _unbroadcast(g_scaled * gain.data, q.shape)
        g_sq = _unbroadcast(-g_q * d / (sq * sq), sq.shape)
        g_dd = ((g_sq / (_TWO * sq)) * inv_n) * d
        g_d = (g_q / sq + g_dd) + g_dd
        g_mean = _unbroadcast(-g_d, mean.shape) * inv_n
        # paths: x - mean, then sum(x)
        return g_d, np.broadcast_to(g_mean, xd.shape), g_gain, g_bias

    return _make(data, (x, x, gain, bias), tan, vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    out = _matmul_data("linear", x, w)
    out_shape = out.shape
    try:
        data = _into(np.add, out, b.data, out)
    except ValueError:
        raise ShapeError("linear", f"bias {b.shape} vs output {out_shape}") from None
    t_out = _product_tangent(np.matmul, x.data, x.tangent, w.data, w.tangent)
    tan = _add_tangent(data.shape, t_out, b.tangent, own=True)

    def vjp(g):
        gx, gw = _matmul_grads(_unbroadcast(g, out_shape), x.data, w.data,
                               x.requires_grad, w.requires_grad)
        return gx, gw, (_unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(data, (x, w, b), tan, vjp)


_Q_AXES, _K_AXES, _K_INV = (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2)


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, bo: Tensor,
              blocked, heads: int) -> Tensor:
    """Masked multi-head self-attention over x [batch, seq, width]: per head,
    softmax(q k^T / sqrt(hd)) v, with the scores where `blocked` [seq, seq]
    is true set to -1e9; the heads are merged and projected by wo, bo.

    One node for the composite's 17 (three projections, their head splits,
    scores, scale, mask fill, softmax, weighted sum, merge, output linear).
    x reaches the composite along the q, k and v paths, and its gradient
    comes back in that order."""
    if x.ndim != 3 or heads < 1 or x.shape[2] % heads:
        raise ShapeError("attention", f"x {x.shape} is not [batch, seq, width] "
                         f"with the width divisible by {heads} heads")
    w = x.shape[2]
    for m in (wq, wk, wv, wo):
        if m.shape != (w, w):
            raise ShapeError("attention", f"projection {m.shape} vs width {w}")
    split = (*x.shape[:2], heads, w // heads)
    scale = _F32(1.0 / np.sqrt(w // heads))
    mask = np.asarray(blocked, dtype=bool)

    def split_heads(a, axes=_Q_AXES):
        return None if a is None else a.reshape(split).transpose(axes)

    xd = x.data
    q, k_t, v = (split_heads(xd @ m.data, axes)
                 for m, axes in ((wq, _Q_AXES), (wk, _K_AXES), (wv, _Q_AXES)))
    rq, rk, rv = (x.requires_grad or m.requires_grad for m in (wq, wk, wv))
    tq, tk, tv = (_product_tangent(np.matmul, xd, x.tangent, m.data, m.tangent)
                  for m in (wq, wk, wv))
    scores = q @ k_t
    scores *= scale
    try:
        np.copyto(scores, _F32(-1e9), where=mask)
    except ValueError:
        raise ShapeError("attention", f"mask {mask.shape} vs scores {scores.shape}") from None
    e, s = _softmax_parts(scores, -1, own=True)
    keep_e = rq or rk or tq is not None or tk is not None
    att = np.divide(e, s, out=None if keep_e else e)
    o = (att @ v).transpose(_Q_AXES).reshape(x.shape)
    out = o @ wo.data
    out_shape = out.shape
    try:
        data = _into(np.add, out, bo.data, out)
    except ValueError:
        raise ShapeError("attention", f"bias {bo.shape} vs output {out_shape}") from None

    t_scores = _product_tangent(np.matmul, q, split_heads(tq), k_t, split_heads(tk, _K_AXES))
    t_att = None
    if t_scores is not None:
        t_scores *= scale
        np.copyto(t_scores, _ZERO, where=mask)
        t_att = _softmax_tangent(np.multiply(t_scores, e, out=t_scores), e, s, -1)
    t_o = _product_tangent(np.matmul, att, t_att, v, split_heads(tv))
    if t_o is not None:
        t_o = t_o.transpose(_Q_AXES).reshape(x.shape)
    t_out = _product_tangent(np.matmul, o, t_o, wo.data, wo.tangent)
    tan = _add_tangent(data.shape, t_out, bo.tangent, own=True)

    def _vjp(g):
        g_o, g_wo = _matmul_grads(_unbroadcast(g, out_shape), o, wo.data,
                                  rq or rk or rv, wo.requires_grad)
        g_bo = _unbroadcast(g, bo.shape) if bo.requires_grad else None
        g_q = g_k = g_v = None
        if g_o is not None:
            g_att, g_v = _matmul_grads(split_heads(g_o), att, v, rq or rk, rv)
            if g_att is not None:
                g_scores = _softmax_grad(g_att, e, s)
                np.copyto(g_scores, _ZERO, where=mask)
                g_scores *= scale
                g_q, g_k = _matmul_grads(g_scores, q, k_t, rq, rk)
        g_x, g_w = [None] * 3, [None] * 3
        for i, (gh, inv, m) in enumerate(((g_q, _Q_AXES, wq), (g_k, _K_INV, wk),
                                          (g_v, _Q_AXES, wv))):
            if gh is not None:
                g_x[i], g_w[i] = _matmul_grads(gh.transpose(inv).reshape(xd.shape), xd,
                                               m.data, x.requires_grad, m.requires_grad)
        return (*g_x, *g_w, g_wo, g_bo)

    return _make(data, (x, x, x, wq, wk, wv, wo, bo), tan, _vjp)


# ---------------------------------------------------------------------------
# autodiff drivers

def jvp(f, primals, tangents):
    """Evaluate f, a function with one Tensor output, in forward mode.

    primals: sequence of Tensors or arrays; tangents: matching arrays (None
    means zero). Fresh leaves are built so caller tensors stay untouched;
    anything f closes over (parameters) contributes zero tangent. Returns
    (output, output_tangent).
    """
    if len(primals) != len(tangents):
        raise ShapeError("jvp", f"{len(primals)} primals vs {len(tangents)} tangents")
    duals = []
    for p, t in zip(primals, tangents):
        base = p.data if isinstance(p, Tensor) else _as_f32(p)
        d = Tensor(base)
        if t is not None:
            t = _as_f32(t)
            if t.shape != base.shape:
                raise ShapeError("jvp", f"tangent {t.shape} vs primal {base.shape}")
            d.tangent = t
        duals.append(d)
    out = f(*duals)
    return out, out.tangent if out.tangent is not None else np.zeros_like(out.data)


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar; accumulates into leaf .grad buffers."""
    if loss.data.size != 1:
        raise ShapeError("backward", f"loss must be scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            k = id(p)
            grads[k] = pg if k not in grads else grads[k] + pg


def zero_grad(params: dict[str, Tensor]):
    for p in params.values():
        p.grad = None
