"""Dense float32 tensors with joint forward-mode and reverse-mode autodiff.

Every op computes three things at once: the primal value, an optional
forward-mode tangent (for Jacobian-vector products), and a reverse-mode
closure registered on the primal graph. Tangents ride along as an extra
buffer on each Tensor, so a single evaluation of a network yields both
u and du/dt without a second pass. Arrays are numpy float32 throughout;
tensors are treated as immutable once created (the optimizer rebinds
`.data` between steps, never mid-graph).

`linear`, `layer_norm`, `gelu` and `softmax` are single fused nodes. Each
runs the numpy float operations of its composite form (built from the
primitives above it) in the same order, and returns its input gradients
as the separate contributions the composite's nodes would make, so that
results are bitwise those of the composite in any graph.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "parameter", "jvp", "backward", "zero_grad",
    "add", "sub", "mul", "div", "matmul", "transpose", "reshape", "concat",
    "tsum", "tmean", "exp", "log", "sqrt", "tanh", "sin", "cos", "clip",
    "masked_fill", "detach", "gelu", "softmax", "layer_norm", "linear",
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


def _add_tangent(shape, ta, tb):
    """The tangent of a + b: zeros of the output shape plus each tangent
    present. 0 + t is t + 0, so a full-shape first tangent skips the zeros."""
    if ta is None and tb is None:
        return None
    if ta is not None and ta.shape == shape:
        tan = ta + _ZERO
    else:
        tan = np.zeros(shape, dtype=_F32)
        if ta is not None:
            tan = tan + ta
    if tb is not None:
        tan = tan + tb
    return tan


def _product_tangent(f, a: Tensor, b: Tensor):
    """The product rule for a bilinear f: f(ta, b) + f(a, tb), where an
    absent tangent drops its term."""
    ta, tb = a.tangent, b.tangent
    tan = None if ta is None else f(ta, b.data)
    if tb is not None:
        part = f(a.data, tb)
        tan = part if tan is None else tan + part
    return tan


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
    tan = _product_tangent(np.multiply, a, b)

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


def _matmul_vjp(g, a: Tensor, b: Tensor):
    ga = gb = None
    if a.requires_grad:
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape, keep_last=2)
    if b.requires_grad:
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape, keep_last=2)
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = _matmul_data("matmul", a, b)

    def vjp(g):
        return _matmul_vjp(g, a, b)

    return _make(data, (a, b), _product_tangent(np.matmul, a, b), vjp)


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
# composite's nodes would add them.

_GELU_CUBIC = _F32(0.044715)
_GELU_SCALE = _F32(0.7978845608028654)  # sqrt(2 / pi)
_HALF = _F32(0.5)


def gelu(x: Tensor) -> Tensor:
    """tanh approximation: x/2 * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))."""
    xd, tx = x.data, x.tangent
    xx = xd * xd
    inner = xd + (xx * xd) * _GELU_CUBIC
    th = np.tanh(inner * _GELU_SCALE)
    p = th + _ONE
    half = xd * _HALF
    data = half * p
    sech2 = _ONE - th * th if _differentiated(x) else None
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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # the shift is a constant, so masked -1e9 scores underflow to exactly 0
    e = np.exp(x.data - np.max(x.data, axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True, dtype=_F32)
    data = e / s
    tan = None
    if x.tangent is not None:
        t_e = x.tangent * e
        t_s = t_e.sum(axis=axis, keepdims=True, dtype=_F32)
        tan = t_e / s - e * t_s / (s * s)

    def vjp(g):
        g_s = _unbroadcast(-g * e / (s * s), s.shape)
        return ((g / s + g_s) * e,)

    return _make(data, (x,), tan, vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    xd = x.data
    inv_n = _F32(1.0 / xd.shape[-1])
    mean = xd.sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
    d = xd - mean
    var = (d * d).sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
    sq = np.sqrt(var + _F32(eps))
    q = d / sq
    try:
        scaled = q * gain.data
        data = scaled + bias.data
    except ValueError:
        raise ShapeError("layer_norm", f"gain {gain.shape} and bias {bias.shape} "
                         f"vs input {x.shape}") from None
    tx = x.tangent
    t_scaled = None
    if tx is not None:
        t_d = tx - tx.sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
        t_var = (t_d * d + d * t_d).sum(axis=-1, keepdims=True, dtype=_F32) * inv_n
        t_sq = (t_var + _ZERO) / (_TWO * sq)
        t_scaled = (t_d / sq - d * t_sq / (sq * sq)) * gain.data
    if gain.tangent is not None:
        part = q * gain.tangent
        t_scaled = part if t_scaled is None else t_scaled + part
    tan = _add_tangent(data.shape, t_scaled, bias.tangent)

    def vjp(g):
        g_scaled = _unbroadcast(g, scaled.shape)
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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    if b is None:
        return matmul(x, w)
    out = _matmul_data("linear", x, w)
    try:
        data = out + b.data
    except ValueError:
        raise ShapeError("linear", f"bias {b.shape} vs output {out.shape}") from None
    tan = _add_tangent(data.shape, _product_tangent(np.matmul, x, w), b.tangent)

    def vjp(g):
        gx, gw = _matmul_vjp(_unbroadcast(g, out.shape), x, w)
        return gx, gw, (_unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(data, (x, w, b), tan, vjp)


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


def zero_grad(params):
    vals = params.values() if isinstance(params, dict) else params
    for p in vals:
        p.grad = None
