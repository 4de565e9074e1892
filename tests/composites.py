"""The network layers as compositions of tensor primitives.

These are the forms `linear`, `layer_norm`, `gelu`, `softmax` and
`attention` took before each became one fused node in vmflow.tensor. They
stay here as the oracle: the fused nodes must reproduce their primal values,
tangents and gradients bit for bit, in any graph (tests/test_fused.py).
"""
import numpy as np

from vmflow import tensor as T
from vmflow.tensor import Tensor


def gelu(x: Tensor) -> Tensor:
    # tanh approximation
    inner = x + (x * x * x) * 0.044715
    return x * 0.5 * (T.tanh(inner * 0.7978845608028654) + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # the shift is a constant, so masked -1e9 scores underflow to exactly 0
    shift = Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = T.exp(T.sub(x, shift))
    return T.div(e, T.tsum(e, axis=axis, keepdims=True))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    m = T.tmean(x, axis=-1, keepdims=True)
    d = T.sub(x, m)
    var = T.tmean(T.mul(d, d), axis=-1, keepdims=True)
    return T.add(T.mul(T.div(d, T.sqrt(T.add(var, Tensor(1e-5)))), gain), bias)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return T.add(T.matmul(x, w), b)


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, bo: Tensor,
              blocked: np.ndarray, heads: int) -> Tensor:
    b, s, w = x.shape
    hd = w // heads

    def split(m, axes=(0, 2, 1, 3)):
        proj = T.matmul(x, m)
        return T.transpose(T.reshape(proj, (b, s, heads, hd)), axes)

    q, k_t, v = split(wq), split(wk, (0, 2, 3, 1)), split(wv)  # k_t: [b, h, hd, s]
    scores = T.matmul(q, k_t) * np.float32(1.0 / np.sqrt(hd))
    scores = T.masked_fill(scores, blocked[None, None, :, :], -1e9)
    att = softmax(scores, axis=-1)
    out = T.transpose(T.matmul(att, v), (0, 2, 1, 3))
    return linear(T.reshape(out, (b, s, w)), wo, bo)


FUSED = ("gelu", "softmax", "layer_norm", "linear", "attention")


def patch_composites(monkeypatch):
    """Route every library call of the fused layers to the composites."""
    for name in FUSED:
        monkeypatch.setattr(T, name, globals()[name])
