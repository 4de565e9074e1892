"""The network layers as compositions of tensor primitives.

These are the forms `linear`, `layer_norm`, `gelu` and `softmax` took before
each became one fused node in vmflow.tensor. They stay here as the oracle:
the fused nodes must reproduce their primal values, tangents and gradients
bit for bit, in any graph (tests/test_fused.py).
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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    m = T.tmean(x, axis=-1, keepdims=True)
    d = T.sub(x, m)
    var = T.tmean(T.mul(d, d), axis=-1, keepdims=True)
    return T.add(T.mul(T.div(d, T.sqrt(T.add(var, Tensor(eps)))), gain), bias)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = T.matmul(x, w)
    return out if b is None else T.add(out, b)


FUSED = ("gelu", "softmax", "layer_norm", "linear")


def patch_composites(monkeypatch):
    """Route every library call of the fused layers to the composites."""
    for name in FUSED:
        monkeypatch.setattr(T, name, globals()[name])
