"""Adam with bias correction, applied in place to parameter tensors.

Adam is elementwise, so `Adam.step` updates every parameter that has a
gradient in one vectorized pass over the concatenated gradients, moments
and values; each tensor comes out bitwise as `_adam_arrays` on it alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

_F32 = np.float32


class NonFiniteGradError(RuntimeError):
    """A gradient contained NaN or inf; names the offending parameter."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient for parameter '{name}'")
        self.name = name


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter."""
    m: np.ndarray
    v: np.ndarray


def _adam_arrays(p, g, m, v, step, lr, beta1, beta2, eps):
    """(new value, new m, new v) of one Adam step, elementwise in f32."""
    b1, b2 = _F32(beta1), _F32(beta2)
    m = b1 * m + (_F32(1.0) - b1) * g
    v = b2 * v + (_F32(1.0) - b2) * (g * g)
    mhat = m / _F32(1.0 - beta1 ** step)
    vhat = v / _F32(1.0 - beta2 ** step)
    return p - _F32(lr) * mhat / (np.sqrt(vhat) + _F32(eps)), m, v


class Adam:
    """Per-parameter moment tracking over a dict of named tensors."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.state = {k: AdamState(np.zeros_like(p.data), np.zeros_like(p.data))
                      for k, p in params.items()}

    def step(self):
        """Update every parameter with a gradient; a non-finite gradient
        raises, naming its parameter, before anything is updated."""
        self.step_count += 1
        live = [(name, p, self.state[name]) for name, p in self.params.items()
                if p.grad is not None]
        if not live:
            return
        grad = np.concatenate([p.grad.ravel() for _, p, _ in live])
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradError(next(name for name, p, _ in live
                                          if not np.all(np.isfinite(p.grad))))
        flat = _adam_arrays(np.concatenate([p.data.ravel() for _, p, _ in live]), grad,
                            np.concatenate([st.m.ravel() for _, _, st in live]),
                            np.concatenate([st.v.ravel() for _, _, st in live]),
                            self.step_count, self.lr, self.beta1, self.beta2, self.eps)
        end = 0
        for _, p, st in live:
            start, end, shape = end, end + p.data.size, p.data.shape
            p.data, st.m, st.v = (a[start:end].reshape(shape) for a in flat)

    def zero_grad(self):
        T.zero_grad(self.params)

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Flatten moments (plus the step counter) for checkpointing."""
        out: dict[str, np.ndarray] = {"adam/step": np.asarray([self.step_count], dtype=_F32)}
        for name, st in self.state.items():
            out[f"adam/m/{name}"] = st.m
            out[f"adam/v/{name}"] = st.v
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray]):
        self.step_count = int(tensors["adam/step"][0])
        for name, st in self.state.items():
            st.m = tensors[f"adam/m/{name}"].reshape(st.m.shape).copy()
            st.v = tensors[f"adam/v/{name}"].reshape(st.v.shape).copy()

