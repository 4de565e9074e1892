"""One-step and few-step sampling with classifier-free guidance.

The K-step path walks a uniform descending grid t_k = 1 - k/K and applies
x <- x - (t_k - t_{k+1}) * u at each step; K = 1 reduces to the one-shot
rule x = eps - u(c, eps, r=0, t=1) bit-exactly, since the single step has
width 1.0 and multiplying by it is exact. Guidance is the affine
combination w * u_cond + (1 - w) * u_uncond, applied at every step; w = 1
skips the unconditional pass entirely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mask import single_group_mask
from .model import ModelDims, theta_forward
from .rng import normal_f32
from .tensor import Tensor, detach

_F32 = np.float32


class SampleError(RuntimeError):
    pass


def guide(u_cond: np.ndarray, u_uncond: np.ndarray, w: float) -> np.ndarray:
    if u_cond.shape != u_uncond.shape:
        raise SampleError(f"guidance shapes differ: {u_cond.shape} vs {u_uncond.shape}")
    return (_F32(w) * u_cond + _F32(1.0 - w) * u_uncond).astype(_F32)


class ModelField:
    """Velocity field over plain arrays, backed by the transformer.

    h is fixed at construction (one prior draw per trajectory, reused by
    every evaluation including unconditional guidance passes). Each call
    counts one function evaluation. Each call runs the transformer on
    constant views of the parameters' current values, so it records no
    graph even when the parameters take gradients, as those `train_model`
    returns do.
    """

    def __init__(self, params: dict[str, Tensor], dims: ModelDims,
                 h: np.ndarray | None = None):
        if dims.latent_tokens and h is None:
            raise SampleError("variational model needs a latent draw h")
        if not dims.latent_tokens and h is not None:
            raise SampleError("h supplied but the model has no latent token")
        self.params = params
        self.dims = dims
        self.h = None if h is None else Tensor(h)
        self.calls = 0
        self._masks = {}

    def __call__(self, c: np.ndarray, z: np.ndarray, r: np.ndarray,
                 t: np.ndarray) -> np.ndarray:
        key = (z.shape[1], c.shape[1])
        if key not in self._masks:
            self._masks[key] = single_group_mask(z.shape[1], c.shape[1],
                                                 self.dims.latent_tokens)
        consts = {k: detach(p) for k, p in self.params.items()}
        u = theta_forward(consts, self.dims, Tensor(c), self.h, None,
                          Tensor(z), self._masks[key], t, r)
        self.calls += 1
        if not np.all(np.isfinite(u.data)):
            raise SampleError("non-finite model output")
        return u.data


def _step_u(field, c, z, r, t, w, null_c):
    u_cond = field(c, z, r, t)
    if w == 1.0 or null_c is None:
        return u_cond
    return guide(u_cond, field(null_c, z, r, t), w)


def sample_one_nfe(field, c: np.ndarray, eps: np.ndarray, *,
                   guidance_w: float = 1.0,
                   null_c: np.ndarray | None = None) -> np.ndarray:
    """x = eps - u(c, eps, r=0, t=1), with optional guidance."""
    b = eps.shape[0]
    r = np.zeros(b, dtype=_F32)
    t = np.ones(b, dtype=_F32)
    u = _step_u(field, c, eps, r, t, guidance_w, null_c)
    x = eps - u
    if not np.all(np.isfinite(x)):
        raise SampleError("non-finite sample")
    return x


def sample_multi_step(field, c: np.ndarray, eps: np.ndarray, nfe: int, *,
                      guidance_w: float = 1.0,
                      null_c: np.ndarray | None = None) -> np.ndarray:
    if nfe < 1:
        raise SampleError(f"nfe must be >= 1, got {nfe}")
    b = eps.shape[0]
    grid = np.array([1.0 - k / nfe for k in range(nfe + 1)], dtype=_F32)
    x = eps.copy()
    for k in range(nfe):
        t_k, t_next = grid[k], grid[k + 1]
        t = np.full(b, t_k, dtype=_F32)
        r = np.full(b, t_next, dtype=_F32)
        u = _step_u(field, c, x, r, t, guidance_w, null_c)
        x = x - (t_k - t_next) * u
    if not np.all(np.isfinite(x)):
        raise SampleError("non-finite sample")
    return x


def null_condition_array(params: dict[str, Tensor], batch: int,
                         cond_len: int) -> np.ndarray:
    vec = params["theta/c_null"].data
    return np.broadcast_to(vec.reshape(1, 1, -1),
                           (batch, cond_len, vec.size)).astype(_F32)


@dataclass
class SampleResult:
    x: np.ndarray        # generated latents [B, L, D]
    eps: np.ndarray      # the noise they started from
    calls: int           # model evaluations consumed


def sample_batch(params: dict[str, Tensor], dims: ModelDims, c: np.ndarray,
                 sample_len: int, rng: np.random.Generator, *, nfe: int = 1,
                 guidance_w: float = 1.0,
                 conditional: bool = True) -> SampleResult:
    """Draw noise (then the latent, in that order) and integrate.

    Unconditional mode substitutes the learned null condition and collapses
    to a single pass per step; guidance against the null of itself would be
    degenerate.
    """
    c = np.asarray(c, dtype=_F32)
    b = c.shape[0]
    eps = normal_f32(rng, (b, sample_len, dims.data_dim))
    h = normal_f32(rng, (b, 1, dims.latent_dim)) if dims.latent_tokens else None
    field = ModelField(params, dims, h=h)
    if not conditional:
        c = null_condition_array(params, b, c.shape[1])
        guidance_w = 1.0
    null_c = (null_condition_array(params, b, c.shape[1])
              if guidance_w != 1.0 else None)
    x = sample_multi_step(field, c, eps, nfe, guidance_w=guidance_w,
                          null_c=null_c)
    return SampleResult(x=x, eps=eps, calls=field.calls)
