"""One-step and few-step sampling with classifier-free guidance.

The sampler walks a uniform descending grid t_k = 1 - k/K and applies
x <- x - (t_k - t_{k+1}) * u at each step. K = 1 is the one-shot rule
x = eps - u(c, eps, r=0, t=1), bit for bit: the single step has width 1.0
and multiplying by it is exact. Guidance is the affine
combination w * u_cond + (1 - w) * u_uncond, applied at every step; w = 1
skips the unconditional pass entirely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mask import single_group_mask
from .model import ModelDims, null_condition_tokens, theta_forward
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

    def __call__(self, c: np.ndarray, z: np.ndarray, r: np.ndarray,
                 t: np.ndarray) -> np.ndarray:
        mask = single_group_mask(z.shape[1], c.shape[1], self.dims.latent_tokens)
        consts = {k: detach(p) for k, p in self.params.items()}
        u = theta_forward(consts, self.dims, Tensor(c), self.h, None,
                          Tensor(z), mask, t[:, None], r[:, None])
        self.calls += 1
        if not np.all(np.isfinite(u.data)):
            raise SampleError("non-finite model output")
        return u.data


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
        u = field(c, x, r, t)
        if guidance_w != 1.0 and null_c is not None:
            u = guide(u, field(null_c, x, r, t), guidance_w)
        x = x - (t_k - t_next) * u
    if not np.all(np.isfinite(x)):
        raise SampleError("non-finite sample")
    return x


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
    null_c = (null_condition_tokens(params, b, c.shape[1]).data
              if guidance_w != 1.0 or not conditional else None)
    if not conditional:
        c, null_c = null_c, None
    x = sample_multi_step(field, c, eps, nfe, guidance_w=guidance_w,
                          null_c=null_c)
    return SampleResult(x=x, eps=eps, calls=field.calls)
