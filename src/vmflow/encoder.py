"""Variational encoder producing (mu, log_var) and a reparameterized latent.

The encoder sees everything the flow sees at one training step: condition,
noise, clean sample, interpolant, and the times. Token inputs are mean
pooled before concatenation, so the encoder is a plain MLP regardless of
sequence length. h = mu + exp(0.5 * log_var) * noise, where the noise is
a standard-normal draw the caller makes (independent of the flow noise,
so the posterior stays stochastic given the flow inputs).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import ModelDims, _ensure, _time_column, normal_param, zeros_param
from .tensor import ShapeError, Tensor

_F32 = np.float32

LOG_VAR_RANGE = 10.0  # clamp before exp; keeps sigma in [e^-5, e^5]


@dataclass
class VariationalOutput:
    mu: Tensor        # [B, latent_dim]
    log_var: Tensor   # [B, latent_dim], clamped
    h: Tensor         # [B, latent_dim]


def init_phi(rng: np.random.Generator, dims: ModelDims) -> dict[str, Tensor]:
    d_in = dims.cond_dim + 3 * dims.data_dim + 2
    hid = dims.phi_hidden
    normal = functools.partial(normal_param, rng)
    return {
        "phi/w1": normal(d_in, hid), "phi/b1": zeros_param(hid),
        "phi/w2": normal(hid, hid), "phi/b2": zeros_param(hid),
        "phi/mu/w": normal(hid, dims.latent_dim), "phi/mu/b": zeros_param(dims.latent_dim),
        "phi/lv/w": normal(hid, dims.latent_dim), "phi/lv/b": zeros_param(dims.latent_dim),
    }


def _pooled(x, name: str) -> Tensor:
    t = _ensure("phi_forward", x, name)
    if t.ndim != 3:
        raise ShapeError("phi_forward", f"{name} must be [batch, len, dim], got {t.shape}")
    if not np.all(np.isfinite(t.data)):
        raise ShapeError("phi_forward", f"non-finite values in {name}")
    return T.tmean(t, axis=1)


def phi_forward(params: dict[str, Tensor], dims: ModelDims, c, eps, x, z, r, t,
                *, noise: np.ndarray) -> VariationalOutput:
    """(mu, log_var) from pooled (c, eps, x, z) plus (t, r); h via reparameterization.

    t, r: [B] or [B, 1], as theta_forward takes them; noise: [B, latent_dim].
    """
    feats = T.concat([_pooled(c, "c"), _pooled(eps, "eps"), _pooled(x, "x"),
                      _pooled(z, "z"), _time_column("phi_forward", t, "t"),
                      _time_column("phi_forward", r, "r")], axis=1)
    hid = T.gelu(T.linear(feats, params["phi/w1"], params["phi/b1"]))
    hid = T.gelu(T.linear(hid, params["phi/w2"], params["phi/b2"]))
    mu = T.linear(hid, params["phi/mu/w"], params["phi/mu/b"])
    log_var = T.clip(T.linear(hid, params["phi/lv/w"], params["phi/lv/b"]),
                     -LOG_VAR_RANGE, LOG_VAR_RANGE)
    noise = np.asarray(noise, dtype=_F32)
    if noise.shape != mu.shape:
        raise ShapeError("phi_forward", f"noise {noise.shape} vs mu {mu.shape}")
    sigma = T.exp(log_var * 0.5)
    h = mu + sigma * Tensor(noise)
    return VariationalOutput(mu=mu, log_var=log_var, h=h)
