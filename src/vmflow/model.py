"""Causality-aware transformer predicting average velocity over [r, t].

The input sequence is the concatenation [c | h | x_p | z]: condition tokens,
an optional variational latent token, clean tokens of earlier groups, and
the noisy tokens being denoised. Segments are linearly embedded into a
shared width, tagged with additive segment-id vectors, and the z segment
additionally receives a time embedding of (t, t - r). The velocity u is
read off the z positions by a linear head (near-zero init, so the model
starts close to the identity map x_hat = eps).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .mask import AttentionMask
from .tensor import ShapeError, Tensor

_F32 = np.float32


@dataclass(frozen=True)
class ModelDims:
    cond_dim: int
    data_dim: int
    latent_dim: int = 16
    width: int = 64
    heads: int = 4
    blocks: int = 4
    time_freqs: int = 8      # sin/cos pairs per scalar, 4*time_freqs features total
    phi_hidden: int = 64
    latent_tokens: int = 1   # 0 disables the variational branch entirely

    def __post_init__(self):
        if self.width % self.heads:
            raise ShapeError("model", f"width {self.width} not divisible by heads {self.heads}")
        if self.latent_tokens not in (0, 1):
            raise ShapeError("model", f"latent_tokens must be 0 or 1, got {self.latent_tokens}")


def normal_param(rng: np.random.Generator, *shape, scale=0.02) -> Tensor:
    """N(0, scale^2) f32 parameter; init_theta and init_phi share these helpers."""
    return T.parameter(rng.standard_normal(shape).astype(_F32) * _F32(scale))


def zeros_param(*shape) -> Tensor:
    return T.parameter(np.zeros(shape, dtype=_F32))


def ones_param(*shape) -> Tensor:
    return T.parameter(np.ones(shape, dtype=_F32))


def init_theta(rng: np.random.Generator, dims: ModelDims) -> dict[str, Tensor]:
    """Parameter dict under 'theta/...'; checkpoint-ready names."""
    w = dims.width
    p: dict[str, Tensor] = {}
    normal = functools.partial(normal_param, rng)
    for seg, d_in in (("c", dims.cond_dim), ("h", dims.latent_dim),
                      ("xp", dims.data_dim), ("z", dims.data_dim)):
        p[f"theta/embed_{seg}/w"] = normal(d_in, w)
        p[f"theta/embed_{seg}/b"] = zeros_param(w)
        p[f"theta/seg/{seg}"] = normal(w)
    p["theta/c_null"] = normal(dims.cond_dim)
    tf = 4 * dims.time_freqs
    p["theta/time/w1"] = normal(tf, w)
    p["theta/time/b1"] = zeros_param(w)
    p["theta/time/w2"] = normal(w, w)
    p["theta/time/b2"] = zeros_param(w)
    for k in range(dims.blocks):
        b = f"theta/blk{k}"
        p[f"{b}/ln1/g"] = ones_param(w)
        p[f"{b}/ln1/b"] = zeros_param(w)
        for m in ("wq", "wk", "wv", "wo"):
            p[f"{b}/attn/{m}"] = normal(w, w)
        p[f"{b}/attn/bo"] = zeros_param(w)
        p[f"{b}/ln2/g"] = ones_param(w)
        p[f"{b}/ln2/b"] = zeros_param(w)
        p[f"{b}/mlp/w1"] = normal(w, 4 * w)
        p[f"{b}/mlp/b1"] = zeros_param(4 * w)
        p[f"{b}/mlp/w2"] = normal(4 * w, w)
        p[f"{b}/mlp/b2"] = zeros_param(w)
    p["theta/ln_f/g"] = ones_param(w)
    p["theta/ln_f/b"] = zeros_param(w)
    p["theta/head/w"] = normal(w, dims.data_dim, scale=0.002)  # start near u = 0
    p["theta/head/b"] = zeros_param(dims.data_dim)
    return p


def _ensure(x, name: str) -> Tensor:
    if isinstance(x, Tensor):
        return x
    try:
        return Tensor(x)
    except Exception as e:
        raise ShapeError("theta_forward", f"bad input {name}: {e}") from None


def _time_column(x, name: str) -> Tensor:
    """Scalar, [B], or [B,1] time -> column Tensor, preserving any tangent."""
    t = _ensure(x, name)
    if t.ndim > 2 or (t.ndim == 2 and t.shape[1] != 1):
        raise ShapeError("theta_forward", f"{name} must be scalar or [batch], got {t.shape}")
    return T.reshape(t, (-1, 1))


def embed_time(t, r, params: dict[str, Tensor], dims: ModelDims) -> Tensor:
    """Sinusoidal features of t and (t - r) through a two-layer MLP -> [B, width]."""
    tc = _time_column(t, "t")
    rc = _time_column(r, "r")
    for name, col in (("t", tc), ("r", rc)):
        if np.any(col.data < 0.0) or np.any(col.data > 1.0):
            raise ShapeError("embed_time", f"{name} outside [0,1]: {col.data.ravel()[:4]}")
    freqs = Tensor((2.0 ** np.arange(dims.time_freqs) * np.pi).astype(_F32)[None, :])
    feats = []
    for col in (tc, tc - rc):
        ang = col * freqs
        feats.extend([T.sin(ang), T.cos(ang)])
    f = T.concat(feats, axis=1)
    hdn = T.gelu(T.linear(f, params["theta/time/w1"], params["theta/time/b1"]))
    return T.linear(hdn, params["theta/time/w2"], params["theta/time/b2"])


def null_condition_tokens(params: dict[str, Tensor], batch: int, cond_len: int,
                          dims: ModelDims) -> Tensor:
    """c_null tiled to [batch, cond_len, cond_dim]; gradient reaches c_null."""
    tile = Tensor(np.ones((batch, cond_len, 1), dtype=_F32))
    return tile * T.reshape(params["theta/c_null"], (1, 1, dims.cond_dim))


def _attention(x: Tensor, blocked: np.ndarray, params, prefix: str,
               dims: ModelDims) -> Tensor:
    b, s, w = x.shape
    hd = w // dims.heads

    def heads(m):
        proj = T.matmul(x, params[f"{prefix}/{m}"])
        return T.transpose(T.reshape(proj, (b, s, dims.heads, hd)), (0, 2, 1, 3))

    q, k, v = heads("wq"), heads("wk"), heads("wv")
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * _F32(1.0 / np.sqrt(hd))
    scores = T.masked_fill(scores, blocked[None, None, :, :], -1e9)
    att = T.softmax(scores, axis=-1)
    out = T.transpose(T.matmul(att, v), (0, 2, 1, 3))
    out = T.reshape(out, (b, s, w))
    return T.linear(out, params[f"{prefix}/wo"], params[f"{prefix}/bo"])


def theta_forward(params: dict[str, Tensor], dims: ModelDims, c, h, x_p, z,
                  mask: AttentionMask, t, r, collect_block: int | None = None):
    """Predict u over the z segment; optionally also return mid-layer z reps.

    c, x_p, z: [B, len, dim] (x_p and h may be None for zero-length segments).
    t, r: scalar or [B], 0 <= r <= t <= 1. Output matches z's shape.
    """
    z = _ensure(z, "z")
    if z.ndim != 3 or z.shape[1] == 0:
        raise ShapeError("theta_forward", f"z must be [batch, len>=1, dim], got {z.shape}")
    bsz, z_len, _ = z.shape

    tc = _time_column(t, "t")
    rc = _time_column(r, "r")
    if np.any(rc.data > tc.data) or np.any(rc.data < 0.0) or np.any(tc.data > 1.0):
        raise ShapeError("theta_forward", "need 0 <= r <= t <= 1 elementwise")

    segments = []
    for name, tok in (("c", c), ("h", h), ("xp", x_p)):
        tok = None if tok is None else _ensure(tok, name)
        if tok is not None and tok.shape[1]:
            segments.append((name, tok))
    segments.append(("z", z))
    lens = {name: tok.shape[1] for name, tok in segments}
    got = (lens.get("c", 0) + lens.get("h", 0), lens.get("xp", 0), z_len)
    want = (mask.cond_len + mask.latent_len, mask.visible_len, mask.sample_len)
    if got != want:
        raise ShapeError("theta_forward", f"mask segment lengths (cond+latent, "
                         f"visible, sample) {want} disagree with inputs {got}")
    z_off = mask.seq_len - z_len

    time_emb = T.reshape(embed_time(tc, rc, params, dims), (-1, 1, dims.width))
    embedded = []
    for name, tok in segments:
        e = T.linear(tok, params[f"theta/embed_{name}/w"], params[f"theta/embed_{name}/b"])
        e = e + T.reshape(params[f"theta/seg/{name}"], (1, 1, dims.width))
        if name == "z":
            e = e + time_emb  # temporal information enters through z only
        embedded.append(e)
    x = embedded[0] if len(embedded) == 1 else T.concat(embedded, axis=1)

    blocked = mask.blocked
    reps = None
    for k in range(dims.blocks):
        b = f"theta/blk{k}"
        x = x + _attention(T.layer_norm(x, params[f"{b}/ln1/g"], params[f"{b}/ln1/b"]),
                           blocked, params, f"{b}/attn", dims)
        hdn = T.layer_norm(x, params[f"{b}/ln2/g"], params[f"{b}/ln2/b"])
        hdn = T.linear(T.gelu(T.linear(hdn, params[f"{b}/mlp/w1"], params[f"{b}/mlp/b1"])),
                       params[f"{b}/mlp/w2"], params[f"{b}/mlp/b2"])
        x = x + hdn
        if collect_block is not None and k == collect_block:
            reps = T.tmean(x[:, z_off:, :], axis=1)
    x = T.layer_norm(x, params["theta/ln_f/g"], params["theta/ln_f/b"])
    u = T.linear(x[:, z_off:, :], params["theta/head/w"], params["theta/head/b"])
    if collect_block is None:
        return u
    return u, reps
