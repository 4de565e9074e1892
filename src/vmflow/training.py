"""Mean-flow training: interpolant batches, joint JVP, composite loss, Adam.

One step evaluates the network along the tangent direction (v, 0, 1) over
(z, r, t), so u and du/dt come out of a single forward pass. The target
u_t = v - (t - r) * du/dt is assembled in plain numpy and re-enters the
graph as a constant, which is what makes it a stopgradient. The loss is
L2 + alpha * KL + beta * dispersive, in exactly that f32 evaluation order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .encoder import init_phi, phi_forward
from .mask import GroupSplit, build_mask, single_group_mask, split_with_decay
from .model import ModelDims, init_theta, null_condition_tokens, theta_forward
from .optim import Adam
from .rng import make_rng, normal_f32
from .tensor import Tensor

_F32 = np.float32


class TrainError(RuntimeError):
    pass


class StepAbortError(TrainError):
    """Loss went non-finite; carries the component values for diagnosis."""

    def __init__(self, step_info: dict):
        super().__init__(f"non-finite loss, step aborted: {step_info}")
        self.step_info = step_info


# ---------------------------------------------------------------------------
# batches and time sampling

@dataclass
class FlowBatch:
    x: np.ndarray    # clean [B, L, D]
    c: np.ndarray    # condition [B, Lc, Dc]
    eps: np.ndarray  # noise, same shape as x
    t: np.ndarray    # [B]
    r: np.ndarray    # [B], r <= t
    z: np.ndarray    # interpolant (1-t) x + t eps
    v: np.ndarray    # velocity eps - x

    def __post_init__(self):
        if np.any(self.r > self.t):
            raise TrainError("batch has r > t")


def sample_time_pairs(n: int, strategy: str, rng: np.random.Generator, *,
                      p_equal: float = 0.5, lognorm_mean: float = -0.4,
                      lognorm_std: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Two raw draws per example, ordered to (t, r) = (max, min); with
    probability p_equal the pair collapses to r = t."""
    if strategy == "uniform":
        raw = rng.random((2, n))
    elif strategy == "lognormal":
        raw = 1.0 / (1.0 + np.exp(-rng.normal(lognorm_mean, lognorm_std, (2, n))))
    else:
        raise TrainError(f"unknown time sampling strategy '{strategy}'")
    t = np.maximum(raw[0], raw[1]).astype(_F32)
    r = np.minimum(raw[0], raw[1]).astype(_F32)
    equal = rng.random(n) < p_equal
    r = np.where(equal, t, r)
    return t, r


def make_flow_batch(x: np.ndarray, c: np.ndarray, rng: np.random.Generator,
                    cfg: RunConfig) -> FlowBatch:
    x = np.asarray(x, dtype=_F32)
    c = np.asarray(c, dtype=_F32)
    eps = normal_f32(rng, x.shape)
    t, r = sample_time_pairs(x.shape[0], cfg.time_sampling, rng,
                             p_equal=cfg.p_equal, lognorm_mean=cfg.lognorm_mean,
                             lognorm_std=cfg.lognorm_std)
    z = ((1.0 - t)[:, None, None] * x + t[:, None, None] * eps).astype(_F32)
    v = eps - x
    return FlowBatch(x=x, c=c, eps=eps, t=t, r=r, z=z, v=v)


# ---------------------------------------------------------------------------
# loss terms

def kl_loss(mu: Tensor, log_var: Tensor) -> Tensor:
    """KL(N(mu, diag e^log_var) || N(0, I)), summed over dims, batch-averaged."""
    if not (np.all(np.isfinite(mu.data)) and np.all(np.isfinite(log_var.data))):
        raise TrainError("non-finite input to kl_loss")
    per_ex = T.tsum(T.exp(log_var) + mu * mu - 1.0 - log_var, axis=1)
    return T.tmean(per_ex) * 0.5


def dispersive_loss(reps: Tensor, tau: float) -> Tensor:
    """log of the mean over all B^2 pairs of exp(-squared distance / tau).

    Always <= 0; equals 0 when every row is identical. The diagonal is
    included, matching the plain double sum.
    """
    if tau <= 0:
        raise TrainError(f"tau must be positive, got {tau}")
    if reps.ndim != 2 or reps.shape[0] < 1:
        raise TrainError(f"reps must be [batch>=1, width], got {reps.shape}")
    gram = T.matmul(reps, T.transpose(reps, (1, 0)))
    sq = T.tsum(reps * reps, axis=1)
    b = reps.shape[0]
    d2 = T.reshape(sq, (b, 1)) + T.reshape(sq, (1, b)) - gram * 2.0
    d2 = T.clip(d2, 0.0, np.inf)  # f32 cancellation can leave tiny negatives
    return T.log(T.tmean(T.exp(d2 * _F32(-1.0 / tau))))


def mean_flow_target(v: np.ndarray, t: np.ndarray, r: np.ndarray,
                     u_dot: np.ndarray) -> np.ndarray:
    """v - (t - r) * du/dt, in plain numpy: re-entering the graph as a
    constant is what makes this a stopgradient. At r = t it is v exactly."""
    if not np.all(np.isfinite(u_dot)):
        raise TrainError("non-finite du/dt in target")
    return v - (t - r)[:, None, None] * u_dot


@dataclass
class LossReport:
    l2: float
    kl: float
    dispersive: float
    total: float
    t_mean: float = 0.0
    r_mean: float = 0.0
    wallclock_ms: float = 0.0


# ---------------------------------------------------------------------------
# the training step

@dataclass
class StepDraws:
    """Per-step randomness, drawn in a fixed order before any graph work.

    Variants that share a subset of these draws stay on the same stream:
    the layout coin and dropout coins are consumed unconditionally, the
    prior and reparameterization draws only when a latent token exists.
    """
    inference_layout: bool
    drop: np.ndarray               # bool [B]
    h_prior: np.ndarray | None     # [B, 1, latent] when layout coin hit
    reparam: np.ndarray | None     # [B, latent]


def draw_step_randomness(cfg: RunConfig, dims: ModelDims, bsz: int,
                         rng: np.random.Generator) -> StepDraws:
    variational = dims.latent_tokens > 0
    inference_layout = bool(rng.random() < cfg.p_inference_layout)
    drop = rng.random(bsz) < cfg.cond_dropout
    h_prior = (normal_f32(rng, (bsz, 1, dims.latent_dim))
               if variational and inference_layout else None)
    reparam = normal_f32(rng, (bsz, dims.latent_dim)) if variational else None
    return StepDraws(inference_layout, drop, h_prior, reparam)


def flow_loss(params: dict[str, Tensor], dims: ModelDims, cfg: RunConfig,
              batch: FlowBatch, split: GroupSplit,
              draws: StepDraws) -> tuple[Tensor, LossReport]:
    """Composite loss as a graph Tensor, deterministic given the draws.

    z carries the tangent v and the [B, 1] column t a tangent of ones, so u's
    tangent is du/dt. The dispersive reps are collected only when beta > 0.
    """
    bsz, sample_len, _ = batch.x.shape
    cond_len = batch.c.shape[1]

    mask = (single_group_mask(sample_len, cond_len, dims.latent_tokens)
            if draws.inference_layout else
            build_mask(sample_len, cond_len, dims.latent_tokens, split))
    x_p = batch.x[:, :mask.visible_len] if mask.visible_len else None

    dmask = draws.drop.astype(_F32).reshape(bsz, 1, 1)  # constant: no graph op
    c_used = (null_condition_tokens(params, bsz, cond_len) * Tensor(dmask)
              + Tensor(batch.c * (_F32(1.0) - dmask)))
    z = Tensor(batch.z, tangent=batch.v)
    r = Tensor(batch.r[:, None])
    t = Tensor(batch.t[:, None], tangent=np.ones((bsz, 1), dtype=_F32))

    enc, h_tok = None, None
    if dims.latent_tokens:
        enc = phi_forward(params, dims, c_used, batch.eps, batch.x, z, r, t,
                          noise=draws.reparam)
        h_tok = (Tensor(draws.h_prior) if draws.h_prior is not None
                 else T.reshape(enc.h, (bsz, 1, dims.latent_dim)))
    collect = cfg.disp_block if cfg.beta > 0 else None
    out = theta_forward(params, dims, c_used, h_tok, x_p, z, mask, t, r,
                        collect_block=collect)
    u, reps = out if collect is not None else (out, None)

    u_t = mean_flow_target(batch.v, batch.t, batch.r, u.tangent)
    res = u - Tensor(u_t)
    l2 = T.tmean(T.tsum(res * res, axis=(1, 2)))
    kl = kl_loss(enc.mu, enc.log_var) if enc is not None else Tensor(0.0)
    disp = dispersive_loss(reps, cfg.tau) if reps is not None else Tensor(0.0)
    total = l2 + kl * cfg.alpha + disp * cfg.beta

    report = LossReport(
        l2=float(l2.data), kl=float(kl.data), dispersive=float(disp.data),
        total=float(total.data), t_mean=float(batch.t.mean()),
        r_mean=float(batch.r.mean()))
    return total, report


def train_step(params: dict[str, Tensor], dims: ModelDims, cfg: RunConfig,
               batch: FlowBatch, split: GroupSplit, opt: Adam | None,
               rng: np.random.Generator) -> LossReport:
    """One optimizer step. Pass opt=None to evaluate the loss without updating."""
    t0 = time.perf_counter()
    draws = draw_step_randomness(cfg, dims, batch.x.shape[0], rng)
    total, report = flow_loss(params, dims, cfg, batch, split, draws)
    if not np.isfinite(report.total):
        raise StepAbortError({"l2": report.l2, "kl": report.kl,
                              "dispersive": report.dispersive,
                              "t_mean": report.t_mean, "r_mean": report.r_mean})
    if opt is not None:
        T.backward(total)
        opt.step()
        opt.zero_grad()
    report.wallclock_ms = (time.perf_counter() - t0) * 1e3
    return report


# ---------------------------------------------------------------------------
# the loop

def dims_for(cfg: RunConfig, cond_dim: int, data_dim: int) -> ModelDims:
    return ModelDims(cond_dim=cond_dim, data_dim=data_dim,
                     latent_dim=cfg.latent_dim, width=cfg.width, heads=cfg.heads,
                     blocks=cfg.blocks, time_freqs=cfg.time_freqs,
                     phi_hidden=cfg.phi_hidden, latent_tokens=cfg.latent_tokens)


def init_params(rng: np.random.Generator, dims: ModelDims) -> dict[str, Tensor]:
    params = init_theta(rng, dims)
    if dims.latent_tokens:
        params.update(init_phi(rng, dims))
    return params


def train_model(cfg: RunConfig, data_x: np.ndarray, data_c: np.ndarray, *,
                log_fn=None, checkpoint_fn=None,
                params: dict[str, Tensor] | None = None,
                opt: Adam | None = None,
                start_epoch: int = 0) -> tuple[dict[str, Tensor], ModelDims, Adam]:
    """Full training run; batches are epoch-shuffled slices of the dataset.

    cfg.batch_size sets the number of batches, not their size: each epoch
    splits the shuffled rows into max(1, n // batch_size) near-equal
    chunks, so 4000 rows at batch_size 256 train as 15 batches of 266 or
    267 rows.

    log_fn(step: int, report: LossReport) fires per step with opt.step_count;
    checkpoint_fn(epoch: int, params, opt) after each trained epoch that is a
    multiple of checkpoint_every or the last. Pass params/opt/start_epoch to resume.
    """
    data_x = np.asarray(data_x, dtype=_F32)
    data_c = np.asarray(data_c, dtype=_F32)
    n = data_x.shape[0]
    sample_len = data_x.shape[1]
    dims = dims_for(cfg, cond_dim=data_c.shape[2], data_dim=data_x.shape[2])
    rng = make_rng(cfg.seed + start_epoch)
    if params is None:
        params = init_params(rng, dims)
    if opt is None:
        opt = Adam(params, lr=cfg.lr)

    batches_per_epoch = max(1, n // cfg.batch_size)
    for epoch in range(start_epoch, cfg.epochs):
        perm = rng.permutation(n)
        for chunk in np.array_split(perm, batches_per_epoch):
            batch = make_flow_batch(data_x[chunk], data_c[chunk], rng, cfg)
            split = split_with_decay(sample_len, cfg.decay_factor, rng)
            report = train_step(params, dims, cfg, batch, split, opt, rng)
            if log_fn is not None:
                log_fn(opt.step_count, report)
        if checkpoint_fn is not None and ((epoch + 1) % cfg.checkpoint_every == 0
                                          or epoch + 1 == cfg.epochs):
            checkpoint_fn(epoch + 1, params, opt)
    return params, dims, opt
