"""Correctness checks on the benchmark's own outputs.

Each check compares what the program produced with a computation made apart
from it (finite differences, float64 Adam, direct theta_forward calls, a
vectorised metric) or with a property the method must have. None compares
with a stored copy of earlier output. The `check_*` functions take the two
sides as plain values, so bench/test_checks.py can feed them corrupted
outputs and see each one refused.
"""
from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from vmflow import tensor as T
from vmflow.checkpoint import load_checkpoint, save_checkpoint
from vmflow.mask import GroupSplit, build_mask, single_group_mask, split_with_decay
from vmflow.model import theta_forward
from vmflow.optim import Adam
from vmflow.rng import make_rng, normal_f32
from vmflow.sampling import sample_batch
from vmflow.tensor import Tensor
from vmflow.training import (draw_step_randomness, flow_loss, make_flow_batch,
                             train_step)

F32 = np.float32
F64 = np.float64

TANGENT_TOL = 1e-2     # relative, as the c02 acceptance gate
GRADIENT_TOL = 1e-2    # relative, as the c03 acceptance gate
SAMPLE_TOL = 1e-5      # relative to the largest |x|; today the match is exact
EVAL_TOL = 1e-9        # absolute, in percentage points


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"check {self.name}: {'PASS' if self.ok else 'FAIL'} ({self.detail})"


def rel_err(a, b, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=F64).ravel()
    b = np.asarray(b, dtype=F64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)


def clone_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: T.parameter(p.data.copy()) for k, p in params.items()}


def clone_adam(opt: Adam, params: dict[str, Tensor]) -> Adam:
    out = Adam(params, lr=opt.lr, beta1=opt.beta1, beta2=opt.beta2, eps=opt.eps)
    out.load_state_tensors(opt.state_tensors())
    return out


# ---------------------------------------------------------------------------
# tangent: JVP through theta_forward against a central difference along (v, 0, 1)

TANGENT_STEPS = (1e-3, 3e-4, 1e-4, 3e-5)


def tangent_pair(params, dims, batch, split, h_tok, steps=TANGENT_STEPS):
    """du/dt from the JVP, and its five-point central difference at each
    step size, on the rows where every probe t +- 2 step stays in [r, 1].

    A trained field can be sharp in t (|du/dt| in the thousands), so no
    one step size suits every run: the difference converges to the JVP as
    the step shrinks until f32 read noise takes over. check_tangent takes
    the step that agrees best; a wrong tangent disagrees at every step."""
    wide = 2 * max(steps)
    rows = np.flatnonzero((batch.t - wide >= batch.r) & (batch.t + wide <= 1.0))
    if rows.size == 0:
        raise ValueError("no row of the batch leaves room for the difference")
    mask = build_mask(batch.x.shape[1], batch.c.shape[1], dims.latent_tokens, split)
    x_p = batch.x[rows, :mask.visible_len] if mask.visible_len else None
    c = Tensor(batch.c[rows])
    h = None if h_tok is None else Tensor(h_tok[rows])
    z, v, r, t = batch.z[rows], batch.v[rows], batch.r[rows], batch.t[rows]

    def g(z_, r_, t_):
        return theta_forward(params, dims, c, h, x_p, z_, mask, t_, r_)

    _, u_dot = T.jvp(g, (z, r, t), (v, None, np.ones_like(t)))

    def at(s):
        return g(Tensor((z + s * v.astype(F64)).astype(F32)), Tensor(r),
                 Tensor((t + s).astype(F32))).data.astype(F64)

    fds = {d: (8.0 * (at(d) - at(-d)) - (at(2 * d) - at(-2 * d))) / (12.0 * d)
           for d in steps}
    return u_dot, fds


def check_tangent(u_dot, fds: dict) -> Check:
    errs = {d: rel_err(fd, u_dot) for d, fd in fds.items()}
    best = min(errs, key=errs.get)
    return Check("tangent", errs[best] < TANGENT_TOL,
                 f"rel err {errs[best]:.1e} at step {best:g} over {len(u_dot)} rows, "
                 f"|du/dt| {np.linalg.norm(u_dot):.4g}, bound {TANGENT_TOL:.0e}")


# ---------------------------------------------------------------------------
# gradient: <grad, d> from T.backward against a central difference of the loss

GRADIENT_STEPS = (1e-1, 3e-2, 1e-2)


def unit_direction(params, rng) -> dict:
    """A random direction over all parameters, of unit norm."""
    d = {k: normal_f32(rng, p.shape).astype(F64) for k, p in params.items()}
    norm = np.sqrt(sum(float(np.sum(v * v)) for v in d.values()))
    return {k: v / norm for k, v in d.items()}


def gradient_pair(params, dims, cfg, batch, split, draws, direction,
                  steps=GRADIENT_STEPS):
    """<grad, d> from T.backward, the gradient's norm, and a five-point
    central difference of the loss along d at each step size, under fixed
    draws. The loss is flow_loss on the batch with r set to t, where the
    target is v itself: with r < t it would move with du/dt, which the
    gradient treats as a constant."""
    batch = dataclasses.replace(batch, r=batch.t.copy())
    work = clone_params(params)
    total, _ = flow_loss(work, dims, cfg, batch, split, draws)
    T.backward(total)
    grads = {k: p.grad.astype(F64) for k, p in work.items() if p.grad is not None}
    analytic = sum(float(np.sum(g * direction[k])) for k, g in grads.items())
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    base = {k: p.data.astype(F64) for k, p in params.items()}

    def loss_at(s):
        for k, d in direction.items():
            work[k].data = (base[k] + s * d).astype(F32)
        val, _ = flow_loss(work, dims, cfg, batch, split, draws)
        return float(val.data)

    fds = {h: (8.0 * (loss_at(h) - loss_at(-h))
               - (loss_at(2 * h) - loss_at(-2 * h))) / (12.0 * h) for h in steps}
    return analytic, fds, norm


def check_gradient(analytic: float, fds: dict, grad_norm: float) -> Check:
    """Agreement to GRADIENT_TOL of the directional derivative, or to 1e-4 of
    the gradient's norm (the largest derivative along any unit direction),
    which keeps a direction nearly orthogonal to the gradient from failing
    on f32 read noise alone."""
    best = min(fds, key=lambda h: abs(analytic - fds[h]))
    err = abs(analytic - fds[best])
    bound = GRADIENT_TOL * max(abs(analytic), abs(fds[best])) + 1e-4 * grad_norm
    return Check("gradient", err <= bound,
                 f"<grad,d> {analytic:.6g} vs difference {fds[best]:.6g} at step "
                 f"{best:g}, |error| {err:.1e}, bound {bound:.1e}")


# ---------------------------------------------------------------------------
# Adam: one step against a float64 update from the same gradients and moments

def adam_reference(p, g, m, v, step, lr, beta1, beta2, eps):
    p, g, m, v = (np.asarray(a, dtype=F64) for a in (p, g, m, v))
    m1 = beta1 * m + (1.0 - beta1) * g
    v1 = beta2 * v + (1.0 - beta2) * g * g
    mhat = m1 / (1.0 - beta1 ** step)
    vhat = v1 / (1.0 - beta2 ** step)
    return p - lr * mhat / (np.sqrt(vhat) + eps), m1, v1


def check_adam(before: dict, grads: dict, after: dict, step: int, opt: Adam) -> Check:
    """before/after: name -> (param, m, v) arrays around one Adam.step().

    The moments may differ from float64 by 1e-4 of their terms: the f32
    weight 1 - f32(0.999) alone is 1.3e-5 off 0.001. The new parameter may
    differ by 1e-4 of the update, plus what the moment's bound moves it by,
    plus a few ulps of its own size. The middle term matters where
    beta1 m and (1 - beta1) g nearly cancel: the new m is then small, its
    f32 rounding is not, and the update's relative error is large."""
    worst, where = 0.0, "none"
    for name, (p0, m0, v0) in before.items():
        g = grads[name].astype(F64)
        p_ref, m_ref, v_ref = adam_reference(p0, g, m0, v0, step, opt.lr,
                                             opt.beta1, opt.beta2, opt.eps)
        p1, m1, v1 = (a.astype(F64) for a in after[name])
        m_tol = 1e-4 * (opt.beta1 * np.abs(m0) + (1 - opt.beta1) * np.abs(g)) + 1e-30
        v_tol = 1e-4 * (opt.beta2 * v0 + (1 - opt.beta2) * g * g) + 1e-30
        vhat = v_ref / (1.0 - opt.beta2 ** step)
        p_tol = (1e-4 * np.abs(p_ref - p0)
                 + opt.lr * m_tol / (1.0 - opt.beta1 ** step) / (np.sqrt(vhat) + opt.eps)
                 + 4.0 * np.spacing(np.abs(p_ref).astype(F32)).astype(F64))
        for part, err in (("m", np.abs(m1 - m_ref) / m_tol),
                          ("v", np.abs(v1 - v_ref) / v_tol),
                          ("param", np.abs(p1 - p_ref) / p_tol)):
            if float(err.max()) > worst:
                worst, where = float(err.max()), f"{part} of {name}"
    return Check("adam", worst <= 1.0,
                 f"worst error {worst:.2f} of its bound over {len(before)} tensors, "
                 f"at {where}")


def adam_step_record(opt: Adam) -> tuple[dict, dict, dict]:
    """Run opt.step() once and return (before, grads, after) for check_adam."""
    state = lambda: {k: (p.data.copy(), opt.state[k].m.copy(), opt.state[k].v.copy())
                     for k, p in opt.params.items() if p.grad is not None}
    before = state()
    grads = {k: opt.params[k].grad.copy() for k in before}
    opt.step()
    return before, grads, state()


# ---------------------------------------------------------------------------
# training: a fixed-target loss should fall (reported, see run_checks)

def fm_eval_loss(params, dims, cfg, batch, split, draws) -> float:
    """flow_loss with r = t everywhere: the target is v, fixed by the data."""
    batch = dataclasses.replace(batch, r=batch.t.copy())
    _, rep = flow_loss(params, dims, cfg, batch, split, draws)
    return rep.l2


def training_line(before: float, after: float) -> str:
    return (f"info training: r=t loss on a fixed batch {before:.4g} at init, "
            f"{after:.4g} trained ({'falls' if after < before else 'does not fall'})")


# ---------------------------------------------------------------------------
# checkpoint: bitwise round trip

def check_checkpoint(tensors: dict, path, scratch_path, same_samples: bool) -> Check:
    loaded = load_checkpoint(path)
    ok = sorted(loaded) == sorted(tensors)
    ok = ok and all(np.asarray(tensors[k], dtype="<f4").tobytes() == loaded[k].tobytes()
                    and loaded[k].shape == np.shape(tensors[k]) for k in tensors)
    save_checkpoint(scratch_path, loaded)
    with open(path, "rb") as a, open(scratch_path, "rb") as b:
        same_bytes = a.read() == b.read()
    return Check("checkpoint", bool(ok and same_bytes and same_samples),
                 f"{len(tensors)} tensors bitwise {ok}, re-saved bytes equal "
                 f"{same_bytes}, samples from reloaded params equal {same_samples}")


# ---------------------------------------------------------------------------
# sampling: sample_batch against direct theta_forward calls

def reference_sample(params, dims, c, sample_len, rng, mode):
    """Independent walk: same draw order as sample_batch (eps, then h)."""
    c = np.asarray(c, dtype=F32)
    b = c.shape[0]
    eps = normal_f32(rng, (b, sample_len, dims.data_dim))
    h = (Tensor(normal_f32(rng, (b, 1, dims.latent_dim)))
         if dims.latent_tokens else None)
    null = np.broadcast_to(params["theta/c_null"].data.reshape(1, 1, -1),
                           c.shape).astype(F32)
    if not mode.conditional:
        c = null
    mask = single_group_mask(sample_len, c.shape[1], dims.latent_tokens)

    def u(cond, z, r, t):
        return theta_forward(params, dims, Tensor(cond), h, None, Tensor(z),
                             mask, np.full(b, t, dtype=F32),
                             np.full(b, r, dtype=F32)).data

    x = eps.copy()
    calls = 0
    for k in range(mode.nfe):
        t_k, t_next = F32(1.0 - k / mode.nfe), F32(1.0 - (k + 1) / mode.nfe)
        vel = u(c, x, t_next, t_k)
        calls += 1
        if mode.passes == 2:
            w = mode.guidance_w
            vel = (F32(w) * vel + F32(1.0 - w) * u(null, x, t_next, t_k)).astype(F32)
            calls += 1
        x = x - (t_k - t_next) * vel
    return x, eps, calls


def check_sampling(name: str, x, x_ref, calls: int, calls_ref: int,
                   same_eps: bool = True) -> Check:
    scale = max(1.0, float(np.max(np.abs(x_ref))))
    diff = float(np.max(np.abs(np.asarray(x, F64) - np.asarray(x_ref, F64))))
    finite = bool(np.all(np.isfinite(x)))
    ok = same_eps and finite and diff <= SAMPLE_TOL * scale and calls == calls_ref
    return Check(f"sampling[{name}]", ok,
                 f"max |x - ref| {diff:.1e}, finite {finite}, calls {calls}/{calls_ref}, "
                 f"same eps {same_eps}")


# ---------------------------------------------------------------------------
# eval: conditional_metrics against a vectorised numpy computation

def _unit_rows(a: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(a, axis=1, keepdims=True)
    return np.divide(a, n, out=np.zeros_like(a), where=n > 0)


def reference_metrics(gen, ref, valid, sim_thresh=0.5, novel_thresh=0.8) -> dict:
    g = np.asarray(gen, dtype=F64)
    r = np.asarray(ref, dtype=F64)
    valid = np.asarray(valid, dtype=bool)
    f = np.clip(np.sum(_unit_rows(g) * _unit_rows(r), axis=1), 0.0, 1.0)
    vg = _unit_rows(g[valid])
    k = vg.shape[0]
    if k < 2:
        diversity = 0.0
    else:
        iu = np.triu_indices(k, 1)
        diversity = float(np.mean(1.0 - np.clip(vg @ vg.T, 0.0, 1.0)[iu]) * 100.0)
    return {"similarity": float(np.mean(f >= sim_thresh) * 100.0),
            "novelty": float(np.mean(f < novel_thresh) * 100.0),
            "diversity": diversity,
            "validity": float(np.mean(valid) * 100.0)}


def check_eval(got: dict, want: dict) -> Check:
    err = max(abs(got[k] - want[k]) for k in want)
    return Check("eval", err <= EVAL_TOL,
                 f"max |diff| {err:.1e} over {sorted(want)}, bound {EVAL_TOL:.0e}")


# ---------------------------------------------------------------------------
# ring: samples land nearer the modes than the noise they started from

def nearest_mode_distance(points: np.ndarray, means: np.ndarray) -> float:
    p = np.asarray(points, dtype=F64).reshape(len(points), -1)
    d = np.linalg.norm(p[:, None, :] - means[None, :, :], axis=2)
    return float(d.min(axis=1).mean())


def ring_samples_line(x, eps, means) -> str:
    """Reported, not gated: within a run the c07 config does not learn the
    ring (bench/README.md), so on some seeds its samples are no nearer the
    modes than their noise."""
    dx, de = nearest_mode_distance(x, means), nearest_mode_distance(eps, means)
    return (f"info ring samples: mean distance to nearest mode {dx:.3f} for samples, "
            f"{de:.3f} for their noise ({'nearer' if dx < de else 'not nearer'})")


# ---------------------------------------------------------------------------
# the traced step against train_step

def check_composed_step(params, dims, cfg, batch, split, opt, rng, composed) -> Check:
    """train_step and the traced composition, from the same parameters,
    optimizer state and rng, must give the same report and parameters."""
    pa, pb = clone_params(params), clone_params(params)
    oa, ob = clone_adam(opt, pa), clone_adam(opt, pb)
    ra, rb = copy.deepcopy(rng), copy.deepcopy(rng)
    rep_a = train_step(pa, dims, cfg, batch, split, oa, ra)
    rep_b = composed(pb, dims, cfg, batch, split, ob, rb)
    fields = lambda rep: {k: v for k, v in dataclasses.asdict(rep).items()
                          if k != "wallclock_ms"}
    same_rep = fields(rep_a) == fields(rep_b)
    same_params = all(pa[k].data.tobytes() == pb[k].data.tobytes() for k in pa)
    same_state = all(oa.state[k].m.tobytes() == ob.state[k].m.tobytes()
                     and oa.state[k].v.tobytes() == ob.state[k].v.tobytes() for k in pa)
    return Check("composed_step", same_rep and same_params and same_state,
                 f"report equal {same_rep}, parameters bitwise {same_params}, "
                 f"moments bitwise {same_state}")


# ---------------------------------------------------------------------------
# all of the above on one workload's trained model

def run_checks(ctx) -> list[Check]:
    """ctx: the run's workload, config, data, dims, initial, trained and
    reloaded parameters, optimizer, checkpoint paths, scored set and losses.

    The derivative checks run at the initial parameters. At the trained
    ones they are reported, not gated: training can drive |du/dt| into the
    tens of thousands on some seeds (bench/README.md), where no f32
    difference resolves the derivative. The same holds for the two training
    outcomes, which fail on some seeds."""
    w, cfg, data, dims = ctx.workload, ctx.cfg, ctx.data, ctx.dims
    rng = make_rng(ctx.seed + 7919)
    bsz = min(cfg.batch_size, len(data.x))
    sample_len = data.x.shape[1]
    batch = make_flow_batch(data.x[:bsz], data.c[:bsz], rng, cfg)
    split = split_with_decay(sample_len, cfg.decay_factor, rng)
    draws = draw_step_randomness(cfg, dims, bsz, rng)
    out = []

    h_tok = normal_f32(rng, (bsz, 1, dims.latent_dim))
    out.append(check_tangent(*tangent_pair(ctx.init_params, dims, batch, split, h_tok)))
    trained = check_tangent(*tangent_pair(ctx.params, dims, batch, split, h_tok))
    ctx.info.append(f"info tangent at the trained parameters: {trained.detail}")

    out.append(check_gradient(*gradient_pair(ctx.init_params, dims, cfg, batch, split,
                                             draws, unit_direction(ctx.params, rng))))

    work = clone_params(ctx.params)
    total, _ = flow_loss(work, dims, cfg, batch, split, draws)
    T.backward(total)
    opt = clone_adam(ctx.opt, work)
    before, grads, after = adam_step_record(opt)
    out.append(check_adam(before, grads, after, opt.step_count, opt))

    eval_rows = min(512, len(data.x))
    eval_batch = make_flow_batch(data.x[-eval_rows:], data.c[-eval_rows:], rng, cfg)
    eval_draws = dataclasses.replace(
        draw_step_randomness(cfg, dims, eval_rows, rng), drop=np.zeros(eval_rows, bool))
    whole = GroupSplit((sample_len,))
    ctx.info.append(training_line(
        fm_eval_loss(ctx.init_params, dims, cfg, eval_batch, whole, eval_draws),
        fm_eval_loss(ctx.params, dims, cfg, eval_batch, whole, eval_draws)))
    tenth = max(1, len(ctx.losses) // 10)
    ctx.info.append(f"info training: total loss, mean over the first tenth of the steps "
                    f"{np.mean(ctx.losses[:tenth]):.4g}, over the last tenth "
                    f"{np.mean(ctx.losses[-tenth:]):.4g}")

    cond = data.cond[:64]
    a = sample_batch(ctx.params, dims, cond, sample_len, make_rng(ctx.seed), nfe=1)
    b = sample_batch(ctx.reloaded, dims, cond, sample_len, make_rng(ctx.seed), nfe=1)
    out.append(check_checkpoint(ctx.ckpt_tensors, ctx.ckpt_path, ctx.scratch_path,
                                bool(np.array_equal(a.x, b.x))))

    for mode in ctx.all_modes:
        res = sample_batch(ctx.reloaded, dims, cond, sample_len, make_rng(ctx.seed + 1),
                           nfe=mode.nfe, guidance_w=mode.guidance_w,
                           conditional=mode.conditional)
        x_ref, eps_ref, calls_ref = reference_sample(
            ctx.reloaded, dims, cond, sample_len, make_rng(ctx.seed + 1), mode)
        name = f"nfe{mode.nfe},w{mode.guidance_w:g},{'cond' if mode.conditional else 'uncond'}"
        out.append(check_sampling(name, res.x, x_ref, res.calls, calls_ref,
                                  bool(np.array_equal(res.eps, eps_ref))))

    gen, ref, valid = ctx.scored
    out.append(check_eval(ctx.eval_metrics, reference_metrics(gen, ref, valid)))

    if data.mode_means is not None:
        ctx.info.append(ring_samples_line(ctx.ring_x, ctx.ring_eps, data.mode_means))

    out.append(check_composed_step(ctx.params, dims, cfg, batch, split, ctx.opt,
                                   make_rng(ctx.seed + 3), ctx.composed_step))
    return out
