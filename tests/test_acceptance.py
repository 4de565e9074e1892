"""Release acceptance suite: one test per shipped guarantee.

Each test prints a `[criterion N] name: PASS|FAIL` line (visible under
pytest -s) before asserting, so a full run yields one verdict per
criterion. Criteria 7 and 8 train real models on the synthetic domains
and dominate the runtime (roughly ten minutes on a desktop CPU);
everything else finishes in seconds.
"""
import filecmp
import json
import time

import numpy as np
import pytest

from fdcheck import rel_err
from test_mask import assert_matches_oracle
from test_sampling import one_shot
from test_training import (frozen_target_loss, pinned_setup, recover_target,
                           run_steps, shared_data, small_cfg)

from vmflow import cli
from vmflow.checkpoint import load_checkpoint, save_checkpoint
from vmflow.config import RunConfig
from vmflow.datasets import (ToySequenceSpec, dominant_token, make_gmm_dataset,
                             make_sequence_dataset, ring_spec)
from vmflow.encoder import phi_forward
from vmflow.granger import granger_test
from vmflow.mask import GroupSplit, build_mask, split_with_decay
from vmflow.metrics import conditional_metrics, mode_coverage
from vmflow.model import ModelDims, null_condition_tokens, theta_forward
from vmflow.optim import Adam
from vmflow.rng import make_rng, normal_f32
from vmflow.sampling import ModelField, sample_batch, sample_multi_step
from vmflow.tensor import Tensor
from vmflow import tensor as T
from vmflow.training import (StepDraws, dims_for, flow_loss, init_params,
                             kl_loss, dispersive_loss, make_flow_batch,
                             mean_flow_target, train_model)

F32 = np.float32


def _verdict(n: int, name: str, ok: bool) -> bool:
    print(f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. attention-mask invariants over random draws plus the reference layout

def test_c01_mask_suite():
    t0 = time.time()
    rng = make_rng(2026)
    ok = True
    for _ in range(1000):
        sample_len = int(rng.integers(1, 17))
        decay = float(rng.choice([0.5, 0.9, 1.0]))
        split = split_with_decay(sample_len, decay, rng)
        cond_len = int(rng.integers(0, 5))
        latent_len = int(rng.integers(0, 3))
        mask = build_mask(sample_len, cond_len, latent_len, split)
        assert_matches_oracle(mask)

    # reference layout: 4 condition + 4 latent + 9 visible + 10 noisy
    ref = build_mask(10, 4, 4, GroupSplit((2, 3, 4, 1)))
    ok &= ref.seq_len == 27
    ok &= not ref.blocked[:, :8].any()
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    assert _verdict(1, "mask suite (1000 draws + reference layout, "
                    f"{elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 2. forward-mode derivative of the velocity head against finite differences

def _tiny_u_field(seed: int):
    """Random small model instance and its velocity map over (z, r, t)."""
    rng = make_rng(seed)
    variational = bool(rng.integers(0, 2))
    cfg = small_cfg("VMF" if variational else "MF",
                    width=int(rng.choice([8, 12])),
                    heads=int(rng.choice([1, 2])),
                    blocks=int(rng.integers(1, 3)),
                    latent_dim=3, time_freqs=4, phi_hidden=8)
    dims = dims_for(cfg, cond_dim=2, data_dim=2)
    params = init_params(rng, dims)
    params["theta/head/w"].data = (params["theta/head/w"].data * 10.0).astype(F32)

    bsz, L = 2, int(rng.integers(1, 4))
    x = normal_f32(rng, (bsz, L, 2))
    c = normal_f32(rng, (bsz, 2, 2))
    eps = normal_f32(rng, (bsz, L, 2))
    t = (0.2 + 0.7 * rng.random(bsz)).astype(F32)
    # keep r clear of t so the t +- delta probes stay inside r <= t
    r = (t * 0.8 * rng.random(bsz)).astype(F32)
    z = ((1.0 - t)[:, None, None] * x + t[:, None, None] * eps).astype(F32)
    v = (eps - x).astype(F32)
    split = split_with_decay(L, 0.9, rng)
    mask = build_mask(L, 2, dims.latent_tokens, split)
    x_p = x[:, :mask.visible_len] if mask.visible_len else None
    drop = rng.random(bsz) < 0.5
    reparam = normal_f32(rng, (bsz, dims.latent_dim)) if variational else None

    dmask = Tensor(drop.astype(F32).reshape(bsz, 1, 1))
    c_used = (null_condition_tokens(params, bsz, 2) * dmask
              + Tensor(c) * (1.0 - dmask))

    def g(z_t, r_t, t_t):
        if variational:
            enc = phi_forward(params, dims, c_used, eps, x, z_t, r_t, t_t,
                              noise=reparam)
            h_tok = T.reshape(enc.h, (bsz, 1, dims.latent_dim))
            u, _ = theta_forward(params, dims, c_used, h_tok, x_p, z_t, mask,
                                 t_t, r_t, collect_block=cfg.disp_block)
            return u
        u, _ = theta_forward(params, dims, c_used, None, x_p, z_t, mask,
                             t_t, r_t, collect_block=cfg.disp_block)
        return u

    return g, z, r, t, v


def test_c02_jvp_matches_finite_differences():
    t0 = time.time()
    delta = 1e-3
    worst_fd, worst_lin = 0.0, 0.0
    for seed in range(31000, 31100):
        g, z, r, t, v = _tiny_u_field(seed)
        ones = np.ones_like(t)

        _, udot = T.jvp(g, (z, r, t), (v, None, ones))
        hi = g(Tensor(z + delta * v), Tensor(r), Tensor(t + F32(delta))).data
        lo = g(Tensor(z - delta * v), Tensor(r), Tensor(t - F32(delta))).data
        fd = (hi.astype(np.float64) - lo.astype(np.float64)) / (2 * delta)
        worst_fd = max(worst_fd, rel_err(fd, udot))

        # linearity in the tangent: jvp(2a + 3b) = 2 jvp(a) + 3 jvp(b)
        rng = make_rng(seed + 7)
        v2 = normal_f32(rng, v.shape)
        _, t1 = T.jvp(g, (z, r, t), (v, None, ones))
        _, t2 = T.jvp(g, (z, r, t), (v2, None, 0.5 * ones))
        _, t12 = T.jvp(g, (z, r, t), (2.0 * v + 3.0 * v2, None,
                                      (2.0 + 1.5) * ones))
        lin = np.max(np.abs(t12 - (2.0 * t1 + 3.0 * t2)))
        scale = max(1.0, float(np.max(np.abs(t12))))
        worst_lin = max(worst_lin, lin / scale)

    elapsed = time.time() - t0
    ok = worst_fd < 1e-2 and worst_lin < 1e-4 and elapsed < 60.0
    assert _verdict(2, "du/dt forward derivative vs finite differences "
                    f"(worst rel {worst_fd:.1e}, linearity {worst_lin:.1e}, "
                    f"{elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 3. reverse-mode gradients of the total loss against finite differences

_MODULES = (
    ("embeddings", lambda k: k.startswith(("theta/embed", "theta/seg",
                                           "theta/c_null"))),
    ("time", lambda k: k.startswith("theta/time")),
    ("attention", lambda k: "/attn/" in k),
    ("mlp", lambda k: "/mlp/" in k),
    ("norms+head", lambda k: "/ln" in k or k.startswith("theta/head")),
    ("encoder", lambda k: k.startswith("phi/")),
)


def _module_fd_errors(params, probe_modules, rig_loss, rng, delta=1e-2):
    """Norm-based relative error per module over 20 seeded probe entries.

    Five-point stencils cancel the curvature term, leaving f32 read noise
    as the floor; the error is taken over each module's probe vector, the
    usual gradcheck form (entrywise ratios are ill-posed at zero-gradient
    coordinates).
    """
    def loss_at(name, idx, shift):
        p = params[name]
        orig = p.data.flat[idx]
        p.data.flat[idx] = orig + F32(shift)
        val = rig_loss()
        p.data.flat[idx] = orig
        return val

    out = {}
    for mod_name, member in probe_modules:
        names = [k for k in sorted(params) if member(k)]
        assert names, mod_name
        fds, gs = [], []
        for _ in range(20):
            name = names[int(rng.integers(0, len(names)))]
            idx = int(rng.integers(0, params[name].data.size))
            fd = (8.0 * (loss_at(name, idx, delta) - loss_at(name, idx, -delta))
                  - (loss_at(name, idx, 2 * delta)
                     - loss_at(name, idx, -2 * delta))) / (12.0 * delta)
            fds.append(fd)
            gs.append(float(params[name].grad.flat[idx]))
        out[mod_name] = rel_err(np.array(fds), np.array(gs))
    return out


def test_c03_gradients_match_finite_differences():
    import dataclasses

    def build_rig(encoder_focus):
        cfg, dims, params, batch, split, draws = pinned_setup("VMFD", seed=12)
        # an O(1) loss keeps f32 value reads accurate enough for the 1e-2 bar
        params["theta/head/w"].data = (params["theta/head/w"].data / 5.0).astype(F32)
        if encoder_focus:
            # the 0.02-scale init leaves the encoder trunk near zero, so its
            # gradient would drown in read noise; wake it up and weight the
            # kl term so the probes measure signal, not the noise floor
            cfg = dataclasses.replace(cfg, alpha=0.5)
            for k, s in (("phi/w1", 20.0), ("phi/w2", 20.0), ("phi/mu/w", 10.0),
                         ("phi/lv/w", 10.0), ("theta/embed_h/w", 4.0)):
                params[k].data = (params[k].data * F32(s)).astype(F32)
        u_t = recover_target(params, dims, cfg, batch, split, draws)
        total, _ = frozen_target_loss(params, dims, cfg, batch, split, draws, u_t)
        T.backward(total)

        def rig_loss():
            val, _ = frozen_target_loss(params, dims, cfg, batch, split,
                                        draws, u_t)
            return float(val.data)
        return params, rig_loss

    theta_modules = [m for m in _MODULES if m[0] != "encoder"]
    params, rig_loss = build_rig(encoder_focus=False)
    errs = _module_fd_errors(params, theta_modules, rig_loss, make_rng(404))
    params, rig_loss = build_rig(encoder_focus=True)
    errs.update(_module_fd_errors(params, [_MODULES[-1]], rig_loss,
                                  make_rng(404)))
    ok = all(e < 1e-2 for e in errs.values())
    worst = max(errs.values())
    assert _verdict(3, "loss gradients vs finite differences "
                    f"(6 modules x 20 probes, worst rel {worst:.1e})", ok)


# ---------------------------------------------------------------------------
# 4. closed-form loss identities and exact f32 composition

def test_c04_loss_identities():
    ok = True
    B, D = 5, 7
    zero = Tensor(np.zeros((B, D), dtype=F32))
    ok &= float(kl_loss(zero, zero).data) == 0.0
    one = Tensor(np.ones((B, D), dtype=F32))
    ok &= float(kl_loss(one, zero).data) == 0.5 * D

    same = Tensor(np.tile(normal_f32(make_rng(3), (1, 6)), (4, 1)))
    ok &= float(dispersive_loss(same, 1.0).data) == 0.0
    rng = make_rng(9)
    for _ in range(200):
        reps = Tensor(normal_f32(rng, (5, 4)) * F32(rng.uniform(0.1, 10)))
        ok &= float(dispersive_loss(reps, float(rng.uniform(0.2, 5))).data) <= 0.0

    cfg, dims, params, batch, split, draws = pinned_setup("VMFD", seed=40)
    _, rep = flow_loss(params, dims, cfg, batch, split, draws)
    want = (F32(rep.l2) + F32(cfg.alpha) * F32(rep.kl)
            + F32(cfg.beta) * F32(rep.dispersive))
    ok &= F32(rep.total) == want
    assert _verdict(4, "loss identities and exact f32 composition", ok)


# ---------------------------------------------------------------------------
# 5. special-case reductions between variants

def test_c05_variant_reductions():
    ok = True
    # equal endpoints make the target the plain interpolant velocity, bitwise
    cfg_fm = small_cfg("FM")
    rng = make_rng(61)
    x, c = shared_data(seed=62)
    batch = make_flow_batch(x, c, rng, cfg_fm)
    ok &= bool(np.array_equal(batch.r, batch.t))
    dims = dims_for(cfg_fm, cond_dim=3, data_dim=2)
    params = init_params(make_rng(63), dims)
    draws = StepDraws(inference_layout=False,
                      drop=np.zeros(x.shape[0], dtype=bool),
                      h_prior=None, reparam=None)
    u_t = recover_target(params, dims, cfg_fm, batch,
                         GroupSplit((x.shape[1],)), draws)
    ok &= bool(np.array_equal(u_t, batch.v))

    # the plain variant is the variational one with alpha 0 and no latent slot
    x, c = shared_data()
    cfg_mf = small_cfg("MF")
    dims_mf = dims_for(cfg_mf, cond_dim=3, data_dim=2)
    cfg_v0 = small_cfg("VMF", alpha=0.0)
    dims_v0 = ModelDims(cond_dim=3, data_dim=2, latent_dim=4, width=16,
                        heads=2, blocks=2, time_freqs=4, phi_hidden=12,
                        latent_tokens=0)
    rep_a, par_a = run_steps(cfg_mf, dims_mf, x, c)
    rep_b, par_b = run_steps(cfg_v0, dims_v0, x, c)
    ok &= [r.total for r in rep_a] == [r.total for r in rep_b]
    ok &= all(np.array_equal(par_a[k].data, par_b[k].data) for k in par_a)

    # dispersive variants re-use the same l2 and kl, differing only via beta
    for plain, disp in (("MF", "MFD"), ("VMF", "VMFD")):
        cfg_p, cfg_d = small_cfg(plain), small_cfg(disp)
        dims_p = dims_for(cfg_p, cond_dim=3, data_dim=2)
        rep_p, _ = run_steps(cfg_p, dims_p, x, c, update=False)
        rep_d, _ = run_steps(cfg_d, dims_p, x, c, update=False)
        for rp, rd in zip(rep_p, rep_d):
            ok &= rd.l2 == rp.l2 and rd.kl == rp.kl
            ok &= rp.dispersive == 0.0 and rd.dispersive <= 0.0
            ok &= rp.total == F32(rp.l2) + F32(cfg_p.alpha) * F32(rp.kl)
    assert _verdict(5, "variant reductions (equal-endpoint target, "
                    "alpha-0 equivalence, beta-only dispersive delta)", ok)


# ---------------------------------------------------------------------------
# 6. sampler algebra

class _ConstField:
    def __init__(self, u0):
        self.u0 = np.asarray(u0, dtype=F32)
        self.calls = 0

    def __call__(self, c, z, r, t):
        self.calls += 1
        return np.broadcast_to(self.u0, z.shape).astype(F32)


class _CondStubField:
    """Distinct constant velocities for the real and the null condition."""

    def __init__(self, u_cond, u_uncond, c_real):
        self.u_cond = np.asarray(u_cond, dtype=F32)
        self.u_uncond = np.asarray(u_uncond, dtype=F32)
        self.c_real = np.asarray(c_real, dtype=F32)
        self.calls = 0

    def __call__(self, c, z, r, t):
        self.calls += 1
        u = self.u_cond if np.array_equal(c, self.c_real) else self.u_uncond
        return np.broadcast_to(u, z.shape).astype(F32)


def test_c06_sampler_algebra():
    ok = True
    rng = make_rng(1200)
    cfg = small_cfg("MF")
    dims = dims_for(cfg, cond_dim=3, data_dim=2)
    params = init_params(rng, dims)
    c = normal_f32(rng, (4, 2, 3))
    eps = normal_f32(rng, (4, 3, 2))

    # one multi-step step is the closed-form single evaluation, bitwise
    fa, fb = ModelField(params, dims), ModelField(params, dims)
    ok &= bool(np.array_equal(sample_multi_step(fa, c, eps, 1),
                              one_shot(fb, c, eps)))
    ok &= fa.calls == 1 and fb.calls == 1

    # constant field: every step count telescopes to eps - u0
    u0 = normal_f32(rng, (1, 1, 2))
    for k in (1, 3, 5):
        stub = _ConstField(u0)
        got = sample_multi_step(stub, c, eps, k)
        want = eps - u0
        if k == 1:
            ok &= bool(np.array_equal(got, want))
        else:
            ok &= bool(np.allclose(got, want, atol=2e-6))
        ok &= stub.calls == k

    # guidance at w = 1 short-circuits to the conditional pass, K evals
    null_c = null_condition_tokens(params, 4, 2).data
    for k in (1, 4):
        fg, fp = ModelField(params, dims), ModelField(params, dims)
        guided = sample_multi_step(fg, c, eps, k, guidance_w=1.0, null_c=null_c)
        plain = sample_multi_step(fp, c, eps, k)
        ok &= bool(np.array_equal(guided, plain))
        ok &= fg.calls == k and fp.calls == k

    # w in {0, 2} follows the affine combination exactly
    u_c = normal_f32(rng, (1, 1, 2))
    u_u = normal_f32(rng, (1, 1, 2))
    for w in (0.0, 2.0):
        stub = _CondStubField(u_c, u_u, c)
        got = sample_multi_step(stub, c, eps, 1, guidance_w=w, null_c=null_c)
        mix = (F32(w) * np.broadcast_to(u_c, eps.shape)
               + F32(1.0 - w) * np.broadcast_to(u_u, eps.shape)).astype(F32)
        ok &= bool(np.array_equal(got, eps - mix))
        ok &= stub.calls == 2
    assert _verdict(6, "sampler algebra (single-step identity, telescoping, "
                    "guidance short-circuit and affine form)", ok)


# ---------------------------------------------------------------------------
# 7. ring multimodality: variational latent vs plain mean flow

@pytest.mark.slow
def test_c07_ring_multimodality():
    spec = ring_spec()  # 8 modes, radius 5, scale 0.1, shared label
    data = make_gmm_dataset(spec)
    mu = data.x.mean(axis=0, keepdims=True)
    sd = data.x.std(axis=0, keepdims=True)
    xs = ((data.x - mu) / sd).astype(F32)
    means = np.asarray(spec.means, dtype=np.float64)

    wins = 0
    lines = []
    for seed in (0, 1, 2):
        cov = {}
        for variant in ("MF", "VMF"):
            kw = dict(variant=variant, width=12, heads=2, blocks=2,
                      latent_dim=4, time_freqs=8, phi_hidden=32, lr=2e-3,
                      epochs=300, batch_size=256, seed=seed)
            if variant == "VMF":
                kw["alpha"] = 0.01
            cfg = RunConfig(**kw)
            steps = (xs.shape[0] // cfg.batch_size) * cfg.epochs
            assert steps <= 20000
            t0 = time.time()
            params, dims, _ = train_model(cfg, xs, data.c)
            wall = time.time() - t0
            assert wall < 900.0, f"{variant} seed {seed} took {wall:.0f}s"
            res = sample_batch(params, dims, data.c[:1000], 1,
                               make_rng(seed + 9999), nfe=1, guidance_w=1.0)
            raw = res.x * sd + mu
            cov[variant] = mode_coverage(raw[:, 0, :], means, radius=0.3)
        v8 = round(cov["VMF"] * 8)
        m8 = round(cov["MF"] * 8)
        lines.append(f"seed {seed}: VMF {v8}/8 MF {m8}/8")
        if v8 >= 7 and cov["VMF"] >= cov["MF"]:
            wins += 1
    ok = wins >= 2
    assert _verdict(7, f"ring mode coverage ({'; '.join(lines)}; "
                    f"{wins}/3 seeds pass)", ok)


# ---------------------------------------------------------------------------
# 8. conditional sequence pipeline with a brute-force metric oracle

@pytest.mark.slow
def test_c08_conditional_sequences():
    spec = ToySequenceSpec(vocab=6, length=4, dim=8, n_sequences=2500,
                           dominance=0.9, seed=21, scale=4.0)
    data = make_sequence_dataset(spec)
    xtr, ctr = data.x[:2000], data.c[:2000]
    che, the = data.c[2000:], data.themes[2000:]
    tok_he = data.tokens[2000:]

    # time mass concentrated near t=1: at small t the interpolant still
    # shows the clean sequence and the condition pathway never trains
    cfg = RunConfig(variant="VMF", width=24, heads=2, blocks=2, latent_dim=8,
                    time_freqs=8, phi_hidden=32, lr=1e-3, epochs=400,
                    batch_size=64, seed=0, alpha=1.0, p_inference_layout=0.9,
                    time_sampling="lognormal", lognorm_mean=1.2,
                    lognorm_std=1.0)
    params, dims, _ = train_model(cfg, xtr, ctr)
    res = sample_batch(params, dims, che, spec.length, make_rng(777), nfe=1,
                       guidance_w=2.0, conditional=True)
    toks = data.codec.decode(res.x)

    def hist(seq):
        h = np.zeros(spec.vocab)
        for v in seq:
            h[v] += 1
        return h / len(seq)

    gen = [hist(s) for s in toks]
    ref = [hist(s) for s in tok_he]
    valid = np.all(np.isfinite(res.x.reshape(len(gen), -1)), axis=1)
    rep = conditional_metrics(gen, ref, valid=valid)
    ok = rep.metrics["validity"] == 100.0
    ok &= rep.metrics["similarity"] >= 60.0

    # brute-force oracle over the first 20 samples
    g20, r20 = gen[:20], ref[:20]
    rep20 = conditional_metrics(g20, r20)

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    f = [cos(g, r) for g, r in zip(g20, r20)]
    sim_o = 100.0 * np.mean([fi >= 0.5 for fi in f])
    nov_o = 100.0 * np.mean([fi < 0.8 for fi in f])
    div_o = 100.0 * np.mean([1.0 - cos(g20[i], g20[j])
                             for i in range(20) for j in range(i + 1, 20)])
    ok &= rep20.metrics["similarity"] == pytest.approx(sim_o, abs=1e-9)
    ok &= rep20.metrics["novelty"] == pytest.approx(nov_o, abs=1e-9)
    ok &= rep20.metrics["diversity"] == pytest.approx(div_o, abs=1e-9)
    ok &= rep20.metrics["validity"] == 100.0

    agree = float((dominant_token(toks, spec.vocab) == the).mean())
    assert _verdict(8, "conditional sequences (validity "
                    f"{rep.metrics['validity']:.0f}%, similarity "
                    f"{rep.metrics['similarity']:.1f}%, theme agreement "
                    f"{agree:.2f}, oracle match)", ok)


# ---------------------------------------------------------------------------
# 9. causality test calibration: power and size

def _ar_pair(rng, n=500, gain=0.9, noise=0.1):
    x = np.zeros(n)
    y = np.zeros(n)
    ex = rng.standard_normal(n)
    ey = rng.standard_normal(n) * noise
    for i in range(1, n):
        x[i] = 0.5 * x[i - 1] + ex[i]
        y[i] = 0.4 * y[i - 1] + gain * x[i - 1] + ey[i]
    return x, y


def test_c09_granger_calibration():
    t0 = time.time()
    hits = 0
    for seed in range(100):
        x, y = _ar_pair(make_rng(40000 + seed))
        if granger_test(x, y, max_lag=1).p_value < 1e-3:
            hits += 1
    power = hits / 100.0

    rej = 0
    for seed in range(1000):
        rng = make_rng(50000 + seed)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        if granger_test(x, y, max_lag=1).p_value < 0.05:
            rej += 1
    rate = rej / 1000.0
    elapsed = time.time() - t0
    ok = power >= 0.95 and 0.03 <= rate <= 0.07 and elapsed < 60.0
    assert _verdict(9, f"causality calibration (power {power:.2f}, null "
                    f"rejection {rate:.3f}, {elapsed:.1f}s)", ok)


# ---------------------------------------------------------------------------
# 10. persistence round trip and byte-identical regeneration

def test_c10_reproducibility(tmp_path):
    ok = True
    # checkpoint round trip is bitwise
    cfg, dims, params, batch, split, draws = pinned_setup("VMF", seed=7)
    opt = Adam(params, lr=1e-3)
    for _ in range(3):
        total, _ = flow_loss(params, dims, cfg, batch, split, draws)
        T.backward(total)
        opt.step()
    tensors = {f"param/{k}": p.data for k, p in params.items()}
    tensors.update(opt.state_tensors())
    path = str(tmp_path / "rt.ckpt")
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    ok &= sorted(loaded) == sorted(tensors)
    ok &= all(np.array_equal(loaded[k], np.asarray(tensors[k])) for k in tensors)

    # identical config + seed reproduce the sample file byte for byte
    data_path = str(tmp_path / "ring.jsonl")
    assert cli.main(["gen-data", "--domain", "ring", "--out", data_path,
                     "--samples-per-mode", "4", "--n-modes", "4"]) == 0
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"variant": "VMF", "width": 16, "heads": 2, "blocks": 2,
                   "latent_dim": 4, "time_freqs": 4, "phi_hidden": 12,
                   "epochs": 2, "batch_size": 8, "n_samples": 6, "seed": 3,
                   "dataset": data_path,
                   "out_dir": str(tmp_path / "run")}, fh)
    assert cli.main(["train", "--config", cfg_path]) == 0
    out_a = str(tmp_path / "a.jsonl")
    out_b = str(tmp_path / "b.jsonl")
    run_dir = str(tmp_path / "run")
    assert cli.main(["sample", "--run", run_dir, "--out", out_a]) == 0
    assert cli.main(["sample", "--run", run_dir, "--out", out_b]) == 0
    ok &= filecmp.cmp(out_a, out_b, shallow=False)
    assert _verdict(10, "checkpoint round trip and byte-identical samples", ok)
