"""Training-step oracles: loss identities, the stopgradient, variant algebra,
and an exactly-solvable coupled batch where the loss must vanish.
"""
import numpy as np
import pytest

from fdcheck import entry_rel_err
from vmflow import tensor as T
from vmflow.config import RunConfig
from vmflow.encoder import phi_forward
from vmflow.mask import GroupSplit, build_mask
from vmflow.model import ModelDims, null_condition_tokens, theta_forward
from vmflow.optim import Adam
from vmflow.rng import make_rng, normal_f32
from vmflow.tensor import Tensor, parameter
from vmflow.training import (FlowBatch, StepAbortError, StepDraws, TrainError,
                             dims_for, dispersive_loss, draw_step_randomness,
                             flow_loss, init_params, kl_loss, make_flow_batch,
                             mean_flow_target, sample_time_pairs, train_model,
                             train_step)

F32 = np.float32


def small_cfg(variant="VMF", **kw):
    base = dict(variant=variant, width=16, heads=2, blocks=2, latent_dim=4,
                time_freqs=4, phi_hidden=12, batch_size=6, tau=0.8)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# KL

def test_kl_standard_normal_is_zero():
    mu = Tensor(np.zeros((3, 4), dtype=F32))
    lv = Tensor(np.zeros((3, 4), dtype=F32))
    assert float(kl_loss(mu, lv).data) == 0.0


def test_kl_unit_mean_is_half_per_dim():
    mu = Tensor(np.ones((2, 5), dtype=F32))
    lv = Tensor(np.zeros((2, 5), dtype=F32))
    assert abs(float(kl_loss(mu, lv).data) - 2.5) < 1e-6


def test_kl_variance_two_hand_value():
    # per dim: 0.5 * (2 - 1 - log 2) = 0.15342641
    d = 4
    mu = Tensor(np.zeros((1, d), dtype=F32))
    lv = Tensor(np.full((1, d), np.log(2.0), dtype=F32))
    want = 0.5 * (2.0 - 1.0 - np.log(2.0)) * d
    assert abs(float(kl_loss(mu, lv).data) - want) < 1e-5


def test_kl_averages_over_batch():
    mu = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=F32))
    lv = Tensor(np.zeros((2, 2), dtype=F32))
    # examples contribute 0.5 and 0.0, batch mean 0.25
    assert abs(float(kl_loss(mu, lv).data) - 0.25) < 1e-6


def test_kl_grad_matches_fd():
    rng = make_rng(0)
    mu0 = normal_f32(rng, (3, 4))
    lv0 = normal_f32(rng, (3, 4)) * F32(0.5)
    mu, lv = parameter(mu0.copy()), parameter(lv0.copy())
    T.backward(kl_loss(mu, lv))
    # analytic: d/dmu = mu / B, d/dlv = 0.5 (e^lv - 1) / B
    assert np.allclose(mu.grad, mu0 / 3.0, atol=1e-6)
    assert np.allclose(lv.grad, 0.5 * (np.exp(lv0) - 1.0) / 3.0, atol=1e-6)


def test_kl_rejects_nonfinite():
    mu = Tensor(np.array([[np.nan, 0.0]], dtype=F32))
    lv = Tensor(np.zeros((1, 2), dtype=F32))
    with pytest.raises(TrainError):
        kl_loss(mu, lv)


# ---------------------------------------------------------------------------
# dispersive

def test_dispersive_identical_rows_exactly_zero():
    reps = Tensor(np.tile(np.array([0.3, -1.2, 0.7], dtype=F32), (5, 1)))
    assert float(dispersive_loss(reps, 1.0).data) == 0.0


def test_dispersive_two_row_hand_value():
    # rows at distance^2 = tau: mean = (2 + 2 e^-1)/4, log = -0.3799490
    reps = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=F32))
    got = float(dispersive_loss(reps, 1.0).data)
    assert abs(got - np.log((2.0 + 2.0 * np.exp(-1.0)) / 4.0)) < 1e-6
    # same geometry at tau = 4 with distance^2 = 4
    reps2 = Tensor(np.array([[0.0, 0.0], [2.0, 0.0]], dtype=F32))
    got2 = float(dispersive_loss(reps2, 4.0).data)
    assert abs(got2 - got) < 1e-6


def test_dispersive_never_positive():
    rng = make_rng(9)
    for _ in range(50):
        b = int(rng.integers(1, 9))
        w = int(rng.integers(1, 7))
        reps = Tensor(normal_f32(rng, (b, w)) * F32(rng.uniform(0.01, 30.0)))
        val = float(dispersive_loss(reps, float(rng.uniform(0.1, 5.0))).data)
        assert np.isfinite(val) and val <= 0.0


def test_dispersive_decreases_as_rows_spread():
    rng = make_rng(3)
    base = normal_f32(rng, (6, 4))
    vals = [float(dispersive_loss(Tensor(base * F32(s)), 1.0).data)
            for s in (0.1, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dispersive_grad_matches_fd():
    rng = make_rng(4)
    r0 = normal_f32(rng, (4, 3))
    reps = parameter(r0.copy())
    T.backward(dispersive_loss(reps, 0.7))
    for idx in range(r0.size):
        delta = 2e-2
        up, dn = r0.copy(), r0.copy()
        up.flat[idx] += delta
        dn.flat[idx] -= delta
        fd = (float(dispersive_loss(Tensor(up), 0.7).data)
              - float(dispersive_loss(Tensor(dn), 0.7).data)) / (2 * delta)
        assert entry_rel_err(fd, reps.grad.flat[idx]) < 2e-2


def test_dispersive_errors():
    reps = Tensor(np.zeros((3, 2), dtype=F32))
    with pytest.raises(TrainError):
        dispersive_loss(reps, 0.0)
    with pytest.raises(TrainError):
        dispersive_loss(Tensor(np.zeros(3, dtype=F32)), 1.0)


# ---------------------------------------------------------------------------
# time pairs and batches

def test_time_pairs_ordering_and_range():
    rng = make_rng(1)
    t, r = sample_time_pairs(5000, "uniform", rng, p_equal=0.5)
    assert t.dtype == F32 and r.dtype == F32
    assert np.all(r <= t) and np.all(t < 1.0) and np.all(r >= 0.0)
    frac_eq = np.mean(t == r)
    assert 0.45 < frac_eq < 0.55


def test_time_pairs_p_equal_extremes():
    rng = make_rng(2)
    t, r = sample_time_pairs(2000, "uniform", rng, p_equal=1.0)
    assert np.array_equal(t, r)
    t, r = sample_time_pairs(2000, "uniform", make_rng(2), p_equal=0.0)
    assert np.all(r < t)  # ties have measure zero


def test_time_pairs_stream_independent_of_p_equal():
    # the equality coins are consumed even when p_equal pins the outcome,
    # so downstream draws agree across configs sharing a seed
    r1, r2 = make_rng(5), make_rng(5)
    t1, _ = sample_time_pairs(64, "uniform", r1, p_equal=1.0)
    t2, _ = sample_time_pairs(64, "uniform", r2, p_equal=0.3)
    assert np.array_equal(t1, t2)
    assert r1.random() == r2.random()


def test_time_pairs_max_statistics():
    rng = make_rng(6)
    t, _ = sample_time_pairs(20000, "uniform", rng, p_equal=0.0)
    # max of two uniforms: mean 2/3, sd sqrt(1/18)
    assert abs(t.mean() - 2.0 / 3.0) < 4 * np.sqrt(1.0 / 18.0 / 20000)


def test_time_pairs_lognormal():
    rng = make_rng(7)
    t, r = sample_time_pairs(5000, "lognormal", rng, p_equal=0.2,
                             lognorm_mean=-0.4, lognorm_std=1.0)
    assert np.all((t > 0.0) & (t < 1.0)) and np.all(r <= t)
    # sigmoid of N(-0.4, 1) puts most mass below 1/2
    assert 0.3 < t.mean() < 0.65


def test_time_pairs_bad_strategy():
    with pytest.raises(TrainError):
        sample_time_pairs(4, "beta", make_rng(0))


def test_flow_batch_construction_and_tamper():
    rng = make_rng(8)
    cfg = small_cfg()
    x = normal_f32(rng, (6, 3, 2))
    c = normal_f32(rng, (6, 2, 3))
    b = make_flow_batch(x, c, rng, cfg)
    assert np.array_equal(b.v, b.eps - b.x)
    recon = ((1.0 - b.t)[:, None, None] * b.x + b.t[:, None, None] * b.eps)
    assert np.array_equal(b.z, recon.astype(F32))
    with pytest.raises(TrainError):
        FlowBatch(x=b.x, c=b.c, eps=b.eps, t=b.t, r=b.t + F32(0.5), z=b.z, v=b.v)


# ---------------------------------------------------------------------------
# the target

def test_target_is_v_bitwise_at_r_equals_t():
    rng = make_rng(10)
    v = normal_f32(rng, (4, 3, 2))
    t = rng.random(4).astype(F32)
    u_dot = normal_f32(rng, (4, 3, 2)) * F32(1e6)  # huge du/dt must not leak
    got = mean_flow_target(v, t, t.copy(), u_dot)
    assert np.array_equal(got, v)


def test_target_formula_and_nonfinite_guard():
    v = np.ones((2, 1, 1), dtype=F32)
    t = np.array([0.8, 0.5], dtype=F32)
    r = np.array([0.3, 0.5], dtype=F32)
    u_dot = np.full((2, 1, 1), 2.0, dtype=F32)
    got = mean_flow_target(v, t, r, u_dot)
    assert np.allclose(got[0], 1.0 - 0.5 * 2.0) and got[1] == 1.0
    with pytest.raises(TrainError):
        mean_flow_target(v, t, r, np.full((2, 1, 1), np.inf, dtype=F32))


# ---------------------------------------------------------------------------
# pinned-randomness rig: stopgradient and finite differences

def pinned_setup(variant="VMFD", seed=5, bsz=6):
    cfg = small_cfg(variant)
    dims = dims_for(cfg, cond_dim=3, data_dim=2)
    rng = make_rng(seed)
    params = init_params(rng, dims)
    params["theta/head/w"].data = (params["theta/head/w"].data * 50.0).astype(F32)
    x = normal_f32(rng, (bsz, 3, 2))
    c = normal_f32(rng, (bsz, 2, 3))
    batch = make_flow_batch(x, c, rng, cfg)
    draws = StepDraws(
        inference_layout=False,
        drop=np.arange(bsz) % 2 == 0,
        h_prior=None,
        reparam=normal_f32(rng, (bsz, dims.latent_dim)) if dims.latent_tokens else None)
    return cfg, dims, params, batch, GroupSplit((1, 2)), draws


def frozen_target_loss(params, dims, cfg, batch, split, draws, u_t):
    """The flow_loss forward rebuilt outside the library, with the target
    pinned as a constant. Grads of this rig define what 'stopgradient'
    must mean for the real implementation."""
    bsz, sample_len, _ = batch.x.shape
    cond_len = batch.c.shape[1]
    mask = build_mask(sample_len, cond_len, dims.latent_tokens, split)
    x_p = batch.x[:, :mask.visible_len] if mask.visible_len else None
    dmask = Tensor(draws.drop.astype(F32).reshape(bsz, 1, 1))
    c_used = (null_condition_tokens(params, bsz, cond_len, dims) * dmask
              + Tensor(batch.c) * (1.0 - dmask))
    z, r, t = Tensor(batch.z), Tensor(batch.r), Tensor(batch.t)
    if dims.latent_tokens:
        enc = phi_forward(params, dims, c_used, batch.eps, batch.x, z, r, t,
                          noise=draws.reparam)
        h_tok = T.reshape(enc.h, (bsz, 1, dims.latent_dim))
        u, reps = theta_forward(params, dims, c_used, h_tok, x_p, z, mask,
                                t, r, collect_block=cfg.disp_block)
        kl = kl_loss(enc.mu, enc.log_var)
    else:
        u, reps = theta_forward(params, dims, c_used, None, x_p, z, mask,
                                t, r, collect_block=cfg.disp_block)
        kl = Tensor(0.0)
    res = u - Tensor(u_t)
    l2 = T.tmean(T.tsum(res * res, axis=(1, 2)))
    disp = dispersive_loss(reps, cfg.tau) if cfg.beta > 0 else Tensor(0.0)
    return l2 + kl * cfg.alpha + disp * cfg.beta, u


def recover_target(params, dims, cfg, batch, split, draws):
    """Independent reconstruction of the training target via a local JVP."""
    def g(z_t, r_t, t_t):
        bsz = batch.x.shape[0]
        cond_len = batch.c.shape[1]
        mask = build_mask(batch.x.shape[1], cond_len, dims.latent_tokens, split)
        x_p = batch.x[:, :mask.visible_len] if mask.visible_len else None
        dmask = Tensor(draws.drop.astype(F32).reshape(bsz, 1, 1))
        c_used = (null_condition_tokens(params, bsz, cond_len, dims) * dmask
                  + Tensor(batch.c) * (1.0 - dmask))
        if dims.latent_tokens:
            enc = phi_forward(params, dims, c_used, batch.eps, batch.x,
                              z_t, r_t, t_t, noise=draws.reparam)
            h_tok = T.reshape(enc.h, (bsz, 1, dims.latent_dim))
            u, _ = theta_forward(params, dims, c_used, h_tok, x_p, z_t, mask,
                                 t_t, r_t, collect_block=cfg.disp_block)
            return u
        u, _ = theta_forward(params, dims, c_used, None, x_p, z_t, mask,
                             t_t, r_t, collect_block=cfg.disp_block)
        return u

    _, u_dot = T.jvp(g, (batch.z, batch.r, batch.t),
                     (batch.v, None, np.ones_like(batch.t)))
    return mean_flow_target(batch.v, batch.t, batch.r, u_dot)


def test_target_is_detached_grads_bitwise():
    cfg, dims, params, batch, split, draws = pinned_setup("VMFD")
    total, report = flow_loss(params, dims, cfg, batch, split, draws)
    T.backward(total)
    lib_grads = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
    for p in params.values():
        p.grad = None

    u_t = recover_target(params, dims, cfg, batch, split, draws)
    frozen, u = frozen_target_loss(params, dims, cfg, batch, split, draws, u_t)
    assert float(frozen.data) == report.total  # same f32 value, same op order
    T.backward(frozen)
    for k, g in lib_grads.items():
        assert params[k].grad is not None, k
        assert np.array_equal(g, params[k].grad), k
    for p in params.values():
        p.grad = None


def test_total_grads_match_fd_per_module():
    cfg, dims, params, batch, split, draws = pinned_setup("VMFD", seed=12)
    u_t = recover_target(params, dims, cfg, batch, split, draws)
    total, _ = frozen_target_loss(params, dims, cfg, batch, split, draws, u_t)
    T.backward(total)

    probes = [("theta/blk0/attn/wq", 3), ("theta/blk1/mlp/w1", 7),
              ("theta/embed_z/w", 1), ("theta/head/w", 2), ("theta/c_null", 0),
              ("theta/time/w1", 5), ("phi/w1", 4), ("phi/mu/w", 2),
              ("phi/lv/b", 1)]
    delta = 2e-2
    for name, idx in probes:
        p = params[name]
        idx = idx % p.data.size
        orig = p.data.flat[idx]
        p.data.flat[idx] = orig + F32(delta)
        hi, _ = frozen_target_loss(params, dims, cfg, batch, split, draws, u_t)
        p.data.flat[idx] = orig - F32(delta)
        lo, _ = frozen_target_loss(params, dims, cfg, batch, split, draws, u_t)
        p.data.flat[idx] = orig
        fd = (float(hi.data) - float(lo.data)) / (2 * delta)
        assert entry_rel_err(fd, p.grad.flat[idx]) < 2e-2, name
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# exactly solvable coupled batch: loss and gradient vanish

def test_coupled_batch_exact_field_zero_loss_and_grad():
    # x = a*eps makes z = ((1-t)a + t) eps; the field g(t) z with
    # g = (1-a)/((1-t)a + t) satisfies g^2 + g' = 0, so the target equals
    # the field output pointwise and the residual is pure f32 noise.
    rng = make_rng(30)
    a = 0.6
    bsz, L, D = 8, 3, 2
    eps = normal_f32(rng, (bsz, L, D))
    x = (F32(a) * eps).astype(F32)
    t, r = sample_time_pairs(bsz, "uniform", rng, p_equal=0.25)
    z = ((1.0 - t)[:, None, None] * x + t[:, None, None] * eps).astype(F32)
    v = eps - x
    scale = parameter(np.ones((), dtype=F32))

    def field(z_t, r_t, t_t):
        t3 = T.reshape(t_t, (bsz, 1, 1))
        g = (1.0 - a) / ((1.0 - t3) * a + t3)
        return z_t * g * scale

    outs, tans = T.jvp(field, (z, r, t), (v, None, np.ones_like(t)))
    u_t = mean_flow_target(v, t, r, tans)
    res = outs - Tensor(u_t)
    loss = T.tmean(T.tsum(res * res, axis=(1, 2)))
    assert float(loss.data) < 1e-9
    T.backward(loss)
    assert abs(float(scale.grad)) < 1e-5


def test_coupled_batch_wrong_scale_has_signal():
    # same rig but scale != 1: loss and gradient must be clearly nonzero,
    # so the zero above is not vacuous
    rng = make_rng(31)
    a = 0.6
    bsz, L, D = 8, 3, 2
    eps = normal_f32(rng, (bsz, L, D))
    x = (F32(a) * eps).astype(F32)
    t, r = sample_time_pairs(bsz, "uniform", rng, p_equal=0.25)
    z = ((1.0 - t)[:, None, None] * x + t[:, None, None] * eps).astype(F32)
    v = eps - x
    scale = parameter(np.full((), 1.3, dtype=F32))

    def field(z_t, r_t, t_t):
        t3 = T.reshape(t_t, (bsz, 1, 1))
        g = (1.0 - a) / ((1.0 - t3) * a + t3)
        return z_t * g * scale

    outs, tans = T.jvp(field, (z, r, t), (v, None, np.ones_like(t)))
    res = outs - Tensor(mean_flow_target(v, t, r, tans))
    loss = T.tmean(T.tsum(res * res, axis=(1, 2)))
    assert float(loss.data) > 1e-3
    T.backward(loss)
    assert abs(float(scale.grad)) > 1e-3


# ---------------------------------------------------------------------------
# variant algebra on shared seeds

def shared_data(seed=77, n=12, L=3, D=2, Lc=2, Dc=3):
    drng = make_rng(seed)
    return normal_f32(drng, (n, L, D)), normal_f32(drng, (n, Lc, Dc))


def run_steps(cfg, dims, x, c, seed=21, nsteps=4, lr=1e-3, update=True):
    rng = make_rng(seed)
    params = init_params(rng, dims)
    opt = Adam(params, lr=lr) if update else None
    reports = []
    for _ in range(nsteps):
        batch = make_flow_batch(x, c, rng, cfg)
        from vmflow.mask import split_with_decay
        split = split_with_decay(x.shape[1], cfg.decay_factor, rng)
        reports.append(train_step(params, dims, cfg, batch, split, opt, rng))
    return reports, params


def test_mf_equals_vmf_with_alpha0_and_empty_latent():
    x, c = shared_data()
    cfg_mf = small_cfg("MF")
    dims_mf = dims_for(cfg_mf, cond_dim=3, data_dim=2)
    cfg_v0 = small_cfg("VMF", alpha=0.0)
    dims_v0 = ModelDims(cond_dim=3, data_dim=2, latent_dim=4, width=16, heads=2,
                        blocks=2, time_freqs=4, phi_hidden=12, latent_tokens=0)
    rep_a, par_a = run_steps(cfg_mf, dims_mf, x, c)
    rep_b, par_b = run_steps(cfg_v0, dims_v0, x, c)
    assert [r.total for r in rep_a] == [r.total for r in rep_b]
    assert sorted(par_a) == sorted(par_b)
    for k in par_a:
        assert np.array_equal(par_a[k].data, par_b[k].data), k


def test_dispersive_variants_share_l2_and_kl():
    x, c = shared_data()
    for plain, disp in (("MF", "MFD"), ("VMF", "VMFD")):
        cfg_p = small_cfg(plain)
        cfg_d = small_cfg(disp)
        dims = dims_for(cfg_p, cond_dim=3, data_dim=2)
        rep_p, _ = run_steps(cfg_p, dims, x, c, update=False)
        rep_d, _ = run_steps(cfg_d, dims, x, c, update=False)
        for rp, rd in zip(rep_p, rep_d):
            assert rd.l2 == rp.l2
            assert rd.kl == rp.kl
            assert rd.dispersive <= 0.0 and rp.dispersive == 0.0
            assert rp.total == np.float32(rp.l2) + np.float32(rp.alpha) * np.float32(rp.kl)


def test_fm_is_mf_with_equal_times():
    x, c = shared_data()
    cfg_fm = small_cfg("FM")
    cfg_mf1 = small_cfg("MF", p_equal=1.0)
    dims = dims_for(cfg_fm, cond_dim=3, data_dim=2)
    rep_a, par_a = run_steps(cfg_fm, dims, x, c)
    rep_b, par_b = run_steps(cfg_mf1, dims, x, c)
    assert [r.total for r in rep_a] == [r.total for r in rep_b]
    for k in par_a:
        assert np.array_equal(par_a[k].data, par_b[k].data), k


def test_rfm_is_vmf_with_equal_times():
    x, c = shared_data()
    cfg_rfm = small_cfg("RFM")
    cfg_vmf1 = small_cfg("VMF", p_equal=1.0)
    dims = dims_for(cfg_rfm, cond_dim=3, data_dim=2)
    rep_a, par_a = run_steps(cfg_rfm, dims, x, c)
    rep_b, par_b = run_steps(cfg_vmf1, dims, x, c)
    assert [r.total for r in rep_a] == [r.total for r in rep_b]
    for k in par_a:
        assert np.array_equal(par_a[k].data, par_b[k].data), k


def test_total_composition_exact_f32():
    cfg, dims, params, batch, split, draws = pinned_setup("VMFD", seed=40)
    _, rep = flow_loss(params, dims, cfg, batch, split, draws)
    want = (np.float32(rep.l2) + np.float32(rep.alpha) * np.float32(rep.kl)
            + np.float32(rep.beta) * np.float32(rep.dispersive))
    assert np.float32(rep.total) == want


# ---------------------------------------------------------------------------
# the step and the loop

def test_descent_on_fixed_batch():
    cfg, dims, params, batch, split, draws = pinned_setup("VMF", seed=50)
    opt = Adam(params, lr=5e-3)
    first = None
    last = None
    for _ in range(80):
        total, rep = flow_loss(params, dims, cfg, batch, split, draws)
        if first is None:
            first = rep.total
        last = rep.total
        T.backward(total)
        opt.step()
        opt.zero_grad()
    assert last < 0.6 * first


@pytest.mark.filterwarnings("ignore:overflow")
def test_step_aborts_on_nonfinite():
    # finite but huge weights: residual squares overflow to inf at f32,
    # tripping the total check with its diagnostic payload
    cfg, dims, params, batch, split, _ = pinned_setup("VMF", seed=51)
    params["theta/head/w"].data[:] = 1e25
    rng = make_rng(0)
    with pytest.raises(StepAbortError) as exc:
        train_step(params, dims, cfg, batch, split, Adam(params), rng)
    assert "l2" in str(exc.value)


def test_step_rejects_nonfinite_derivative():
    cfg, dims, params, batch, split, _ = pinned_setup("VMF", seed=51)
    params["theta/head/w"].data[0, 0] = np.inf
    rng = make_rng(0)
    with pytest.raises(TrainError):
        train_step(params, dims, cfg, batch, split, Adam(params), rng)


def test_inference_layout_draws_prior():
    cfg = small_cfg("VMF", p_inference_layout=1.0)
    dims = dims_for(cfg, cond_dim=3, data_dim=2)
    draws = draw_step_randomness(cfg, dims, 5, make_rng(0))
    assert draws.inference_layout and draws.h_prior.shape == (5, 1, 4)
    cfg0 = small_cfg("VMF", p_inference_layout=0.0)
    draws = draw_step_randomness(cfg0, dims, 5, make_rng(0))
    assert not draws.inference_layout and draws.h_prior is None
    assert draws.reparam.shape == (5, 4)
    dims_mf = dims_for(small_cfg("MF"), cond_dim=3, data_dim=2)
    draws = draw_step_randomness(cfg0, dims_mf, 5, make_rng(0))
    assert draws.reparam is None and draws.h_prior is None


def test_inference_layout_step_runs():
    # force the single-group layout: phi still runs (KL active) but theta
    # consumes the prior draw and sees no visible tokens
    cfg = small_cfg("VMF", p_inference_layout=1.0)
    dims = dims_for(cfg, cond_dim=3, data_dim=2)
    rng = make_rng(60)
    params = init_params(rng, dims)
    x, c = shared_data(seed=61, n=6)
    batch = make_flow_batch(x, c, rng, cfg)
    rep = train_step(params, dims, cfg, batch, GroupSplit((1, 2)),
                     Adam(params), rng)
    assert np.isfinite(rep.total) and rep.kl > 0.0


def test_train_model_loop_and_checkpoint_hooks():
    cfg = small_cfg("VMF", epochs=2, batch_size=12, checkpoint_every=1, lr=1e-3)
    x, c = shared_data(seed=70, n=24)
    logged = []
    saved = []
    params, dims, opt = train_model(
        cfg, x, c,
        log_fn=lambda step, rep: logged.append((step, rep.total)),
        checkpoint_fn=lambda epoch, p, o: saved.append(epoch))
    assert [s for s, _ in logged] == [1, 2, 3, 4]
    assert all(np.isfinite(v) for _, v in logged)
    assert saved == [1, 2]  # final epoch not saved twice
    assert opt.step_count == 4
    assert dims.latent_tokens == 1
    for k, p in params.items():
        assert np.all(np.isfinite(p.data)), k


def test_train_model_resume_continues():
    cfg = small_cfg("VMF", epochs=2, batch_size=12)
    x, c = shared_data(seed=71, n=24)
    params, dims, opt = train_model(cfg, x, c)
    n_steps = opt.step_count
    cfg2 = small_cfg("VMF", epochs=4, batch_size=12)
    params2, _, opt2 = train_model(cfg2, x, c, params=params, opt=opt,
                                   start_epoch=2)
    assert opt2.step_count == n_steps + 4  # two more epochs, two steps each
    assert params2 is params
