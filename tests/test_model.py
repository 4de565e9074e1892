"""Transformer forward: causality, determinism, time embedding, autodiff."""
import numpy as np
import pytest

from vmflow import tensor as T
from vmflow.mask import AttentionMask, GroupSplit, build_mask, single_group_mask
from vmflow.model import (ModelDims, embed_time, init_theta,
                          null_condition_tokens, theta_forward)
from vmflow.rng import make_rng, normal_f32
from vmflow.tensor import ShapeError, Tensor

from fdcheck import rel_err

DIMS = ModelDims(cond_dim=5, data_dim=3, latent_dim=4, width=16, heads=2,
                 blocks=2, time_freqs=4, phi_hidden=16, latent_tokens=1)


def tiny_setup(seed=0, sample_len=6, cond_len=2, latent_len=1, sizes=(2, 3, 1)):
    rng = make_rng(seed)
    params = init_theta(rng, DIMS)
    split = GroupSplit(sizes)
    mask = build_mask(sample_len, cond_len, latent_len, split)
    b = 3
    c = normal_f32(rng, (b, cond_len, DIMS.cond_dim))
    h = normal_f32(rng, (b, latent_len, DIMS.latent_dim))
    x_p = normal_f32(rng, (b, mask.visible_len, DIMS.data_dim))
    z = normal_f32(rng, (b, sample_len, DIMS.data_dim))
    t = np.full(b, 0.8, dtype=np.float32)
    r = np.full(b, 0.3, dtype=np.float32)
    return params, mask, c, h, x_p, z, t, r


def fwd(params, mask, c, h, x_p, z, t, r):
    return theta_forward(params, DIMS, c, h, x_p, z, mask, t, r).data


def test_output_shape_and_determinism():
    params, mask, c, h, x_p, z, t, r = tiny_setup()
    u1 = fwd(params, mask, c, h, x_p, z, t, r)
    u2 = fwd(params, mask, c, h, x_p, z, t, r)
    assert u1.shape == z.shape
    assert np.array_equal(u1, u2)
    # same seed rebuilds the same parameters bit-exactly
    params2 = init_theta(make_rng(0), DIMS)
    assert all(np.array_equal(params[k].data, params2[k].data) for k in params)


def test_inference_layout_no_visible_no_latent():
    params, *_ = tiny_setup()
    rng = make_rng(5)
    z = normal_f32(rng, (2, 4, DIMS.data_dim))
    c = normal_f32(rng, (2, 1, DIMS.cond_dim))
    mask = single_group_mask(4, 1, 0)
    u = theta_forward(params, DIMS, c, None, None, z, mask, 1.0, 0.0).data
    assert u.shape == z.shape
    assert np.all(np.isfinite(u))


def test_fully_blocked_xp_columns_make_xp_irrelevant():
    params, mask, c, h, x_p, z, t, r = tiny_setup()
    m = mask.blocked.copy()
    xp_off = mask.cond_len + mask.latent_len
    m[:, xp_off:xp_off + mask.visible_len] = True
    mask_blocked = AttentionMask(m, mask.cond_len, mask.latent_len,
                                 mask.visible_len, mask.sample_len, mask.split)
    u1 = fwd(params, mask_blocked, c, h, x_p, z, t, r)
    u2 = fwd(params, mask_blocked, c, h, x_p + 100.0, z, t, r)
    assert np.array_equal(u1, u2)


def test_group_causality_by_perturbation():
    # changing x_p group j may only move z outputs in groups after j
    params, mask, c, h, x_p, z, t, r = tiny_setup(sizes=(2, 3, 1))
    cs = mask.split.cumsum
    base = fwd(params, mask, c, h, x_p, z, t, r)
    for j in range(len(mask.split.sizes) - 1):  # x_p groups
        bump = x_p.copy()
        bump[:, cs[j]:cs[j + 1], :] += 3.0
        out = fwd(params, mask, c, h, bump, z, t, r)
        for i, (a, b) in enumerate(zip(cs, cs[1:])):  # z groups
            same = np.array_equal(out[:, a:b, :], base[:, a:b, :])
            if i <= j:
                assert same, f"z group {i} leaked from x_p group {j}"
            else:
                assert not same, f"z group {i} ignores visible x_p group {j}"


def test_z_group_isolation():
    # z tokens only see their own z group, so perturbing group 1's z tokens
    # cannot move group 0's outputs
    params, mask, c, h, x_p, z, t, r = tiny_setup(sizes=(3, 3))
    cs = mask.split.cumsum
    base = fwd(params, mask, c, h, x_p, z, t, r)
    bump = z.copy()
    bump[:, cs[1]:cs[2], :] -= 5.0
    out = fwd(params, mask, c, h, x_p, bump, t, r)
    assert np.array_equal(out[:, cs[0]:cs[1], :], base[:, cs[0]:cs[1], :])
    assert not np.array_equal(out[:, cs[1]:cs[2], :], base[:, cs[1]:cs[2], :])


def test_per_example_time_vector():
    params, mask, c, h, x_p, z, t, r = tiny_setup()
    t = np.array([0.9, 0.5, 0.7], dtype=np.float32)
    r = np.array([0.1, 0.5, 0.0], dtype=np.float32)
    u = fwd(params, mask, c, h, x_p, z, t, r)
    # example 1 has r = t; changing example 0's time must not affect example 1
    t2 = t.copy()
    t2[0] = 1.0
    u2 = fwd(params, mask, c, h, x_p, z, t2, r)
    assert np.array_equal(u[1], u2[1])
    assert not np.array_equal(u[0], u2[0])


def test_layout_and_input_errors():
    params, mask, c, h, x_p, z, t, r = tiny_setup()
    with pytest.raises(ShapeError, match="mask"):
        theta_forward(params, DIMS, c, h, x_p, z[:, :3], mask, t, r)
    with pytest.raises(ShapeError, match="z must be"):
        theta_forward(params, DIMS, c, h, x_p, z[:, :0], mask, t, r)
    with pytest.raises(ShapeError, match="r <= t"):
        theta_forward(params, DIMS, c, h, x_p, z, mask, 0.3, 0.8)
    with pytest.raises(ShapeError):
        theta_forward(params, DIMS, c, h, x_p, z, mask, 1.4, 0.0)
    nan = np.array([np.nan, 0.5, 0.5], dtype=np.float32)
    for t_, r_ in ((nan, r), (t, nan)):  # NaN is not within the time rule
        with pytest.raises(ShapeError, match="r <= t"):
            theta_forward(params, DIMS, c, h, x_p, z, mask, t_, r_)


def test_embed_time_properties():
    params = init_theta(make_rng(3), DIMS)
    e = lambda t, r: embed_time(np.float32(t), np.float32(r), params, DIMS).data
    assert not np.allclose(e(0.5, 0.25), e(0.25, 0.5))  # order matters
    assert np.all(np.isfinite(e(1.0, 0.0)))
    assert np.all(np.isfinite(e(0.7, 0.7)))
    # smooth: small input change, small output change
    d = np.linalg.norm(e(0.5, 0.25) - e(0.5001, 0.25))
    assert d < 0.05
    with pytest.raises(ShapeError, match="embed_time"):
        e(1.2, 0.0)
    with pytest.raises(ShapeError, match="embed_time"):
        e(0.5, -0.1)
    nan, half = np.array([np.nan, 0.5], np.float32), np.full(2, 0.5, np.float32)
    for t, r in ((nan, half), (half, nan)):
        with pytest.raises(ShapeError, match="embed_time"):
            embed_time(t, r, params, DIMS)


def test_time_shape_error_names_embed_time():
    params = init_theta(make_rng(3), DIMS)
    bad_t = np.full((3, 2), 0.5, np.float32)
    with pytest.raises(ShapeError, match=r"^embed_time: t must be \[batch\] or \[batch, 1\]"):
        embed_time(bad_t, np.zeros(3, np.float32), params, DIMS)


def test_null_condition_tokens_tile_and_grad():
    params = init_theta(make_rng(1), DIMS)
    toks = null_condition_tokens(params, batch=4, cond_len=2)
    assert toks.shape == (4, 2, DIMS.cond_dim)
    assert np.array_equal(toks.data[0, 0], params["theta/c_null"].data)
    assert np.array_equal(toks.data[3, 1], params["theta/c_null"].data)
    T.backward(T.tsum(toks))
    assert np.allclose(params["theta/c_null"].grad, 8.0)


def test_gradients_reach_all_touched_params():
    params, mask, c, h, x_p, z, t, r = tiny_setup()
    u = theta_forward(params, DIMS, c, h, x_p, z, mask, t, r)
    T.backward(T.tmean(u * u))
    missing = [k for k, p in params.items() if p.grad is None and k != "theta/c_null"]
    assert missing == [], f"no gradient for {missing}"


def test_jvp_tangent_vs_directional_fd():
    params, mask, c, h, x_p, z, t, r = tiny_setup(seed=9)
    v = normal_f32(make_rng(77), z.shape)

    def f(z_t, r_t, t_t):
        return theta_forward(params, DIMS, c, h, x_p, z_t, mask, t_t, r_t)

    _, udot = T.jvp(f, (z, r, t), (v, None, np.ones_like(t)))
    delta = 1e-3
    up = f(Tensor(z + delta * v), Tensor(r), Tensor(t + delta)).data.astype(np.float64)
    dn = f(Tensor(z - delta * v), Tensor(r), Tensor(t - delta)).data.astype(np.float64)
    fd = (up - dn) / (2 * delta)
    assert rel_err(udot, fd) < 1e-2
