"""Variational encoder: reparameterization identities, stats, autodiff."""
import numpy as np
import pytest

from vmflow import tensor as T
from vmflow.encoder import VariationalOutput, init_phi, phi_forward
from vmflow.model import ModelDims
from vmflow.rng import make_rng, normal_f32
from vmflow.tensor import ShapeError, Tensor

from fdcheck import entry_rel_err, rel_err

DIMS = ModelDims(cond_dim=5, data_dim=3, latent_dim=4, width=16, heads=2,
                 blocks=2, time_freqs=8, phi_hidden=16, latent_tokens=1)


def setup(seed=0, b=3, sample_len=6, cond_len=2):
    rng = make_rng(seed)
    params = init_phi(rng, DIMS)
    c = normal_f32(rng, (b, cond_len, DIMS.cond_dim))
    eps = normal_f32(rng, (b, sample_len, DIMS.data_dim))
    x = normal_f32(rng, (b, sample_len, DIMS.data_dim))
    z = normal_f32(rng, (b, sample_len, DIMS.data_dim))
    t = np.full(b, 0.6, dtype=np.float32)
    r = np.full(b, 0.2, dtype=np.float32)
    return params, c, eps, x, z, t, r


def draw(seed, b=3):
    """A reparameterization draw, as training makes it."""
    return normal_f32(make_rng(seed), (b, DIMS.latent_dim))


def test_zero_noise_gives_mu_exactly():
    params, c, eps, x, z, t, r = setup()
    out = phi_forward(params, DIMS, c, eps, x, z, r, t,
                      noise=np.zeros((3, DIMS.latent_dim), dtype=np.float32))
    assert np.array_equal(out.h.data, out.mu.data)


def test_unit_sigma_gives_mu_plus_noise():
    params, c, eps, x, z, t, r = setup()
    # zero the log-var head so log_var = 0 and sigma = 1
    params["phi/lv/w"].data[:] = 0.0
    params["phi/lv/b"].data[:] = 0.0
    e = normal_f32(make_rng(4), (3, DIMS.latent_dim))
    out = phi_forward(params, DIMS, c, eps, x, z, r, t, noise=e)
    assert np.array_equal(out.log_var.data, np.zeros_like(out.log_var.data))
    assert np.array_equal(out.h.data, out.mu.data + e)


def test_monte_carlo_mean_of_h_is_mu():
    params, c, eps, x, z, t, r = setup(b=1)
    n = 10_000
    rep = lambda a: np.repeat(a, n, axis=0)
    out = phi_forward(params, DIMS, rep(c), rep(eps), rep(x), rep(z),
                      np.full(n, 0.2, np.float32), np.full(n, 0.6, np.float32),
                      noise=draw(123, n))
    mu = out.mu.data[0]
    sigma = np.exp(0.5 * out.log_var.data[0])
    dev = np.abs(out.h.data.mean(axis=0) - mu)
    assert np.all(dev <= 3.0 * sigma / np.sqrt(n)), f"dev {dev} vs {3 * sigma / np.sqrt(n)}"


def test_mu_logvar_deterministic_h_stochastic_only_via_draw():
    params, c, eps, x, z, t, r = setup()
    n1 = draw(1)
    o1 = phi_forward(params, DIMS, c, eps, x, z, r, t, noise=n1)
    o2 = phi_forward(params, DIMS, c, eps, x, z, r, t, noise=draw(2))
    assert np.array_equal(o1.mu.data, o2.mu.data)
    assert np.array_equal(o1.log_var.data, o2.log_var.data)
    assert not np.array_equal(o1.h.data, o2.h.data)
    # replaying the recorded draw reproduces h exactly
    o3 = phi_forward(params, DIMS, c, eps, x, z, r, t, noise=n1.copy())
    assert np.array_equal(o3.h.data, o1.h.data)


def test_log_var_clamped():
    params, c, eps, x, z, t, r = setup()
    params["phi/lv/b"].data[:] = 100.0
    out = phi_forward(params, DIMS, c, eps, x, z, r, t, noise=draw(0))
    assert np.array_equal(out.log_var.data, np.full_like(out.log_var.data, 10.0))
    assert np.all(np.isfinite(out.h.data))


def test_non_finite_input_rejected():
    params, c, eps, x, z, t, r = setup()
    bad = x.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ShapeError, match="non-finite"):
        phi_forward(params, DIMS, c, eps, bad, z, r, t, noise=draw(0))


@pytest.mark.parametrize("bad_t", [np.float32(0.6), np.full(4, 0.6, np.float32)])
def test_time_input_must_be_one_per_row(bad_t):
    params, c, eps, x, z, t, r = setup()
    with pytest.raises(ShapeError, match="concat"):
        phi_forward(params, DIMS, c, eps, x, z, r, bad_t, noise=draw(0))


def test_time_shape_error_names_phi_forward():
    params, c, eps, x, z, t, r = setup()
    bad_t = np.full((3, 2), 0.6, np.float32)
    with pytest.raises(ShapeError, match=r"^phi_forward: t must be \[batch\] or \[batch, 1\]"):
        phi_forward(params, DIMS, c, eps, x, z, r, bad_t, noise=draw(0))


def test_reparam_gradient_reaches_mu_and_logvar_paths():
    params, c, eps, x, z, t, r = setup()
    e = normal_f32(make_rng(8), (3, DIMS.latent_dim))
    target = normal_f32(make_rng(9), (3, DIMS.latent_dim))

    def loss_value(ps):
        out = phi_forward(ps, DIMS, c, eps, x, z, r, t, noise=e)
        d = out.h - Tensor(target)
        return T.tmean(d * d)

    loss = loss_value(params)
    T.backward(loss)
    for key in ("phi/mu/w", "phi/lv/w", "phi/w1"):
        g = params[key].grad
        assert g is not None and np.any(g != 0), key

    # spot-check against finite differences on a few entries
    rng = np.random.default_rng(0)
    for key in ("phi/mu/w", "phi/lv/w"):
        p = params[key]
        for idx in rng.choice(p.data.size, size=5, replace=False):
            old = p.data.copy()
            d = 2e-2
            p.data = old.copy(); p.data.flat[idx] += d
            up = float(loss_value(params).data)
            p.data = old.copy(); p.data.flat[idx] -= d
            dn = float(loss_value(params).data)
            p.data = old
            fd = (up - dn) / (2 * d)
            assert entry_rel_err(fd, float(p.grad.flat[idx])) < 1e-2, key


def test_h_tangent_wrt_z_direction_matches_fd():
    params, c, eps, x, z, t, r = setup(seed=5)
    # scale weights up: near-zero init makes h almost constant and the FD
    # signal falls below f32 resolution
    for p in params.values():
        p.data = p.data * np.float32(10.0)
    v = normal_f32(make_rng(6), z.shape)
    e = normal_f32(make_rng(7), (3, DIMS.latent_dim))

    def f(z_t, r_t, t_t):
        return phi_forward(params, DIMS, c, eps, x, z_t, r_t, t_t, noise=e).h

    _, h_dot = T.jvp(f, (z, r, t), (v, None, np.ones_like(t)))
    delta = 1e-3
    up = f(Tensor(z + delta * v), Tensor(r), Tensor(t + delta)).data.astype(np.float64)
    dn = f(Tensor(z - delta * v), Tensor(r), Tensor(t - delta)).data.astype(np.float64)
    assert rel_err(h_dot, (up - dn) / (2 * delta)) < 1e-2
