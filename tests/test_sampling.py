"""Sampler algebra: guidance identities, telescoping stubs, the affine
closed form, evaluation counts, and bit-level determinism."""
import numpy as np
import pytest

from vmflow import sampling
from vmflow.model import ModelDims, theta_forward
from vmflow.rng import make_rng, normal_f32
from vmflow.sampling import (ModelField, SampleError, guide,
                             null_condition_array, sample_batch,
                             sample_multi_step, sample_one_nfe)
from vmflow.tensor import Tensor
from vmflow.training import init_params

F32 = np.float32

DIMS = ModelDims(cond_dim=3, data_dim=2, latent_dim=4, width=16, heads=2,
                 blocks=2, time_freqs=4, phi_hidden=12, latent_tokens=1)


def real_field(seed=0, bsz=4, variational=True):
    dims = DIMS if variational else ModelDims(
        cond_dim=3, data_dim=2, latent_dim=4, width=16, heads=2, blocks=2,
        time_freqs=4, phi_hidden=12, latent_tokens=0)
    rng = make_rng(seed)
    params = init_params(rng, dims)
    params["theta/head/w"].data = (params["theta/head/w"].data * 100.0).astype(F32)
    h = normal_f32(rng, (bsz, 1, dims.latent_dim)) if variational else None
    c = normal_f32(rng, (bsz, 2, 3))
    eps = normal_f32(rng, (bsz, 3, 2))
    return ModelField(params, dims, h=h), params, c, eps


# ---------------------------------------------------------------------------
# guidance

def test_guide_w1_is_conditional_bitwise():
    rng = make_rng(1)
    uc, uu = normal_f32(rng, (4, 3, 2)), normal_f32(rng, (4, 3, 2))
    assert np.array_equal(guide(uc, uu, 1.0), uc)
    assert np.array_equal(guide(uc, uu, 0.0), uu)


def test_guide_scalar_example():
    uc = np.ones((1, 1, 1), dtype=F32)
    uu = np.zeros((1, 1, 1), dtype=F32)
    assert float(guide(uc, uu, 2.0)[0, 0, 0]) == 2.0


def test_guide_affine_formula():
    rng = make_rng(2)
    uc, uu = normal_f32(rng, (5, 2, 3)), normal_f32(rng, (5, 2, 3))
    for w in (0.5, 1.5, 2.0, -0.3):
        want = F32(w) * uc + F32(1.0 - w) * uu
        assert np.array_equal(guide(uc, uu, w), want)


def test_guide_shape_mismatch():
    with pytest.raises(SampleError):
        guide(np.zeros((2, 1, 1), dtype=F32), np.zeros((3, 1, 1), dtype=F32), 1.5)


# ---------------------------------------------------------------------------
# stub fields

def test_zero_field_returns_noise_bitwise():
    rng = make_rng(3)
    eps = normal_f32(rng, (4, 3, 2))
    c = normal_f32(rng, (4, 2, 3))
    out = sample_one_nfe(lambda c_, z, r, t: np.zeros_like(z), c, eps)
    assert np.array_equal(out, eps)


def test_identity_on_noise_field_returns_zero():
    rng = make_rng(4)
    eps = normal_f32(rng, (4, 3, 2))
    c = normal_f32(rng, (4, 2, 3))
    out = sample_one_nfe(lambda c_, z, r, t: z, c, eps)
    assert np.array_equal(out, np.zeros_like(eps))


def test_constant_field_telescopes():
    rng = make_rng(5)
    eps = normal_f32(rng, (4, 3, 2))
    c = normal_f32(rng, (4, 2, 3))
    u0 = normal_f32(rng, (4, 3, 2))
    want = eps - u0
    for k in (1, 3, 5):
        got = sample_multi_step(lambda c_, z, r, t: u0, c, eps, k)
        if k == 1:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, atol=2e-6)


def test_grid_is_uniform_descending():
    seen = []

    def probe(c_, z, r, t):
        seen.append((float(t[0]), float(r[0])))
        return np.zeros_like(z)

    eps = np.zeros((2, 2, 2), dtype=F32)
    c = np.zeros((2, 1, 3), dtype=F32)
    sample_multi_step(probe, c, eps, 4)
    grid = [1.0 - k / 4 for k in range(5)]
    for k, (t, r) in enumerate(seen):
        assert t == F32(grid[k]) and r == F32(grid[k + 1])
    assert seen[-1][1] == 0.0 and seen[0][0] == 1.0


def test_affine_stub_matches_closed_form():
    # u(z) = z A^T + b gives x_K = M^K eps - h sum_j M^j b with M = I - hA
    rng = make_rng(6)
    d = 2
    A = (normal_f32(rng, (d, d)) * F32(0.4))
    b = normal_f32(rng, (d,))
    eps = normal_f32(rng, (5, 3, d))
    c = normal_f32(rng, (5, 2, 3))

    def field(c_, z, r, t):
        return (z @ A.T + b).astype(F32)

    for k in (1, 2, 3, 5):
        h = 1.0 / k
        M = np.eye(d) - h * A.astype(np.float64)
        Mk = np.linalg.matrix_power(M, k)
        acc = sum(np.linalg.matrix_power(M, j) for j in range(k))
        want = eps.astype(np.float64) @ Mk.T - h * (acc @ b.astype(np.float64))
        got = sample_multi_step(field, c, eps, k)
        assert np.allclose(got, want, atol=1e-5), k


# ---------------------------------------------------------------------------
# the real model

def test_k1_multi_step_is_one_nfe_bitwise():
    field, params, c, eps = real_field(seed=7)
    a = sample_one_nfe(field, c, eps)
    bb = sample_multi_step(field, c, eps, 1)
    assert np.array_equal(a, bb)
    null_c = null_condition_array(params, 4, 2)
    a = sample_one_nfe(field, c, eps, guidance_w=1.5, null_c=null_c)
    bb = sample_multi_step(field, c, eps, 1, guidance_w=1.5, null_c=null_c)
    assert np.array_equal(a, bb)


def test_nfe_counts():
    for k in (1, 3):
        field, params, c, eps = real_field(seed=8)
        sample_multi_step(field, c, eps, k)
        assert field.calls == k
        field.calls = 0
        null_c = null_condition_array(params, 4, 2)
        sample_multi_step(field, c, eps, k, guidance_w=2.0, null_c=null_c)
        assert field.calls == 2 * k


def test_guided_step_matches_manual_affine():
    field, params, c, eps = real_field(seed=9)
    null_c = null_condition_array(params, 4, 2)
    r = np.zeros(4, dtype=F32)
    t = np.ones(4, dtype=F32)
    u_c = field(c, eps, r, t)
    u_u = field(null_c, eps, r, t)
    for w in (0.0, 2.0):
        want = eps - (F32(w) * u_c + F32(1.0 - w) * u_u)
        got = sample_one_nfe(field, c, eps, guidance_w=w, null_c=null_c)
        assert np.array_equal(got, want), w


def test_sample_batch_deterministic_and_counted():
    _, params, c, _ = real_field(seed=10)
    res1 = sample_batch(params, DIMS, c, 3, make_rng(42), nfe=3, guidance_w=1.5)
    res2 = sample_batch(params, DIMS, c, 3, make_rng(42), nfe=3, guidance_w=1.5)
    assert res1.x.tobytes() == res2.x.tobytes()
    assert res1.eps.tobytes() == res2.eps.tobytes()
    assert res1.calls == 6  # guided: 2K
    res3 = sample_batch(params, DIMS, c, 3, make_rng(43), nfe=3, guidance_w=1.5)
    assert res1.x.tobytes() != res3.x.tobytes()


def test_sample_batch_draw_order_noise_then_latent():
    _, params, c, _ = real_field(seed=11)
    res = sample_batch(params, DIMS, c, 3, make_rng(5), nfe=1)
    rng = make_rng(5)
    eps = normal_f32(rng, (4, 3, 2))
    h = normal_f32(rng, (4, 1, 4))
    assert np.array_equal(res.eps, eps)
    manual = sample_one_nfe(ModelField(params, DIMS, h=h), c, eps)
    assert np.array_equal(res.x, manual)


def test_unconditional_short_circuits():
    _, params, c, _ = real_field(seed=12)
    res = sample_batch(params, DIMS, c, 3, make_rng(9), nfe=2,
                       guidance_w=2.0, conditional=False)
    assert res.calls == 2  # guidance forced off against the null condition
    # equals an explicit null-condition conditional run on the same stream
    null_c = null_condition_array(params, 4, 2)
    ref = sample_batch(params, DIMS, null_c, 3, make_rng(9), nfe=2,
                       guidance_w=1.0)
    assert np.array_equal(res.x, ref.x)


def test_nonvariational_field_runs():
    field, params, c, eps = real_field(seed=13, variational=False)
    out = sample_multi_step(field, c, eps, 3)
    assert out.shape == eps.shape and np.all(np.isfinite(out))


def test_field_latent_validation():
    _, params, c, eps = real_field(seed=14)
    with pytest.raises(SampleError):
        ModelField(params, DIMS, h=None)  # variational model, no draw
    dims0 = ModelDims(cond_dim=3, data_dim=2, latent_dim=4, width=16, heads=2,
                      blocks=2, time_freqs=4, phi_hidden=12, latent_tokens=0)
    params0 = init_params(make_rng(0), dims0)
    with pytest.raises(SampleError):
        ModelField(params0, dims0, h=np.zeros((4, 1, 4), dtype=F32))


def test_errors():
    rng = make_rng(15)
    eps = normal_f32(rng, (2, 2, 2))
    c = normal_f32(rng, (2, 1, 3))
    with pytest.raises(SampleError):
        sample_multi_step(lambda c_, z, r, t: z, c, eps, 0)
    with pytest.raises(SampleError):
        sample_one_nfe(lambda c_, z, r, t: np.full_like(z, np.inf), c, eps)
    field, params, cc, eps2 = real_field(seed=16)
    params["theta/head/w"].data[0, 0] = np.nan
    with pytest.raises(SampleError, match="model output"):
        sample_one_nfe(field, cc, eps2)


# ---------------------------------------------------------------------------
# sampling from trainable parameters

def test_field_records_no_graph_for_trainable_params(monkeypatch):
    field, params, c, eps = real_field(seed=11)
    assert all(p.requires_grad for p in params.values())
    outs = []

    def spy(*args):
        outs.append(theta_forward(*args))
        return outs[-1]

    monkeypatch.setattr(sampling, "theta_forward", spy)
    b, length = eps.shape[0], eps.shape[1]
    field(c, eps, np.zeros(b, dtype=F32), np.ones(b, dtype=F32))
    assert outs[0]._parents == () and not outs[0].requires_grad

    consts = {k: Tensor(p.data) for k, p in params.items()}
    for kw in (dict(nfe=1, guidance_w=1.5), dict(nfe=3)):
        a = sample_batch(params, DIMS, c, length, make_rng(5), **kw)
        b_ = sample_batch(consts, DIMS, c, length, make_rng(5), **kw)
        assert a.x.tobytes() == b_.x.tobytes()


def test_field_reads_current_parameter_values():
    """A field built before an optimizer step samples with the new values:
    Adam rebinds `.data`, and each call reads it afresh."""
    field, params, c, eps = real_field(seed=11)
    b = eps.shape[0]
    r, t = np.zeros(b, dtype=F32), np.ones(b, dtype=F32)
    before = field(c, eps, r, t).copy()
    params["theta/head/b"].data = params["theta/head/b"].data + F32(1.0)
    assert not np.array_equal(field(c, eps, r, t), before)
