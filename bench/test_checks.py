"""Each of the benchmark's correctness checks accepts the program's own output
and refuses a deliberately corrupted copy of it, so none passes vacuously.

    python3 -m pytest bench -q
"""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import traced  # noqa: E402
from vmflow import tensor as T  # noqa: E402
from vmflow.checkpoint import save_checkpoint  # noqa: E402
from vmflow.config import RunConfig  # noqa: E402
from vmflow.metrics import conditional_metrics, cosine_sim  # noqa: E402
from vmflow.optim import Adam  # noqa: E402
from vmflow.rng import make_rng, normal_f32  # noqa: E402
from vmflow.sampling import sample_batch  # noqa: E402
from vmflow.training import (dims_for, draw_step_randomness, flow_loss,  # noqa: E402
                             init_params, make_flow_batch)
from vmflow.mask import GroupSplit  # noqa: E402
from pipeline import CHECKED_MODES  # noqa: E402

F32 = np.float32


@pytest.fixture(scope="module")
def tiny():
    cfg = RunConfig(variant="VMF", width=8, heads=2, blocks=1, latent_dim=2,
                    time_freqs=2, phi_hidden=8, batch_size=16, seed=3)
    rng = make_rng(3)
    x = normal_f32(rng, (16, 3, 2))
    c = normal_f32(rng, (16, 1, 2))
    dims = dims_for(cfg, cond_dim=2, data_dim=2)
    params = init_params(rng, dims)
    # a head far from its near-zero init, so u and its derivatives are O(1)
    params["theta/head/w"].data = (params["theta/head/w"].data * 200).astype(F32)
    batch = make_flow_batch(x, c, rng, cfg)
    draws = draw_step_randomness(cfg, dims, 16, rng)
    return cfg, dims, params, batch, draws, c


def test_tangent_check_refuses_a_perturbed_tangent(tiny):
    cfg, dims, params, batch, draws, _ = tiny
    h = normal_f32(make_rng(4), (16, 1, dims.latent_dim))
    u_dot, fds = checks.tangent_pair(params, dims, batch, GroupSplit((1, 2)), h)
    assert checks.check_tangent(u_dot, fds).ok
    bent = u_dot * F32(1.05)
    assert not checks.check_tangent(bent, fds).ok


def test_gradient_check_refuses_a_perturbed_gradient(tiny):
    cfg, dims, params, batch, draws, _ = tiny
    direction = checks.unit_direction(params, make_rng(5))
    analytic, fds, norm = checks.gradient_pair(params, dims, cfg, batch,
                                               GroupSplit((3,)), draws, direction)
    assert checks.check_gradient(analytic, fds, norm).ok
    assert not checks.check_gradient(analytic * 1.05, fds, norm).ok


def _adam_step(tiny):
    cfg, dims, params, batch, draws, _ = tiny
    work = checks.clone_params(params)
    opt = Adam(work, lr=1e-2)
    for _ in range(3):  # moments away from zero before the recorded step
        total, _ = flow_loss(work, dims, cfg, batch, GroupSplit((3,)), draws)
        T.backward(total)
        opt.step()
        opt.zero_grad()
    total, _ = flow_loss(work, dims, cfg, batch, GroupSplit((3,)), draws)
    T.backward(total)
    return opt, checks.adam_step_record(opt)


def test_adam_check_refuses_a_wrong_moment(tiny):
    opt, (before, grads, after) = _adam_step(tiny)
    assert checks.check_adam(before, grads, after, opt.step_count, opt).ok
    name = "theta/blk0/mlp/w1"
    p, m, v = after[name]
    m = m.copy()
    m.flat[7] *= F32(1.01)
    wrong = dict(after, **{name: (p, m, v)})
    assert not checks.check_adam(before, grads, wrong, opt.step_count, opt).ok
    # moments updated from the previous step count's bias correction
    assert not checks.check_adam(before, grads, after, opt.step_count - 1, opt).ok


def test_adam_check_takes_a_cancelling_moment_and_refuses_a_wrong_update():
    # beta1 m0 and (1 - beta1) g nearly cancel, as on a trained ring model:
    # the f32 rounding of the new m is then a large share of its value, and
    # of the update. The first element's update is 1e-2 off float64.
    p = T.parameter(np.array([1.7567483e-07, 0.5], dtype=F32))
    opt = Adam({"w": p}, lr=1e-3)
    opt.step_count = 999
    opt.state["w"].m = np.array([0.0056335996, 0.01], dtype=F32)
    opt.state["w"].v = np.array([0.002628923, 0.002], dtype=F32)
    p.grad = np.array([-0.0507036, 0.03], dtype=F32)
    before, grads, after = checks.adam_step_record(opt)
    assert checks.check_adam(before, grads, after, opt.step_count, opt).ok
    p1, m1, v1 = after["w"]
    p1 = p1.copy()
    p1[1] += F32(0.01) * (p1[1] - before["w"][0][1])
    wrong = {"w": (p1, m1, v1)}
    assert not checks.check_adam(before, grads, wrong, opt.step_count, opt).ok


def test_sampling_check_refuses_a_shifted_sample(tiny):
    cfg, dims, params, batch, draws, c = tiny
    for mode in CHECKED_MODES:
        res = sample_batch(params, dims, c, 3, make_rng(9), nfe=mode.nfe,
                           guidance_w=mode.guidance_w, conditional=mode.conditional)
        x_ref, eps_ref, calls = checks.reference_sample(params, dims, c, 3,
                                                        make_rng(9), mode)
        assert np.array_equal(res.eps, eps_ref)
        assert checks.check_sampling("t", res.x, x_ref, res.calls, calls).ok
        shifted = res.x.copy()
        shifted[0, 0, 0] += F32(1e-3)
        assert not checks.check_sampling("t", shifted, x_ref, res.calls, calls).ok
        assert not checks.check_sampling("t", res.x, x_ref, res.calls + 1, calls).ok


def test_eval_check_refuses_diversity_off_by_one_pair():
    rng = make_rng(12)
    gen = list(np.abs(rng.standard_normal((20, 6))))
    ref = list(np.abs(rng.standard_normal((20, 6))))
    valid = np.ones(20, dtype=bool)
    valid[3] = False
    got = conditional_metrics(gen, ref, valid=valid).metrics
    want = checks.reference_metrics(gen, ref, valid)
    assert checks.check_eval(got, want).ok
    idx = np.flatnonzero(valid)
    dists = [1.0 - cosine_sim(gen[i], gen[j])
             for a, i in enumerate(idx) for j in idx[a + 1:]]
    short = dict(got, diversity=float(np.mean(dists[1:]) * 100.0))
    assert not checks.check_eval(short, want).ok


def test_checkpoint_check_refuses_a_changed_tensor(tiny, tmp_path):
    cfg, dims, params, *_ = tiny
    tensors = {f"param/{k}": p.data for k, p in params.items()}
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, tensors)
    assert checks.check_checkpoint(tensors, path, tmp_path / "b.ckpt", True).ok
    bent = dict(tensors)
    bent["param/theta/head/b"] = tensors["param/theta/head/b"] + F32(1e-6)
    assert not checks.check_checkpoint(bent, path, tmp_path / "b.ckpt", True).ok
    assert not checks.check_checkpoint(tensors, path, tmp_path / "b.ckpt", False).ok


def test_composed_step_check_refuses_a_different_step(tiny):
    cfg, dims, params, batch, draws, _ = tiny
    opt = Adam(checks.clone_params(params), lr=1e-3)
    split = GroupSplit((1, 2))
    assert checks.check_composed_step(params, dims, cfg, batch, split, opt,
                                      make_rng(8), traced.composed_step).ok

    def nudged(params_, *args):
        report = traced.composed_step(params_, *args)
        params_["theta/head/b"].data = params_["theta/head/b"].data + F32(1e-7)
        return report

    assert not checks.check_composed_step(params, dims, cfg, batch, split, opt,
                                          make_rng(8), nudged).ok
