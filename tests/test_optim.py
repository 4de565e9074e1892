"""Adam against an independent float64 reference implementation."""
import numpy as np
import pytest

from vmflow.optim import Adam, NonFiniteGradError, _adam_arrays
from vmflow.tensor import parameter

RNG = np.random.default_rng(7)


def reference_adam(p0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam, float64 throughout."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = g.astype(np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_matches_float64_reference_over_many_steps():
    p0 = RNG.standard_normal(12).astype(np.float32)
    grads = [RNG.standard_normal(12).astype(np.float32) * 0.3 for _ in range(25)]
    p = parameter(p0)
    opt = Adam({"w": p}, lr=1e-3)
    for g in grads:
        p.grad = g
        opt.step()
    want = reference_adam(p0, grads)
    assert np.allclose(p.data, want, atol=1e-6), \
        f"max dev {np.abs(p.data - want).max()}"


def test_first_step_magnitude_is_lr():
    # with bias correction, step 1 moves every coordinate by ~lr regardless of |g|
    for scale in (0.01, 1.0, 50.0):
        p = parameter(np.zeros(6, dtype=np.float32))
        p.grad = (RNG.standard_normal(6).astype(np.float32) * scale
                  + np.sign(RNG.standard_normal(6)).astype(np.float32) * scale)
        opt = Adam({"w": p}, lr=1e-3)
        opt.step()
        assert np.allclose(np.abs(p.data), 1e-3, rtol=1e-3), f"scale={scale}: {p.data}"


def test_first_step_direction_is_negative_grad_sign():
    p = parameter(np.zeros(8, dtype=np.float32))
    g = RNG.standard_normal(8).astype(np.float32)
    p.grad = g
    Adam({"w": p}, lr=0.01).step()
    assert np.array_equal(np.sign(p.data), -np.sign(g))


def test_nonfinite_grad_raises_with_name():
    p = parameter(np.ones(3, dtype=np.float32))
    p.grad = np.array([1.0, np.nan, 2.0], dtype=np.float32)
    with pytest.raises(NonFiniteGradError, match="theta/blk0"):
        Adam({"theta/blk0/w": p}).step()
    p.grad = np.array([np.inf, 0.0, 0.0], dtype=np.float32)
    with pytest.raises(NonFiniteGradError):
        Adam({"x": p}).step()


def test_params_without_grad_are_skipped():
    p = parameter(np.ones(3, dtype=np.float32))
    q = parameter(np.ones(3, dtype=np.float32))
    q.grad = np.ones(3, dtype=np.float32)
    opt = Adam({"p": p, "q": q})
    opt.step()
    assert np.array_equal(p.data, np.ones(3, dtype=np.float32))
    assert not np.array_equal(q.data, np.ones(3, dtype=np.float32))


def test_state_round_trip_resumes_identically():
    p0 = RNG.standard_normal(5).astype(np.float32)
    grads = [RNG.standard_normal(5).astype(np.float32) for _ in range(10)]

    def run(n, opt, p):
        for g in grads[:n]:
            p.grad = g
            opt.step()

    pa = parameter(p0)
    oa = Adam({"w": pa})
    run(10, oa, pa)

    pb = parameter(p0)
    ob = Adam({"w": pb})
    run(6, ob, pb)
    snap = {k: v.copy() for k, v in ob.state_tensors().items()}
    pc = parameter(pb.data.copy())
    oc = Adam({"w": pc})
    oc.load_state_tensors(snap)
    for g in grads[6:]:
        pc.grad = g
        oc.step()
    assert np.array_equal(pc.data, pa.data)


def test_step_is_bitwise_adam_update_per_tensor():
    shapes = {"a": (3, 4), "b": (5,), "frozen": (2, 2), "c": (1, 7)}
    init = {k: RNG.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
    params = {k: parameter(v) for k, v in init.items()}
    opt = Adam(params, lr=3e-3)
    # per tensor (value, m, v), stepped by Adam's rule on that tensor alone
    ref = {k: (v, np.zeros_like(v), np.zeros_like(v)) for k, v in init.items()}
    for step in range(1, 6):
        for k, s in shapes.items():
            g = None if k == "frozen" and step % 2 else \
                (RNG.standard_normal(s) * 10.0 ** (step - 3)).astype(np.float32)
            params[k].grad = g
            if g is not None:
                p, m, v = ref[k]
                ref[k] = _adam_arrays(p, g, m, v, step, 3e-3, 0.9, 0.999, 1e-8)
        opt.step()
        for k in shapes:
            assert params[k].data.tobytes() == ref[k][0].tobytes(), (step, k)
            assert params[k].data.shape == shapes[k]
            assert opt.state[k].m.tobytes() == ref[k][1].tobytes(), (step, k)
            assert opt.state[k].v.tobytes() == ref[k][2].tobytes(), (step, k)


def test_step_with_nonfinite_grad_names_it_and_updates_nothing():
    p = parameter(np.ones(3, dtype=np.float32))
    q = parameter(np.ones(2, dtype=np.float32))
    p.grad = np.ones(3, dtype=np.float32)
    q.grad = np.array([0.0, np.inf], dtype=np.float32)
    opt = Adam({"theta/p": p, "theta/q": q})
    with pytest.raises(NonFiniteGradError, match="theta/q"):
        opt.step()
    assert np.array_equal(p.data, np.ones(3, dtype=np.float32))
    assert not opt.state["theta/p"].m.any()

