"""Autodiff core: forward values, reverse grads vs FD, tangents vs FD."""
import numpy as np
import pytest

from vmflow import tensor as T
from vmflow.tensor import Tensor, ShapeError

from fdcheck import rel_err, entry_rel_err, fd_entry_grad, backward_grads, fd_directional

RNG = np.random.default_rng(20240811)


def randn(*shape, scale=1.0, shift=0.0):
    return (RNG.standard_normal(shape) * scale + shift).astype(np.float32)


# ---------------------------------------------------------------------------
# forward values

def test_everything_is_f32():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert x.data.dtype == np.float32
    y = x * 2.0 + 1.5
    assert y.data.dtype == np.float32
    z = T.matmul(y, Tensor(randn(3, 4)))
    assert z.data.dtype == np.float32
    assert T.tsum(z).data.dtype == np.float32


def test_pointwise_values():
    x = Tensor([0.0, 1.0, -1.0])
    assert np.allclose(T.exp(x).data, np.exp([0.0, 1.0, -1.0]), rtol=1e-6)
    assert np.allclose(T.tanh(x).data, np.tanh([0.0, 1.0, -1.0]), rtol=1e-6)
    assert float(T.gelu(Tensor([0.0])).data[0]) == 0.0
    assert np.allclose(T.sqrt(Tensor([4.0])).data, [2.0])
    assert np.allclose(T.clip(Tensor([-5.0, 0.5, 5.0]), -1.0, 1.0).data, [-1.0, 0.5, 1.0])


def test_softmax_rows_sum_to_one():
    x = Tensor(randn(4, 7, scale=3.0))
    s = T.softmax(x, axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert (s >= 0).all()


def test_masked_softmax_blocked_entries_exactly_zero():
    scores = Tensor(randn(2, 5, 5, scale=2.0))
    blocked = np.zeros((5, 5), dtype=bool)
    blocked[np.triu_indices(5, k=1)] = True
    filled = T.masked_fill(scores, blocked, -1e9)
    w = T.softmax(filled, axis=-1).data
    # -1e9 shifts underflow exp to exactly 0.0 in f32, so masked weights are bit-zero
    assert (w[:, blocked] == 0.0).all()
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_standardizes_rows():
    x = Tensor(randn(3, 16, scale=4.0, shift=2.0))
    g = Tensor(np.ones(16, dtype=np.float32))
    b = Tensor(np.zeros(16, dtype=np.float32))
    y = T.layer_norm(x, g, b).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-5)
    assert np.allclose(y.std(axis=-1), 1.0, atol=1e-2)


def test_shape_errors_name_the_op():
    with pytest.raises(ShapeError, match="add"):
        T.add(Tensor(randn(3, 4)), Tensor(randn(5)))
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(randn(3, 4)), Tensor(randn(3, 4)))
    with pytest.raises(ShapeError, match="concat"):
        T.concat([], axis=0)
    with pytest.raises(ShapeError, match="reshape"):
        T.reshape(Tensor(randn(3, 4)), (5, 5))


# ---------------------------------------------------------------------------
# reverse mode vs central finite differences
#
# Each entry: (name, closure returning a scalar Tensor, list of input arrays).
# Inputs are kept away from non-smooth points (clip rails, |x| for div).

def _scalar_cases():
    # weight constants are drawn once; the closures must be pure functions
    a34, b34 = randn(3, 4), randn(3, 4)
    w34, w34b = Tensor(randn(3, 4)), Tensor(randn(3, 4))
    w35 = Tensor(randn(3, 5))
    w324 = Tensor(randn(3, 2, 4))
    w62 = Tensor(randn(6, 2))
    w32 = Tensor(randn(3, 2))
    w25 = Tensor(randn(2, 5))
    w3 = Tensor(randn(3))
    w34c = Tensor(randn(3, 4))
    w44 = Tensor(randn(4, 4))
    w34d = Tensor(randn(3, 4))
    w38 = Tensor(randn(3, 8))
    w235 = Tensor(randn(2, 3, 5))
    return [
        ("add", lambda a, b: T.tsum(T.add(a, b) * w34), [a34, b34]),
        ("sub_bcast", lambda a, b: T.tsum(T.sub(a, b) * w34b),
         [randn(3, 4), randn(4)]),
        ("mul", lambda a, b: T.tsum(T.mul(a, b)), [a34, b34]),
        ("div", lambda a, b: T.tsum(T.div(a, b)),
         [randn(3, 4), randn(3, 4, scale=0.2, shift=2.0)]),
        ("matmul2d", lambda a, b: T.tsum(T.matmul(a, b) * w35),
         [randn(3, 4), randn(4, 5)]),
        ("matmul_batched", lambda a, b: T.tsum(T.matmul(a, b)),
         [randn(2, 3, 4, 5), randn(2, 3, 5, 4)]),
        ("matmul_bcast_rhs", lambda a, b: T.tsum(T.matmul(a, b)),
         [randn(2, 3, 4), randn(4, 6)]),
        ("transpose", lambda a: T.tsum(T.transpose(a, (1, 0, 2)) * w324),
         [randn(2, 3, 4)]),
        ("reshape", lambda a: T.tsum(T.reshape(a, (6, 2)) * w62),
         [randn(3, 4)]),
        ("slice", lambda a: T.tsum(a[:, 1:3] * w32), [randn(3, 4)]),
        ("concat", lambda a, b: T.tsum(T.concat([a, b], axis=1) * w25),
         [randn(2, 2), randn(2, 3)]),
        ("sum_axis", lambda a: T.tsum(T.tsum(a, axis=1) * w3), [randn(3, 4)]),
        ("mean", lambda a: T.tmean(a * a), [randn(3, 4)]),
        ("exp", lambda a: T.tsum(T.exp(a)), [randn(3, 4, scale=0.5)]),
        ("log", lambda a: T.tsum(T.log(a)), [randn(3, 4, scale=0.2, shift=2.0)]),
        ("sqrt", lambda a: T.tsum(T.sqrt(a)), [randn(3, 4, scale=0.2, shift=2.0)]),
        ("tanh", lambda a: T.tsum(T.tanh(a)), [randn(3, 4)]),
        ("sin_cos", lambda a: T.tsum(T.sin(a) * T.cos(a)), [randn(3, 4)]),
        ("clip_interior", lambda a: T.tsum(T.clip(a, -10.0, 10.0) * w34c),
         [randn(3, 4)]),
        ("masked_fill", lambda a: T.tsum(T.masked_fill(a, np.eye(4, dtype=bool), 7.0)
                                         * w44), [randn(4, 4)]),
        ("gelu", lambda a: T.tsum(T.gelu(a)), [randn(3, 4)]),
        ("softmax", lambda a: T.tsum(T.softmax(a, axis=-1) * w34d),
         [randn(3, 4)]),
        ("layer_norm", lambda a, g, b: T.tsum(T.layer_norm(a, g, b) * w38),
         [randn(3, 8, scale=2.0), randn(8, shift=1.0), randn(8)]),
        ("linear", lambda x, w, b: T.tsum(T.linear(x, w, b) * w235),
         [randn(2, 3, 4), randn(4, 5), randn(5)]),
        ("mean_tuple_axis", lambda a: T.tsum(T.tmean(a * a, axis=(1, 2))
                                             * Tensor([1.0, -2.0])), [randn(2, 3, 4)]),
    ]


@pytest.mark.parametrize("name,f,arrays", _scalar_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_grad_matches_finite_differences(name, f, arrays):
    # scale losses to O(1) so f32 eval noise stays below the FD resolution
    fs = lambda *xs: f(*xs) * 0.03125
    grads = backward_grads(fs, arrays)
    for which, arr in enumerate(arrays):
        n_checks = min(5, arr.size)
        for flat_idx in RNG.choice(arr.size, size=n_checks, replace=False):
            fd = fd_entry_grad(fs, arrays, which, int(flat_idx))
            g = float(grads[which].flat[int(flat_idx)])
            err = entry_rel_err(fd, g)
            assert err < 1e-2, f"{name} input {which} idx {flat_idx}: fd={fd} grad={g}"


# ---------------------------------------------------------------------------
# forward mode (tangents) vs directional finite differences

def _vector_cases():
    return [
        ("mlp_like", lambda x, w1, w2: T.matmul(T.gelu(T.matmul(x, w1)), w2),
         [randn(2, 4), randn(4, 8), randn(8, 3)]),
        ("attn_like", lambda q, k, v: T.matmul(T.softmax(T.matmul(q, T.transpose(k, (0, 2, 1))) * 0.5, axis=-1), v),
         [randn(2, 5, 4), randn(2, 5, 4), randn(2, 5, 4)]),
        ("norm_chain", lambda x, g, b: T.layer_norm(T.tanh(x), g, b),
         [randn(3, 6), randn(6, shift=1.0), randn(6)]),
        ("mixed", lambda a, b: T.exp(T.tmean(a * b, axis=1)) + T.log(T.tsum(a * a, axis=1) + 3.0),
         [randn(4, 5), randn(4, 5)]),
    ]


@pytest.mark.parametrize("name,f,arrays", _vector_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_tangent_matches_directional_fd(name, f, arrays):
    directions = [randn(*a.shape) for a in arrays]
    _, tangent = T.jvp(f, arrays, directions)
    fd = fd_directional(f, arrays, directions)
    assert rel_err(tangent, fd) < 1e-2, f"{name}: tangent vs FD rel err too large"


def test_jvp_zero_tangent_primal_bit_identical():
    f = _vector_cases()[1][1]
    arrays = _vector_cases()[1][2]
    plain = f(*[Tensor(a) for a in arrays]).data
    out, tangent = T.jvp(f, arrays, [np.zeros_like(a) for a in arrays])
    assert np.array_equal(plain, out.data)
    assert np.array_equal(tangent, np.zeros_like(tangent))


def test_jvp_missing_tangent_means_zero():
    f = lambda a, b: a * b
    arrays = [randn(3), randn(3)]
    out, tangent = T.jvp(f, arrays, [np.ones(3, dtype=np.float32), None])
    assert np.allclose(tangent, arrays[1])


def test_jvp_linearity():
    name, f, arrays = _vector_cases()[0]
    v1 = [randn(*a.shape) for a in arrays]
    v2 = [randn(*a.shape) for a in arrays]
    a, b = 0.7, -1.3
    _, t1 = T.jvp(f, arrays, v1)
    _, t2 = T.jvp(f, arrays, v2)
    combo = [np.float32(a) * x + np.float32(b) * y for x, y in zip(v1, v2)]
    _, tc = T.jvp(f, arrays, combo)
    assert rel_err(tc, a * t1.astype(np.float64) + b * t2.astype(np.float64)) < 1e-4


def test_jvp_multi_output():
    f = lambda x: (x * 2.0, T.tsum(x))
    outs, tangents = T.jvp(f, [randn(3)], [np.ones(3, dtype=np.float32)])
    assert len(outs) == 2 and len(tangents) == 2
    assert np.allclose(tangents[0], 2.0)
    assert np.allclose(tangents[1], 3.0)


def test_jvp_shape_mismatch_raises():
    with pytest.raises(ShapeError, match="jvp"):
        T.jvp(lambda x: x, [randn(3)], [np.ones(4, dtype=np.float32)])


# ---------------------------------------------------------------------------
# graph mechanics

def test_grad_accumulates_additively():
    p = T.parameter(randn(3))
    T.backward(T.tsum(p * 2.0))
    first = p.grad.copy()
    T.backward(T.tsum(p * 2.0))
    assert np.allclose(p.grad, 2.0 * first)
    T.zero_grad([p])
    assert p.grad is None


def test_detach_blocks_gradient_without_error():
    p = T.parameter(randn(4))
    q = T.parameter(randn(4))
    loss = T.tsum(T.detach(p * 3.0) * q)
    T.backward(loss)
    assert p.grad is None
    assert q.grad is not None


def test_masked_fill_kills_grad_and_tangent():
    mask = np.array([True, False, True, False])
    p = T.parameter(randn(4))
    T.backward(T.tsum(T.masked_fill(p, mask, 0.0)))
    assert np.array_equal(p.grad, np.array([0, 1, 0, 1], dtype=np.float32))
    _, tan = T.jvp(lambda x: T.masked_fill(x, mask, 0.0), [randn(4)],
                   [np.ones(4, dtype=np.float32)])
    assert np.array_equal(tan, np.array([0, 1, 0, 1], dtype=np.float32))


def test_backward_requires_scalar():
    p = T.parameter(randn(3))
    with pytest.raises(ShapeError, match="backward"):
        T.backward(p * 1.0)


def test_shared_subexpression_grad_correct():
    # y = sum(x*x + x*x) so dy/dx = 4x; exercises fan-out accumulation
    x = T.parameter(randn(5))
    sq = x * x
    T.backward(T.tsum(sq + sq))
    assert rel_err(x.grad, 4.0 * x.data) < 1e-5
