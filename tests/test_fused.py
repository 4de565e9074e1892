"""The fused layers against their composites in tests/composites.py.

Each fused node must give the composite's primal, tangent and gradients bit
for bit, alone and inside any graph, so that training, sampling and every
acceptance verdict are unchanged by the fusion. Bitwise here means the same
bytes, which also pins the sign of zeros.
"""
import dataclasses
from collections import Counter

import numpy as np
import pytest

import composites
from vmflow import tensor as T
from vmflow.config import RunConfig
from vmflow.datasets import (ToySequenceSpec, make_gmm_dataset,
                             make_sequence_dataset, ring_spec)
from vmflow.mask import split_with_decay
from vmflow.rng import make_rng, normal_f32
from vmflow.sampling import sample_batch
from vmflow.tensor import Tensor
from vmflow.training import (dims_for, draw_step_randomness, flow_loss,
                             init_params, make_flow_batch, train_model)

F32 = np.float32


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# one op at a time, at the model's shapes, with a tangent on every input

B, S, W, H = 3, 7, 12, 2


def _blocked_scores(rng):
    """[B, heads, S, S] scores carrying the -1e9 fills of a causal mask."""
    blocked = np.triu(np.ones((S, S), dtype=bool), k=1)
    return np.where(blocked, F32(-1e9), normal_f32(rng, (B, H, S, S)))


def _op_cases():
    """(name, f over leaves, input shapes or arrays); f builds the same graph
    from whichever module supplies the layers."""
    return [
        ("linear", lambda L, x, w, b: L.linear(x, w, b), [(B, S, W), (W, 4 * W), (4 * W,)]),
        ("linear_2d", lambda L, x, w, b: L.linear(x, w, b), [(B, W), (W, W), (W,)]),
        ("linear_no_bias", lambda L, x, w: L.linear(x, w), [(B, S, W), (W, W)]),
        ("layer_norm", lambda L, x, g, b: L.layer_norm(x, g, b), [(B, S, W), (W,), (W,)]),
        ("gelu", lambda L, x: L.gelu(x), [(B, S, 4 * W)]),
        ("softmax", lambda L, x: L.softmax(x, axis=-1), [_blocked_scores]),
        # the residual stream: x feeds the layer norm and the add after it
        ("layer_norm_residual",
         lambda L, x, g, b, w: T.add(x, L.linear(L.layer_norm(x, g, b), w, b)),
         [(B, S, W), (W,), (W,), (W, W)]),
        # an input reached along several paths inside and outside the layer
        ("gelu_fan_out", lambda L, x: T.mul(L.gelu(x), x) + L.gelu(x),
         [(B, S, W)]),
        ("attention_like",
         lambda L, x, wq, wk: L.softmax(T.matmul(L.linear(x, wq), T.transpose(
             L.linear(x, wk), (0, 2, 1))) * F32(0.5), axis=-1),
         [(B, S, W), (W, W), (W, W)]),
    ]


def _leaves(rng, specs):
    out = []
    for spec in specs:
        data = spec(rng) if callable(spec) else normal_f32(rng, spec)
        out.append((data, normal_f32(rng, data.shape)))
    return out


def _run(layers, f, leaves, cot):
    """Primal, tangent and input gradients of f under `layers`."""
    ins = [Tensor(d, tangent=t, requires_grad=True) for d, t in leaves]
    out = f(layers, *ins)
    T.backward(T.tsum(out * Tensor(cot)))
    return out.data, out.tangent, [p.grad for p in ins]


@pytest.mark.parametrize("name,f,specs", _op_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_fused_op_matches_composite_bitwise(name, f, specs):
    rng = make_rng(4242)
    leaves = _leaves(rng, specs)
    probe = f(composites, *[Tensor(d) for d, _ in leaves])
    cot = normal_f32(rng, probe.shape)
    fused = _run(T, f, leaves, cot)
    oracle = _run(composites, f, leaves, cot)
    assert same(fused[0], oracle[0]), f"{name}: primal"
    assert same(fused[1], oracle[1]), f"{name}: tangent"
    for i, (gf, go) in enumerate(zip(fused[2], oracle[2])):
        assert same(gf, go), f"{name}: gradient of input {i}"


@pytest.mark.parametrize("which", ["x", "params"])
def test_fused_op_partial_tangents_and_grads(which):
    """Tangents and gradients on only some inputs take the same branches."""
    rng = make_rng(99)
    x, g, b, w = (normal_f32(rng, s) for s in ((B, S, W), (W,), (W,), (W, W)))
    tx, tg = normal_f32(rng, x.shape), normal_f32(rng, g.shape)
    cot = normal_f32(rng, (B, S, W))

    def run(layers):
        if which == "x":
            ins = [Tensor(x, tangent=tx, requires_grad=True), Tensor(g), Tensor(b),
                   Tensor(w)]
        else:
            ins = [Tensor(x), Tensor(g, tangent=tg, requires_grad=True),
                   T.parameter(b), T.parameter(w)]
        out = layers.linear(layers.gelu(layers.layer_norm(*ins[:3])), ins[3], ins[2])
        T.backward(T.tsum(out * Tensor(cot)))
        return out.data, out.tangent, [p.grad for p in ins]

    fused, oracle = run(T), run(composites)
    assert same(fused[0], oracle[0]) and same(fused[1], oracle[1])
    for gf, go in zip(fused[2], oracle[2]):
        assert (gf is None and go is None) or same(gf, go)


# ---------------------------------------------------------------------------
# forward-only calls compute the primal and nothing else

class _Logged(np.ndarray):
    """An array that logs each ufunc numpy runs on it or on what it derives."""
    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Logged.log.append(ufunc.__name__ if method == "__call__"
                           else f"{ufunc.__name__}.{method}")
        plain = [a.view(np.ndarray) if isinstance(a, _Logged) else a for a in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(a.view(np.ndarray) if isinstance(a, _Logged) else a
                                  for a in kwargs["out"])
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_Logged) if isinstance(out, np.ndarray) else out


def _ufunc_log(name, args, requires_grad=False):
    ins = []
    for a in args:
        t = Tensor(a, requires_grad=requires_grad)
        t.data = t.data.view(_Logged)
        ins.append(t)
    _Logged.log = []
    out = {"gelu": lambda: T.gelu(ins[0]),
           "softmax": lambda: T.softmax(ins[0], axis=-1),
           "layer_norm": lambda: T.layer_norm(*ins),
           "linear": lambda: T.linear(*ins),
           "tanh": lambda: T.tanh(ins[0])}[name]()
    return out, Counter(_Logged.log)


@pytest.mark.parametrize("name,shapes", [
    ("gelu", [(B, S, W)]), ("softmax", [(B, H, S, S)]),
    ("layer_norm", [(B, S, W), (W,), (W,)]), ("linear", [(B, S, W), (W, W), (W,)]),
    ("tanh", [(B, W)])])
def test_forward_only_call_computes_only_the_primal(name, shapes):
    rng = make_rng(7)
    args = [normal_f32(rng, s) for s in shapes]
    out, plain = _ufunc_log(name, args)
    assert out._parents == () and out._vjp is None and out.tangent is None
    primal = {"gelu": ["multiply"] * 6 + ["add", "add", "tanh"],
              "softmax": ["maximum.reduce", "subtract", "exp", "add.reduce", "divide"],
              "layer_norm": ["add.reduce", "multiply", "subtract", "multiply",
                             "add.reduce", "multiply", "add", "sqrt", "divide",
                             "multiply", "add"],
              "linear": ["matmul", "add"],
              "tanh": ["tanh"]}[name]
    assert plain == Counter(primal)
    if name in ("gelu", "tanh"):
        # the tanh slope 1 - th^2 is made only for a tangent or a gradient
        _, graded = _ufunc_log(name, args, requires_grad=True)
        assert graded == plain + Counter(["multiply", "subtract"])


# ---------------------------------------------------------------------------
# whole training runs: every variant, fused against composite

def _ring():
    d = make_gmm_dataset(ring_spec(samples_per_mode=5, seed=3))
    return d.x.astype(F32), d.c


def _seq():
    d = make_sequence_dataset(ToySequenceSpec(vocab=6, length=4, dim=8, n_sequences=40,
                                              dominance=0.9, seed=21, scale=4.0))
    return d.x, d.c


def _train_and_sample(variant, data):
    x, c = data
    cfg = RunConfig(variant=variant, width=8, heads=2, blocks=2, latent_dim=3,
                    time_freqs=4, phi_hidden=8, lr=1e-2, epochs=1,
                    batch_size=x.shape[0] // 4, seed=5, tau=0.8,
                    p_inference_layout=0.5)
    reports = []
    params, dims, opt = train_model(cfg, x, c, log_fn=lambda s, r: reports.append(r))
    cond, length = c[:6], x.shape[1]
    guided = sample_batch(params, dims, cond, length, make_rng(8), nfe=1, guidance_w=1.5)
    multi = sample_batch(params, dims, cond, length, make_rng(8), nfe=5)
    return reports, params, opt, (guided.x, multi.x)


@pytest.mark.parametrize("domain", ["ring", "seq"])
@pytest.mark.parametrize("variant", ["FM", "RFM", "MF", "MFD", "VMF", "VMFD"])
def test_training_and_sampling_bitwise_equal_to_composites(variant, domain, monkeypatch):
    data = _ring() if domain == "ring" else _seq()
    rep_f, par_f, opt_f, smp_f = _train_and_sample(variant, data)
    composites.patch_composites(monkeypatch)
    rep_c, par_c, opt_c, smp_c = _train_and_sample(variant, data)
    monkeypatch.undo()

    drop_clock = lambda r: {k: v for k, v in dataclasses.asdict(r).items()
                            if k != "wallclock_ms"}
    assert len(rep_f) == 4
    assert [drop_clock(r) for r in rep_f] == [drop_clock(r) for r in rep_c]
    for k in par_f:
        assert same(par_f[k].data, par_c[k].data), k
        assert same(opt_f.state[k].m, opt_c.state[k].m), k
        assert same(opt_f.state[k].v, opt_c.state[k].v), k
    for a, b in zip(smp_f, smp_c):
        assert same(a, b)


# ---------------------------------------------------------------------------
# the size of the training graph

MAX_NODES_PER_STEP = 110

# the model and training fields of the frozen configs of criteria 7 and 8
# (tests/test_acceptance.py)
C07 = dict(variant="VMF", width=12, heads=2, blocks=2, latent_dim=4, time_freqs=8,
           phi_hidden=32, lr=2e-3, alpha=0.01, batch_size=256)
C08 = dict(variant="VMF", width=24, heads=2, blocks=2, latent_dim=8, time_freqs=8,
           phi_hidden=32, lr=1e-3, batch_size=64, alpha=1.0, p_inference_layout=0.9,
           time_sampling="lognormal", lognorm_mean=1.2, lognorm_std=1.0)


def _graph_nodes(root: Tensor) -> int:
    """Recorded nodes (those with a VJP) reachable from root."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += node._vjp is not None
        stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("name,kw,data", [("c07", C07, _ring), ("c08", C08, _seq)])
def test_training_graph_nodes_per_step(name, kw, data):
    x, c = data()
    cfg = RunConfig(**kw)
    dims = dims_for(cfg, cond_dim=c.shape[2], data_dim=x.shape[2])
    rng = make_rng(0)
    params = init_params(rng, dims)
    counts = []
    for _ in range(12):
        batch = make_flow_batch(x[:16], c[:16], rng, cfg)
        split = split_with_decay(x.shape[1], cfg.decay_factor, rng)
        draws = draw_step_randomness(cfg, dims, 16, rng)
        total, _ = flow_loss(params, dims, cfg, batch, split, draws)
        counts.append(_graph_nodes(total))
    assert max(counts) <= MAX_NODES_PER_STEP, f"{name}: {counts}"
