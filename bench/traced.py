"""The traced run: spans around calls into each module, from the benchmark's side.

train_step cannot be split from outside, so the traced run composes the same
step from draw_step_randomness, flow_loss, T.backward and Adam.step (checks
prove the composition bitwise equal to train_step). Layers that only run
inside theta_forward or flow_loss (layer norm, linear, gelu, softmax, the
time embedding, the encoder) are timed by calling them directly at the
shapes the workload gives them, with tangents as in training. Spans live
in memory and are written out once, at the end of the run.
"""
from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from checks import clone_adam, clone_params
from vmflow import tensor as T
from vmflow.encoder import phi_forward
from vmflow.mask import GroupSplit, build_mask, single_group_mask, split_with_decay
from vmflow.metrics import conditional_metrics, cosine_sim
from vmflow.model import embed_time, theta_forward
from vmflow.rng import make_rng, normal_f32
from vmflow.sampling import ModelField
from vmflow.tensor import Tensor
from vmflow.training import (StepAbortError, draw_step_randomness, flow_loss,
                             kl_loss, make_flow_batch, mean_flow_target)

F32 = np.float32

OPS = ("mul", "add", "sub", "div", "matmul", "transpose", "reshape", "getitem",
       "concat", "tsum", "exp", "log", "sqrt", "tanh", "sin", "cos", "clip",
       "masked_fill")
PROBE_REPEATS = 20


class Tracer:
    """Spans as [name, start, end, parent index]; times from perf_counter."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def ms(self, name: str) -> list[float]:
        return [(e - s) * 1e3 for n, s, e, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        return float(np.median(self.ms(name)))

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        own = [(e - s) * 1e3 for _, s, e, _ in self.spans]
        for _, s, e, parent in self.spans:
            if parent >= 0:
                own[parent] -= (e - s) * 1e3
        out: dict[str, float] = {}
        for (name, *_), v in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + v
        return out

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"spans": [{"name": n, "start_ms": (s - t0) * 1e3,
                           "end_ms": (e - t0) * 1e3, "parent": p}
                          for n, s, e, p in self.spans],
                "self_ms": self.self_ms()}


# ---------------------------------------------------------------------------
# the composed training step

def step_from_draws(params, dims, cfg, batch, split, draws, opt, tracer):
    """train_step after its draws, with a span around each part."""
    with tracer.span("training.flow_loss"):
        total, report = flow_loss(params, dims, cfg, batch, split, draws)
    if not np.isfinite(report.total):
        raise StepAbortError({"l2": report.l2, "kl": report.kl,
                              "dispersive": report.dispersive,
                              "t_mean": report.t_mean, "r_mean": report.r_mean})
    with tracer.span("tensor.backward"):
        T.backward(total)
    with tracer.span("optim.adam"):
        opt.step()
        opt.zero_grad()
    return total, report


def composed_step(params, dims, cfg, batch, split, opt, rng, tracer=None):
    """train_step's contract, built from the public pieces."""
    tracer = tracer or Tracer()
    t0 = time.perf_counter()
    draws = draw_step_randomness(cfg, dims, batch.x.shape[0], rng)
    _, report = step_from_draws(params, dims, cfg, batch, split, draws, opt, tracer)
    report.wallclock_ms = (time.perf_counter() - t0) * 1e3
    return report


def graph_ops(root: Tensor) -> tuple[dict[str, int], int]:
    """Count recorded nodes by op (the name of each node's VJP closure) by
    walking _parents from root; also count those that carry a tangent."""
    counts: dict[str, int] = {}
    tangents = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            op = node._vjp.__qualname__.split(".")[0].lstrip("_")
            counts[op] = counts.get(op, 0) + 1
            tangents += node.tangent is not None
        stack.extend(node._parents)
    return counts, tangents


# ---------------------------------------------------------------------------
# layer probes at the workload's shapes

def _probe(tracer, name, fn, repeats=PROBE_REPEATS):
    fn()
    for _ in range(repeats):
        with tracer.span(name):
            fn()


def _probe_backward(tracer, name, build, repeats=PROBE_REPEATS):
    """Time T.backward from sum(out * cotangent) over a fresh graph each time."""
    out = build()
    cot = Tensor(normal_f32(make_rng(5), out.shape))
    for i in range(repeats + 1):
        loss = T.tsum(build() * cot)
        if i == 0:
            T.backward(loss)
            continue
        with tracer.span(name):
            T.backward(loss)


def _leaf(rng, shape):
    """A leaf that takes gradients and carries a tangent, as in training."""
    return Tensor(normal_f32(rng, shape), tangent=normal_f32(rng, shape),
                  requires_grad=True)


def layer_probes(tracer, params, dims, batch, draws):
    """Forward (with tangents) and backward of each layer at training shapes,
    on the inference layout, which most steps use."""
    rng = make_rng(11)
    bsz, sample_len, _ = batch.x.shape
    cond_len = batch.c.shape[1]
    split = GroupSplit((sample_len,))
    mask = build_mask(sample_len, cond_len, dims.latent_tokens, split)
    seq, w = mask.seq_len, dims.width
    blk = "theta/blk0"

    x = _leaf(rng, (bsz, seq, w))
    g, b = params[f"{blk}/ln1/g"], params[f"{blk}/ln1/b"]
    _probe(tracer, "tensor.layer_norm", lambda: T.layer_norm(x, g, b))
    _probe_backward(tracer, "tensor.layer_norm_backward", lambda: T.layer_norm(x, g, b))
    w1, b1 = params[f"{blk}/mlp/w1"], params[f"{blk}/mlp/b1"]
    _probe(tracer, "tensor.linear", lambda: T.linear(x, w1, b1))
    _probe_backward(tracer, "tensor.linear_backward", lambda: T.linear(x, w1, b1))
    hid = _leaf(rng, (bsz, seq, 4 * w))
    _probe(tracer, "tensor.gelu", lambda: T.gelu(hid))
    _probe_backward(tracer, "tensor.gelu_backward", lambda: T.gelu(hid))
    scores = _leaf(rng, (bsz, dims.heads, seq, seq))
    scores.data = np.where(mask.blocked, F32(-1e9), scores.data)  # as _attention fills
    _probe(tracer, "tensor.softmax", lambda: T.softmax(scores, axis=-1))
    _probe_backward(tracer, "tensor.softmax_backward", lambda: T.softmax(scores, axis=-1))

    t = Tensor(batch.t, tangent=np.ones_like(batch.t))
    r = Tensor(batch.r)
    _probe(tracer, "model.embed_time", lambda: embed_time(t, r, params, dims))

    c = Tensor(batch.c)
    h_tok = Tensor(normal_f32(rng, (bsz, 1, dims.latent_dim)))
    ones = np.ones_like(batch.t)

    def theta():
        outs, _ = T.jvp(lambda z_, r_, t_: theta_forward(params, dims, c, h_tok, None,
                                                         z_, mask, t_, r_),
                        (batch.z, batch.r, batch.t), (batch.v, None, ones))
        return outs

    _probe(tracer, "model.theta_forward", theta)
    _probe_backward(tracer, "model.theta_backward", theta)

    def phi():
        outs, _ = T.jvp(lambda z_, r_, t_: phi_forward(
            params, dims, c, batch.eps, batch.x, z_, r_, t_, noise=draws.reparam).h,
            (batch.z, batch.r, batch.t), (batch.v, None, ones))
        return outs

    _probe(tracer, "encoder.phi_forward", phi)
    _probe_backward(tracer, "encoder.phi_backward", phi)
    mu = _leaf(rng, (bsz, dims.latent_dim))
    log_var = _leaf(rng, (bsz, dims.latent_dim))
    _probe(tracer, "training.kl_loss", lambda: kl_loss(mu, log_var))

    u_dot = normal_f32(rng, batch.x.shape)
    _probe(tracer, "training.mean_flow_target",
           lambda: mean_flow_target(batch.v, batch.t, batch.r, u_dot))
    T.zero_grad(params)  # the backward probes accumulated into the parameters


def step_alloc_peak_mb(params, dims, cfg, data, opt, seed, steps=3) -> float:
    """Peak traced numpy allocation over one step, on copies, untimed."""
    work = clone_params(params)
    work_opt = clone_adam(opt, work)
    rng = make_rng(seed + 17)
    bsz = min(cfg.batch_size, len(data.x))
    peak = 0
    tracemalloc.start()
    try:
        for _ in range(steps):
            batch = make_flow_batch(data.x[:bsz], data.c[:bsz], rng, cfg)
            split = split_with_decay(data.x.shape[1], cfg.decay_factor, rng)
            tracemalloc.reset_peak()
            composed_step(work, dims, cfg, batch, split, work_opt, rng)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


# ---------------------------------------------------------------------------
# the traced pipeline

def traced_train(tracer, cfg, dims, data, params, opt, checkpoint_fn, start_epoch,
                 record):
    """train_model's loop from start_epoch to cfg.epochs (same rng stream,
    batching and checkpoint schedule), with the step composed from its
    parts. Appends each step's loss, graph counts and split to `record`."""
    rng = make_rng(cfg.seed + start_epoch)
    n, sample_len = data.x.shape[0], data.x.shape[1]
    batches_per_epoch = max(1, n // cfg.batch_size)
    saved_at = -1
    for epoch in range(start_epoch, cfg.epochs):
        perm = rng.permutation(n)
        for chunk in np.array_split(perm, batches_per_epoch):
            with tracer.span("training.step"):
                with tracer.span("training.batch"):
                    with tracer.span("training.make_flow_batch"):
                        batch = make_flow_batch(data.x[chunk], data.c[chunk], rng, cfg)
                    with tracer.span("mask.split"):
                        split = split_with_decay(sample_len, cfg.decay_factor, rng)
                    with tracer.span("training.draw_step_randomness"):
                        draws = draw_step_randomness(cfg, dims, len(chunk), rng)
                total, report = step_from_draws(params, dims, cfg, batch, split,
                                                draws, opt, tracer)
            ops, tangents = graph_ops(total)
            record["losses"].append(report.total)
            record["ops"].append(ops)
            record["tangents"].append(tangents)
            record["splits"].append(split)
        if (epoch + 1) % cfg.checkpoint_every == 0:
            with tracer.span("checkpoint.save"):
                checkpoint_fn(epoch + 1, params, opt)
            saved_at = epoch + 1
    if saved_at != cfg.epochs:
        with tracer.span("checkpoint.save"):
            checkpoint_fn(cfg.epochs, params, opt)


TIMED = ("training.batch", "training.flow_loss", "training.kl_loss",
         "training.mean_flow_target", "training.step", "tensor.backward",
         "tensor.layer_norm", "tensor.layer_norm_backward", "tensor.linear",
         "tensor.linear_backward", "tensor.gelu", "tensor.gelu_backward",
         "tensor.softmax", "tensor.softmax_backward", "model.embed_time",
         "model.theta_forward", "model.theta_backward", "encoder.phi_forward",
         "encoder.phi_backward", "optim.adam", "mask.split", "mask.build_mask",
         "checkpoint.save", "checkpoint.load", "sampling.model_call",
         "metrics.conditional")


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    return "bytes" if metric.endswith(".bytes") else "count"


def count_metrics(counts, tangents) -> dict[str, float]:
    """Graph nodes per step, in total, by op and with a tangent."""
    steps = len(counts)
    m = {"tensor.nodes_per_step": sum(sum(c.values()) for c in counts) / steps}
    for op in OPS:
        m[f"tensor.nodes_per_step.{op}"] = sum(c.get(op, 0) for c in counts) / steps
    m["tensor.tangent_nodes_per_step"] = sum(tangents) / steps
    return m


def mask_probe(tracer, splits, sample_len, cond_len, latent_tokens):
    for split in splits[:PROBE_REPEATS * 5]:
        with tracer.span("mask.build_mask"):
            build_mask(sample_len, cond_len, latent_tokens, split)


def sampling_probes(tracer, params, dims, cond, sample_len) -> float:
    """Time one ModelField call at the sampling batch size; return the
    number of graph nodes the same call records."""
    rng = make_rng(23)
    b = cond.shape[0]
    h = normal_f32(rng, (b, 1, dims.latent_dim))
    z = normal_f32(rng, (b, sample_len, dims.data_dim))
    r, t = np.zeros(b, dtype=F32), np.ones(b, dtype=F32)
    field = ModelField(params, dims, h=h)
    _probe(tracer, "sampling.model_call", lambda: field(cond, z, r, t))
    mask = single_group_mask(sample_len, cond.shape[1], dims.latent_tokens)
    u = theta_forward(params, dims, Tensor(cond), Tensor(h), None, Tensor(z), mask, t, r)
    return float(sum(graph_ops(u)[0].values()))


def counted_metrics(tracer, gen, ref, valid):
    """conditional_metrics under a span, with a sim_fn that counts its calls."""
    calls = 0

    def sim(a, b):
        nonlocal calls
        calls += 1
        return cosine_sim(a, b)

    with tracer.span("metrics.conditional"):
        report = conditional_metrics(gen, ref, sim, valid=valid)
    return report, calls
