"""One workload end to end: set-up, then rounds of training, checkpoint load,
sampling and scoring, then the correctness checks.

The untraced run trains through train_model and measures the end-to-end
metrics; nothing of the benchmark's runs in the timed phases but a timestamp
per training step. The traced run (traced.py) does the same rounds with the
step composed from its parts and spans around every call, then probes the
layers; it reports only per-layer metrics.
"""
from __future__ import annotations

import dataclasses
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import traced
from checks import clone_params, run_checks
from vmflow.checkpoint import save_checkpoint
from vmflow.cli import load_params
from vmflow.metrics import MetricError, conditional_metrics
from vmflow.optim import Adam
from vmflow.rng import make_rng
from vmflow.sampling import SampleError, sample_batch
from vmflow.training import (dims_for, draw_step_randomness, init_params,
                             make_flow_batch, train_model)
from workloads import SAMPLE_SEED_OFFSET, SampleMode, make_data, run_config

# sampling modes every run checks against direct theta_forward calls,
# besides the workload's own
CHECKED_MODES = (SampleMode(1, 1.0, True), SampleMode(1, 1.5, True),
                 SampleMode(5, 1.0, False))


@dataclass
class Context:
    """What the checks need from a finished run."""
    workload: object
    cfg: object
    data: object
    dims: object
    seed: int
    params: dict
    init_params: dict
    opt: Adam
    reloaded: dict = None
    ckpt_path: object = None
    ckpt_tensors: dict = None
    scratch_path: object = None
    scored: tuple = None
    eval_metrics: dict = None
    ring_x: np.ndarray = None
    ring_eps: np.ndarray = None
    all_modes: tuple = ()
    composed_step: object = traced.composed_step
    losses: list = field(default_factory=list)
    info: list = field(default_factory=list)


@dataclass
class Tally:
    """Counts and wall times summed over the rounds."""
    step_gaps_ms: list = field(default_factory=list)
    steps: int = 0
    train_s: float = 0.0
    sample_s: float = 0.0
    samples: int = 0
    calls: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    failed: int = 0


def checkpoint_tensors(params, opt, epoch) -> dict:
    """What `vmflow train` writes: parameters, Adam state, the epoch."""
    tensors = {f"param/{k}": p.data for k, p in params.items()}
    tensors.update(opt.state_tensors())
    tensors["meta/epoch"] = np.asarray([epoch], dtype=np.float32)
    return tensors


def make_checkpoint_fn(ckpt_dir, saved: dict):
    """The CLI's checkpoint_fn: an epoch file and final.ckpt, same bytes."""
    def checkpoint_fn(epoch, params, opt):
        tensors = checkpoint_tensors(params, opt, epoch)
        save_checkpoint(ckpt_dir / f"epoch_{epoch:04d}.ckpt", tensors)
        save_checkpoint(ckpt_dir / "final.ckpt", tensors)
        saved["tensors"] = tensors
    return checkpoint_fn


def scored_set(w, data, conditional_results):
    """The newest conditional samples, each paired with the reference row of
    its condition, as `vmflow eval --pair condition` pairs them."""
    gen, ref = [], []
    for res in reversed(conditional_results):
        b = res.x.shape[0]
        gen.append(res.x.reshape(b, -1))
        ref.append(data.ref[:b].reshape(b, -1))
        if sum(len(g) for g in gen) >= w.score_n:
            break
    gen = np.concatenate(gen)[:w.score_n].astype(np.float64)
    ref = np.concatenate(ref)[:w.score_n].astype(np.float64)
    valid = np.all(np.isfinite(gen), axis=1)
    return list(gen), list(ref), valid


def run(w, seed: int, seconds: float, trace: bool, run_dir, *, setup_origin,
        import_ms: float) -> dict:
    t_gen = time.perf_counter()
    data = make_data(w, seed)
    generate_ms = (time.perf_counter() - t_gen) * 1e3
    plan = w.plan(seconds)
    cfg = run_config(w, seed, plan["epochs"])
    dims = dims_for(cfg, cond_dim=data.c.shape[2], data_dim=data.x.shape[2])
    # what train_model would draw itself; passing them in lets set-up end
    # at the first step
    params = init_params(make_rng(cfg.seed), dims)
    opt = Adam(params, lr=cfg.lr)
    ctx = Context(workload=w, cfg=cfg, data=data, dims=dims, seed=seed,
                  params=params, init_params=clone_params(params), opt=opt)
    ckpt_dir = run_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    saved: dict = {}
    checkpoint_fn = make_checkpoint_fn(ckpt_dir, saved)
    tracer = traced.Tracer() if trace else None
    record = {"losses": [], "ops": [], "tangents": [], "splits": []}
    t_origin, pre_start = setup_origin
    setup_s = pre_start + time.perf_counter() - t_origin

    tally = _rounds(w, ctx, plan, checkpoint_fn, ckpt_dir, tracer, record)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = tally.steps + plan["sample_batches"] + plan["eval_calls"]
    if trace:
        metrics = _per_layer(w, ctx, tracer, record, ckpt_dir, import_ms, generate_ms)
        metrics["sampling.calls_per_batch"] = float(np.mean(tally.calls))
        out = {"trace": tracer.dump()}
    else:
        metrics = {"setup_s": setup_s,
                   "train_steps_per_s": tally.steps / tally.train_s,
                   "train_step_ms_p50": float(np.percentile(tally.step_gaps_ms, 50)),
                   "train_step_ms_p90": float(np.percentile(tally.step_gaps_ms, 90)),
                   "sample_per_s": tally.samples / tally.sample_s,
                   "eval_per_s": w.score_n / float(np.median(tally.eval_s)),
                   "peak_rss_mb": rss_mb}
        out = {}

    ctx.losses = record["losses"]
    ctx.ckpt_path = ckpt_dir / "final.ckpt"
    ctx.ckpt_tensors = saved["tensors"]
    ctx.scratch_path = run_dir / "roundtrip.ckpt"
    ctx.all_modes = tuple(dict.fromkeys(CHECKED_MODES + w.modes))
    out.update(metrics=metrics, failed=tally.failed, attempted=attempted,
               checks=run_checks(ctx), plan=plan, info=ctx.info)
    return out


def _rounds(w, ctx, plan, checkpoint_fn, ckpt_dir, tracer, record) -> Tally:
    tally = Tally()
    span = tracer.span if tracer else (lambda name: nullcontext())
    sample_rng = make_rng(ctx.seed + SAMPLE_SEED_OFFSET)  # as `vmflow sample` seeds it
    cond = ctx.data.cond[:w.sample_batch]
    sample_len = ctx.data.x.shape[1]
    conditional = []
    for k in range(plan["rounds"]):
        start = k * w.epochs_per_round
        cfg = dataclasses.replace(ctx.cfg, epochs=start + w.epochs_per_round)

        t0 = time.perf_counter()
        if tracer:
            traced.traced_train(tracer, cfg, ctx.dims, ctx.data, ctx.params, ctx.opt,
                                checkpoint_fn, start, record)
        else:
            stamps = []

            def log_fn(step, report):
                stamps.append(time.perf_counter())
                record["losses"].append(report.total)

            train_model(cfg, ctx.data.x, ctx.data.c, log_fn=log_fn,
                        checkpoint_fn=checkpoint_fn, params=ctx.params, opt=ctx.opt,
                        start_epoch=start)
            tally.step_gaps_ms.extend(np.diff(stamps) * 1e3)
        tally.train_s += time.perf_counter() - t0

        t0 = time.perf_counter()
        with span("checkpoint.load"):
            ctx.reloaded, _, _ = load_params(ckpt_dir / "final.ckpt")
        for i in range(w.batches_per_round):
            mode = w.modes[i % len(w.modes)]
            try:
                with span("sampling.batch"):
                    res = sample_batch(ctx.reloaded, ctx.dims, cond, sample_len,
                                       sample_rng, nfe=mode.nfe,
                                       guidance_w=mode.guidance_w,
                                       conditional=mode.conditional)
            except SampleError:
                tally.failed += 1
                continue
            tally.calls.append(res.calls)
            tally.samples += res.x.shape[0]
            if mode.conditional:
                conditional = conditional[-8:] + [res]
        tally.sample_s += time.perf_counter() - t0

        if (k + 1) % w.eval_every:
            continue
        ctx.scored = scored_set(w, ctx.data, conditional)
        gen, ref, valid = ctx.scored
        t0 = time.perf_counter()
        try:
            if tracer:
                report, record["sim_calls"] = traced.counted_metrics(tracer, gen, ref, valid)
            else:
                report = conditional_metrics(gen, ref, valid=valid)
        except MetricError:
            tally.failed += 1
            continue
        tally.eval_s.append(time.perf_counter() - t0)
        ctx.eval_metrics = report.metrics
    tally.steps = len(record["losses"])
    ctx.ring_x, ctx.ring_eps = conditional[-1].x, conditional[-1].eps
    return tally


def _per_layer(w, ctx, tracer, record, ckpt_dir, import_ms, generate_ms) -> dict:
    cfg, dims, data = ctx.cfg, ctx.dims, ctx.data
    rng = make_rng(ctx.seed + 29)
    bsz = min(cfg.batch_size, len(data.x))
    batch = make_flow_batch(data.x[:bsz], data.c[:bsz], rng, cfg)
    draws = draw_step_randomness(cfg, dims, bsz, rng)
    traced.layer_probes(tracer, ctx.params, dims, batch, draws)
    traced.mask_probe(tracer, record["splits"], data.x.shape[1], data.c.shape[1],
                      dims.latent_tokens)
    nodes_per_call = traced.sampling_probes(tracer, ctx.reloaded, dims,
                                            data.cond[:w.sample_batch], data.x.shape[1])
    metrics = {f"{name}_ms": tracer.median_ms(name) for name in traced.TIMED}
    metrics.update(traced.count_metrics(record["ops"], record["tangents"]))
    metrics.update({
        "tensor.step_alloc_peak_mb": traced.step_alloc_peak_mb(
            ctx.params, dims, cfg, data, ctx.opt, ctx.seed),
        "checkpoint.bytes": float((ckpt_dir / "final.ckpt").stat().st_size),
        "sampling.nodes_per_call": nodes_per_call,
        "metrics.sim_calls": float(record["sim_calls"]),
        "datasets.generate_ms": generate_ms,
        "vmflow.import_ms": import_ms,
    })
    return metrics
