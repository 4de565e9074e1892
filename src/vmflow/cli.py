"""Command-line entry point wiring config, data, training, sampling,
evaluation, mask inspection, and causality analysis into reproducible runs.

Every subcommand is deterministic given its seeds; errors surface as a
one-line JSON object on stderr with a stable exit code: 2 for an unknown
variant, 3 for config or invariant violations, 4 for missing files, 1
otherwise. The VMFLOW_SEED environment variable overrides the config seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (ConfigError, RunConfig, VariantError, load_config,
                     save_config)
from .datasets import (DatasetError, SequenceCodec, ToySequenceSpec,
                       load_dataset_jsonl, make_gmm_dataset,
                       make_sequence_dataset, read_jsonl, ring_spec,
                       save_dataset_jsonl)
from .granger import GrangerError, P_BIN_LABELS, latent_causality_report
from .mask import (GroupSplit, MaskError, build_mask, mask_summary,
                   render_ascii, render_pgm, split_with_decay)
from .metrics import MetricError, conditional_metrics, cosine_sim, paired_cosine
from .optim import Adam, NonFiniteGradError
from .rng import make_rng
from .sampling import SampleError, sample_batch
from .tensor import ShapeError, Tensor, parameter
from .training import TrainError, dims_for, train_model

_SAMPLE_SEED_OFFSET = 100003  # keeps the sampling stream off the training one


# ---------------------------------------------------------------------------
# plumbing

def _apply_env_seed(cfg: RunConfig):
    env = os.environ.get("VMFLOW_SEED")
    if env is not None:
        try:
            cfg.seed = int(env)
        except ValueError:
            raise ConfigError(f"VMFLOW_SEED must be an integer, got {env!r}")


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw  # bare strings like uniform
    return out


def _checkpoint_tensors(params: dict[str, Tensor], opt: Adam,
                        epoch: int) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {f"param/{k}": p.data for k, p in params.items()}
    tensors.update(opt.state_tensors())
    tensors["meta/epoch"] = np.asarray([epoch], dtype=np.float32)
    return tensors


def load_params(path) -> tuple[dict[str, Tensor], dict[str, np.ndarray], int]:
    """Checkpoint -> (params, optimizer tensors, epoch). The parameters take
    gradients, so a resumed run trains them; sampling detaches them."""
    raw = load_checkpoint(path)
    params = {k[len("param/"):]: parameter(v) for k, v in raw.items()
              if k.startswith("param/")}
    if not params:
        raise CheckpointError(f"{path}: no parameters in checkpoint")
    opt_state = {k: v for k, v in raw.items() if k.startswith("adam/")}
    epoch = int(raw["meta/epoch"][0]) if "meta/epoch" in raw else 0
    return params, opt_state, epoch


# ---------------------------------------------------------------------------
# subcommands

def _cmd_train(args) -> int:
    overrides = _parse_overrides(args.set or [])
    for key in ("seed", "epochs", "lr", "variant"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    cfg = load_config(args.config, overrides)
    _apply_env_seed(cfg)
    if args.out:
        cfg.out_dir = args.out
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)

    x, c, _ = load_dataset_jsonl(cfg.dataset)
    save_config(out / "config.json", cfg)

    params, opt, start_epoch = None, None, 0
    if args.resume:
        params, opt_state, start_epoch = load_params(args.resume)
        opt = Adam(params, lr=cfg.lr)
        opt.load_state_tensors(opt_state)

    # a resumed run continues the log of the run it resumes
    with open(out / "train.log.jsonl", "a" if args.resume else "w") as log_fh:
        def log_fn(step, rep):
            row = {"step": step, "l2": rep.l2, "kl": rep.kl,
                   "dispersive": rep.dispersive, "total": rep.total,
                   "t_mean": rep.t_mean, "r_mean": rep.r_mean,
                   "wallclock_ms": rep.wallclock_ms}
            log_fh.write(json.dumps(row) + "\n")

        def checkpoint_fn(epoch, cur_params, cur_opt):
            tensors = _checkpoint_tensors(cur_params, cur_opt, epoch)
            save_checkpoint(ckpt_dir / f"epoch_{epoch:04d}.ckpt", tensors)
            save_checkpoint(ckpt_dir / "final.ckpt", tensors)

        params, _, opt = train_model(cfg, x, c, log_fn=log_fn,
                                     checkpoint_fn=checkpoint_fn,
                                     params=params, opt=opt,
                                     start_epoch=start_epoch)
    print(f"trained {cfg.variant} ({opt.step_count} steps) -> {out}")
    return 0


def _decoder_for(meta: list[dict]):
    """Domain payload decoder from dataset row metadata."""
    head = meta[0] if meta else {}
    if head.get("domain") == "sequences":
        codec = SequenceCodec(head["vocab"], head["length"], head["dim"],
                              seed=head["codec_seed"])
        return lambda xi: codec.decode(xi[None])[0].tolist()
    return lambda xi: np.asarray(xi, dtype=float).ravel().tolist()


def _cmd_sample(args) -> int:
    run = Path(args.run)
    cfg = load_config(run / "config.json")
    _apply_env_seed(cfg)
    if args.seed is not None:
        cfg.seed = args.seed
    nfe = args.nfe if args.nfe is not None else cfg.nfe
    w = args.w if args.w is not None else cfg.guidance_w
    n = args.n if args.n is not None else cfg.n_samples
    if n < 1:
        raise SampleError(f"--n must be >= 1, got {n}")

    data_path = args.data or cfg.dataset
    x, c, meta = load_dataset_jsonl(data_path)
    ckpt = args.checkpoint or run / "checkpoints" / "final.ckpt"
    params, _, _ = load_params(ckpt)
    dims = dims_for(cfg, cond_dim=c.shape[2], data_dim=x.shape[2])

    ids = np.arange(n) % x.shape[0]
    rng = make_rng(cfg.seed + _SAMPLE_SEED_OFFSET)
    result = sample_batch(params, dims, c[ids], x.shape[1], rng, nfe=nfe,
                          guidance_w=w, conditional=not args.unconditional)
    decode = _decoder_for(meta)

    out_path = Path(args.out) if args.out else run / "samples.jsonl"
    with open(out_path, "w") as fh:
        for i in range(n):
            row = {"id": i, "condition_id": int(ids[i]),
                   "latent": [float(v) for v in result.x[i].ravel()],
                   "decoded": decode(result.x[i]),
                   "nfe": nfe, "w": w, "seed": cfg.seed}
            fh.write(json.dumps(row) + "\n")
    print(f"wrote {n} samples ({result.calls} field evaluations) -> {out_path}")
    return 0


def _row_features(row: dict, path) -> np.ndarray:
    payload = row.get("latent", row.get("x"))
    if payload is None:
        raise MetricError(f"{path}: row has neither 'latent' nor 'x'")
    return np.asarray(payload, dtype=np.float64).ravel()


def _cmd_eval(args) -> int:
    gen_rows = read_jsonl(args.samples)
    ref_rows = read_jsonl(args.references)
    refs = [_row_features(r, args.references) for r in ref_rows]

    if args.pair == "condition":
        missing = [i for i, r in enumerate(gen_rows) if "condition_id" not in r]
        if missing:
            raise MetricError(f"rows {missing[:5]} lack condition_id; use --pair order")
        idx = [int(r["condition_id"]) % len(refs) for r in gen_rows]
    else:
        idx = [i % len(refs) for i in range(len(gen_rows))]

    gen = [_row_features(r, args.samples) for r in gen_rows]
    ref = [refs[j] for j in idx]
    valid = np.array([np.all(np.isfinite(g)) for g in gen])
    report = conditional_metrics(gen, ref, cosine_sim, valid=valid,
                                 sim_thresh=args.sim_thresh,
                                 novel_thresh=args.novel_thresh)

    out_path = Path(args.out)
    with open(out_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.curve:
        f = paired_cosine(np.stack(gen), np.stack(ref))
        with open(args.curve, "w") as fh:
            fh.write("threshold,similarity,novelty,diversity\n")
            for th in np.arange(0.05, 1.0, 0.05):
                sim = 100.0 * float(np.mean(f >= th))
                nov = 100.0 * float(np.mean(f < th))
                fh.write(f"{th:.2f},{sim:.4f},{nov:.4f},"
                         f"{report.metrics['diversity']:.4f}\n")
    print(f"overall {report.overall:.2f} over {report.n_samples} samples -> {out_path}")
    return 0


def _cmd_mask(args) -> int:
    if args.split:
        try:
            sizes = tuple(int(s) for s in args.split.split(","))
        except ValueError:
            raise MaskError(f"--split expects comma-separated integers, "
                            f"got {args.split!r}") from None
        split = GroupSplit(sizes)
    else:
        split = split_with_decay(args.sample_len, args.decay, make_rng(args.seed))
    mask = build_mask(args.sample_len, args.cond_len, args.latent_len, split)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    ascii_grid = render_ascii(mask)
    with open(f"{prefix}.txt", "w") as fh:
        fh.write(ascii_grid + "\n")
    with open(f"{prefix}.pgm", "w") as fh:
        fh.write(render_pgm(mask))
    with open(f"{prefix}.json", "w") as fh:
        json.dump(mask_summary(mask), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(ascii_grid)
    return 0


def _cmd_granger(args) -> int:
    rows = read_jsonl(args.latents)
    payload = [row.get("latent") for row in rows]
    if any(p is None for p in payload):
        raise GrangerError(f"{args.latents}: every row needs a 'latent' field")
    try:
        arr = np.asarray(payload, dtype=np.float64)
    except ValueError as e:
        raise GrangerError(f"{args.latents}: ragged latent arrays ({e})")
    report = latent_causality_report(arr, max_lag=args.max_lag)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("bin,count\n")
            for label in P_BIN_LABELS:
                fh.write(f"{label},{report['bins'][label]}\n")
    print(json.dumps(report["bins"]))
    return 0


def _cmd_gen_data(args) -> int:
    if args.domain == "ring":
        spec = ring_spec(n_modes=args.n_modes, radius=args.radius,
                         scale=args.scale, samples_per_mode=args.samples_per_mode,
                         seed=args.seed, shared_label=not args.per_mode_labels,
                         cond_dim=args.cond_dim)
        data = make_gmm_dataset(spec)
        meta = [{"domain": "ring", "mode": int(m), "label": int(l)}
                for m, l in zip(data.mode_ids, data.labels)]
        save_dataset_jsonl(args.out, data.x, data.c, meta)
    else:
        spec = ToySequenceSpec(vocab=args.vocab, length=args.length,
                               dim=args.dim, n_sequences=args.n_sequences,
                               dominance=args.dominance, seed=args.seed,
                               scale=args.feature_scale)
        data = make_sequence_dataset(spec)
        meta = [{"domain": "sequences", "theme": int(t),
                 "tokens": data.tokens[i].tolist(), "vocab": spec.vocab,
                 "length": spec.length, "dim": spec.dim,
                 "codec_seed": spec.seed + 1}
                for i, t in enumerate(data.themes)]
        save_dataset_jsonl(args.out, data.x, data.c, meta)
    print(f"wrote {data.x.shape[0]} rows -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vmflow",
                                description="mean-flow training and analysis")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--out", help="run directory (overrides config out_dir)")
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--variant")
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config field")
    t.set_defaults(fn=_cmd_train)

    s = sub.add_parser("sample", help="draw samples from a trained run")
    s.add_argument("--run", required=True, help="run directory from train")
    s.add_argument("--nfe", type=int)
    s.add_argument("--w", type=float, help="guidance weight")
    s.add_argument("--n", type=int, help="number of samples")
    s.add_argument("--seed", type=int)
    s.add_argument("--data", help="conditions source (defaults to config dataset)")
    s.add_argument("--checkpoint", help="explicit checkpoint path")
    s.add_argument("--out", help="output JSONL (default run/samples.jsonl)")
    s.add_argument("--unconditional", action="store_true")
    s.set_defaults(fn=_cmd_sample)

    e = sub.add_parser("eval", help="score samples against references")
    e.add_argument("--samples", required=True)
    e.add_argument("--references", required=True)
    e.add_argument("--out", required=True, help="metrics JSON path")
    e.add_argument("--curve", help="optional threshold-sweep CSV")
    e.add_argument("--pair", choices=("condition", "order"), default="condition")
    e.add_argument("--sim-thresh", type=float, default=0.5)
    e.add_argument("--novel-thresh", type=float, default=0.8)
    e.set_defaults(fn=_cmd_eval)

    m = sub.add_parser("mask", help="dump an attention mask")
    m.add_argument("--sample-len", type=int, required=True)
    m.add_argument("--cond-len", type=int, required=True)
    m.add_argument("--latent-len", type=int, required=True)
    m.add_argument("--split", help="comma-separated group sizes, e.g. 9,1")
    m.add_argument("--decay", type=float, default=0.9)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default="mask", help="output file prefix")
    m.set_defaults(fn=_cmd_mask)

    g = sub.add_parser("granger", help="causality report over latent series")
    g.add_argument("--latents", required=True, help="JSONL with latent arrays")
    g.add_argument("--max-lag", type=int, default=1)
    g.add_argument("--out", required=True, help="histogram JSON path")
    g.add_argument("--csv", help="optional bar-chart CSV")
    g.set_defaults(fn=_cmd_granger)

    d = sub.add_parser("gen-data", help="write a synthetic dataset")
    d.add_argument("--domain", choices=("ring", "sequences"), required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--cond-dim", type=int, default=4)
    d.add_argument("--n-modes", type=int, default=8)
    d.add_argument("--radius", type=float, default=5.0)
    d.add_argument("--scale", type=float, default=0.1)
    d.add_argument("--samples-per-mode", type=int, default=500)
    d.add_argument("--per-mode-labels", action="store_true",
                   help="one label per mode instead of a shared label")
    d.add_argument("--vocab", type=int, default=6)
    d.add_argument("--length", type=int, default=4)
    d.add_argument("--dim", type=int, default=8)
    d.add_argument("--n-sequences", type=int, default=2000)
    d.add_argument("--dominance", type=float, default=0.6)
    d.add_argument("--feature-scale", type=float, default=1.0,
                   help="sequence feature magnitude (decode is scale-free)")
    d.set_defaults(fn=_cmd_gen_data)
    return p


_INVARIANT_ERRORS = (ConfigError, MaskError, TrainError, SampleError,
                     DatasetError, MetricError, GrangerError,
                     CheckpointError, NonFiniteGradError, ShapeError)


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, VariantError):
        return 2
    if isinstance(exc, _INVARIANT_ERRORS):
        return 3
    if isinstance(exc, (FileNotFoundError, IsADirectoryError, NotADirectoryError)):
        return 4
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:   # every failure exits through one JSON funnel
        code = _exit_code(exc)
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
