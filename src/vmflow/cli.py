"""Command-line entry point wiring config, data, training, sampling,
evaluation, mask inspection, and causality analysis into reproducible runs.

Every subcommand is deterministic given its seeds. `train --set/--out` and
`sample --seed/--nfe/--w/--n/--data` are RunConfig overrides, checked by its
rules. Errors are one JSON line on stderr with a stable exit code: 2 unknown
variant, 3 any other error class vmflow defines (a config or invariant
violation), 4 missing file, 1 otherwise.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import (CheckpointError, json_text, load_checkpoint,
                         save_checkpoint, write_files)
from .config import ConfigError, VariantError, load_config, save_config
from .datasets import (DatasetError, SequenceCodec, ToySequenceSpec,
                       load_dataset_jsonl, make_gmm_dataset,
                       make_sequence_dataset, read_jsonl, read_train_log,
                       ring_spec, row_array, save_dataset_jsonl)
from .granger import GrangerError, P_BIN_LABELS, latent_causality_report
from .mask import (GroupSplit, MaskError, build_mask, mask_summary,
                   render_ascii, render_pgm, split_with_decay)
from .metrics import MetricError, conditional_metrics, cosine_sim, paired_cosine
from .optim import Adam
from .rng import make_rng
from .sampling import sample_batch
from .tensor import Tensor, parameter
from .training import dims_for, init_params, train_model

_SAMPLE_SEED_OFFSET = 100003  # keeps the sampling stream off the training one


# ---------------------------------------------------------------------------
# plumbing

def _overrides(pairs: list[str], **flags) -> dict:
    """load_config overrides: `--set` pairs, then the flags given (not None)."""
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw  # bare strings like uniform
    out.update((k, v) for k, v in flags.items() if v is not None)
    return out


def _checkpoint_tensors(params: dict[str, Tensor], opt: Adam,
                        epoch: int) -> dict[str, np.ndarray]:
    """What `vmflow train` checkpoints: parameters, Adam's state, the epoch."""
    return {**{f"param/{k}": p.data for k, p in params.items()}, **opt.state_tensors(),
            "meta/epoch": np.asarray([epoch], dtype=np.float32)}


def _count(tensors: dict[str, np.ndarray], name: str, path) -> int:
    """A checkpoint's counter `name` (0 when absent): one whole number >= 0."""
    val = tensors.get(name, np.zeros(1))
    if val.shape != (1,) or not (float(val[0]).is_integer() and val[0] >= 0):
        raise CheckpointError(f"{path}: {name} must be one whole non-negative number")
    return int(val[0])


def _check_layout(path, got: dict, want: dict):
    if {k: v.shape for k, v in got.items()} != {k: v.shape for k, v in want.items()}:
        raise CheckpointError(f"{path}: tensor names or shapes do not fit the config's model")


def load_params(path) -> tuple[dict[str, Tensor], dict[str, np.ndarray], int]:
    """Checkpoint -> (params, optimizer tensors, epoch). `vmflow sample` takes
    the parameters; bench/ reads all three. `train --resume` reads its own."""
    raw = load_checkpoint(path)
    params = {k[len("param/"):]: parameter(v) for k, v in raw.items()
              if k.startswith("param/")}
    opt_state = {k: v for k, v in raw.items() if k.startswith("adam/")}
    return params, opt_state, _count(raw, "meta/epoch", path)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_train(args) -> int:
    cfg = load_config(args.config, _overrides(args.set or [], out_dir=args.out or None))
    x, c, _ = load_dataset_jsonl(cfg.dataset)

    # every input is checked before the run directory is touched
    params, opt, start_epoch, kept_log = None, None, 0, ""
    out = Path(cfg.out_dir)
    log_path = out / "train.log.jsonl"
    if args.resume:  # a fresh run of the config takes the checkpoint's values
        params = init_params(make_rng(0), dims_for(cfg, c.shape[2], x.shape[2]))
        opt = Adam(params, lr=cfg.lr)
        raw = load_checkpoint(args.resume)
        _check_layout(args.resume, raw, _checkpoint_tensors(params, opt, 0))
        start_epoch = _count(raw, "meta/epoch", args.resume)
        _count(raw, "adam/step", args.resume)
        if cfg.epochs < start_epoch:
            raise ConfigError(f"epochs {cfg.epochs} is below the checkpoint's epoch {start_epoch}")
        for k, p in params.items():
            p.data = raw[f"param/{k}"]
        opt.load_state_tensors(raw)
        # the log keeps its rows up to the checkpoint's step, not a crash's partial row
        kept_log = read_train_log(log_path, opt.step_count) if log_path.exists() else ""

    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    save_config(out / "config.json", cfg)
    write_files({log_path: kept_log})  # the streaming handle below appends to it
    with open(log_path, "a") as log_fh:
        def log_fn(step, rep):
            log_fh.write(json.dumps({"step": step, **dataclasses.asdict(rep)}) + "\n")

        def checkpoint_fn(epoch, cur_params, cur_opt):
            log_fh.flush()  # every row a checkpoint covers is on file before it
            tensors = _checkpoint_tensors(cur_params, cur_opt, epoch)
            save_checkpoint(ckpt_dir / f"epoch_{epoch:04d}.ckpt", tensors)
            save_checkpoint(ckpt_dir / "final.ckpt", tensors)

        params, _, opt = train_model(cfg, x, c, log_fn=log_fn,
                                     checkpoint_fn=checkpoint_fn,
                                     params=params, opt=opt,
                                     start_epoch=start_epoch)
    print(f"trained {cfg.variant} ({opt.step_count} steps) -> {out}")
    return 0


def _decoder_for(meta: list[dict], path):
    """Domain payload decoder from the first dataset row's metadata."""
    head = meta[0] if isinstance(meta[0], dict) else {}
    if head.get("domain") == "sequences":
        sizes = [head.get(k) for k in ("vocab", "length", "dim", "codec_seed")]
        if not all(type(v) is int and v >= 0 for v in sizes):
            raise DatasetError(f"{path}: row 1: sequences meta needs whole numbers "
                               f">= 0 for vocab, length, dim and codec_seed")
        codec = SequenceCodec(*sizes[:3], seed=sizes[3])
        return lambda xi: codec.decode(xi[None])[0].tolist()
    return lambda xi: np.asarray(xi, dtype=float).ravel().tolist()


def _cmd_sample(args) -> int:
    run = Path(args.run)
    cfg = load_config(run / "config.json", _overrides(
        [], seed=args.seed, nfe=args.nfe, guidance_w=args.w, n_samples=args.n,
        dataset=args.data or None))
    x, c, meta = load_dataset_jsonl(cfg.dataset)
    decode = _decoder_for(meta, cfg.dataset)
    ckpt = args.checkpoint or run / "checkpoints" / "final.ckpt"
    params, _, _ = load_params(ckpt)
    dims = dims_for(cfg, cond_dim=c.shape[2], data_dim=x.shape[2])
    _check_layout(ckpt, params, init_params(make_rng(0), dims))

    ids = np.arange(cfg.n_samples) % x.shape[0]
    rng = make_rng(cfg.seed + _SAMPLE_SEED_OFFSET)
    conditional = not args.unconditional
    result = sample_batch(params, dims, c[ids], x.shape[1], rng, nfe=cfg.nfe,
                          guidance_w=cfg.guidance_w, conditional=conditional)

    # an unconditional row ran on the null condition alone, without guidance
    rows = [{"id": i, "condition_id": int(ids[i]) if conditional else None,
             "latent": [float(v) for v in result.x[i].ravel()],
             "latent_shape": list(result.x.shape[1:]),
             "decoded": decode(result.x[i]), "nfe": cfg.nfe,
             "w": cfg.guidance_w if conditional else None, "seed": cfg.seed}
            for i in range(len(ids))]
    out_path = Path(args.out) if args.out else run / "samples.jsonl"
    write_files({out_path: "".join(json.dumps(row) + "\n" for row in rows)})
    print(f"wrote {cfg.n_samples} samples ({result.calls} field evaluations) -> {out_path}")
    return 0


def _features(rows: list[dict], path) -> list[np.ndarray]:
    """Each row's latent (a dataset row's x), flattened."""
    return [row_array(r, "latent" if "latent" in r else "x", path, i, np.float64).ravel()
            for i, r in enumerate(rows, start=1)]


def _cmd_eval(args) -> int:
    gen_rows = read_jsonl(args.samples)
    refs = _features(read_jsonl(args.references), args.references)

    if args.pair == "condition":
        idx = [r.get("condition_id") for r in gen_rows]
        bad = [i for i, j in enumerate(idx) if type(j) is not int or not 0 <= j < len(refs)]
        if bad:
            raise MetricError(f"rows {bad[:5]}: no condition_id in range({len(refs)}); use --pair order")
    else:
        idx = [i % len(refs) for i in range(len(gen_rows))]

    gen = _features(gen_rows, args.samples)
    ref = [refs[j] for j in idx]
    valid = np.array([np.all(np.isfinite(g)) for g in gen])
    report = conditional_metrics(gen, ref, cosine_sim, valid=valid,
                                 sim_thresh=args.sim_thresh,
                                 novel_thresh=args.novel_thresh)

    outputs = {args.out: json_text({**dataclasses.asdict(report), "pair": args.pair})}
    if args.curve:
        f = paired_cosine(np.stack(gen), np.stack(ref))
        lines = ["threshold,similarity,novelty,diversity\n"]
        for th in np.arange(0.05, 1.0, 0.05):
            sim = 100.0 * float(np.mean(f >= th))
            nov = 100.0 * float(np.mean(f < th))
            lines.append(f"{th:.2f},{sim:.4f},{nov:.4f},"
                         f"{report.metrics['diversity']:.4f}\n")
        outputs[args.curve] = "".join(lines)
    write_files(outputs)
    print(f"overall {report.overall:.2f} over {report.n_samples} samples -> {Path(args.out)}")
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
    write_files({f"{prefix}.txt": ascii_grid + "\n", f"{prefix}.pgm": render_pgm(mask),
                 f"{prefix}.json": json_text(mask_summary(mask))})
    print(ascii_grid)
    return 0


def _cmd_granger(args) -> int:
    latents = []  # each reshaped to its latent_shape, as the flat rows of `vmflow sample`
    for i, row in enumerate(read_jsonl(args.latents), start=1):
        latent = row_array(row, "latent", args.latents, i, np.float64)
        try:
            latents.append(np.reshape(latent, row.get("latent_shape", latent.shape)))
        except (TypeError, ValueError) as e:
            raise GrangerError(f"{args.latents}: latent does not fit its "
                               f"latent_shape ({e})") from None
    try:
        arr = np.stack(latents)
    except ValueError as e:
        raise GrangerError(f"{args.latents}: ragged latent arrays ({e})") from None
    report = latent_causality_report(arr, max_lag=args.max_lag)
    outputs = {args.out: json_text(report)}
    if args.csv:
        outputs[args.csv] = "bin,count\n" + "".join(
            f"{label},{report['bins'][label]}\n" for label in P_BIN_LABELS)
    write_files(outputs)
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


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, VariantError):
        return 2
    if type(exc).__module__.split(".")[0] == __package__:  # an error class vmflow defines
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
