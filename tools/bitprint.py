"""Print SHA-256 fingerprints of training, checkpoint and sampling outputs.

    python3 tools/bitprint.py > bits.txt

Trains each of the six variants for 3 epochs at seed 5 on the benchmark's
`ring` and `seq` configs and data (imported from bench/workloads.py), then
draws five sample sets from the trained parameters. It prints one
`<workload>/<variant>/<kind> <sha256>` line per artifact, 96 in all:

- `params`: every parameter with its Adam moments, and the step count;
- `losses`: the per-step loss reports with their steps, minus `wallclock_ms`;
- `checkpoint`: the bytes `vmflow train` writes for the final epoch;
- `sample-nfe<K>-w<W>-<cond|uncond>`: the samples, their noise and the
  sampler's call count, for each mode in SAMPLE_MODES.

Then it runs the `vmflow` commands of CLI_SESSION in a temporary directory,
with relative paths, and prints one `cli/<file> <sha256>` line per file the
session leaves there, `wallclock_ms` blanked in the train logs.

Run it on two trees and diff the output to check that a change keeps every
output bit. The program under test is the `src/` beside this directory.

The digests also depend on the Python and numpy build and on the BLAS, so
the tool ends by writing the fingerprint of the process that made them
(see `fingerprint`) to stderr, as one JSON line. `--write-golden` also
writes the lines and that fingerprint to bitprint.golden.json beside it,
which `tests/test_scripts.py` compares against when the fingerprints match.
A change that moves output bits on purpose regenerates that file.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no cache files in bench/
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from vmflow import openblas_functions  # noqa: E402
from vmflow.checkpoint import save_checkpoint  # noqa: E402
from vmflow.cli import _checkpoint_tensors, main as vmflow  # noqa: E402
from vmflow.config import VARIANTS, VARIATIONAL, RunConfig  # noqa: E402
from vmflow.rng import make_rng  # noqa: E402
from vmflow.sampling import sample_batch  # noqa: E402
from vmflow.training import train_model  # noqa: E402
from workloads import SAMPLE_SEED_OFFSET, WORKLOADS, make_data  # noqa: E402

GOLDEN = Path(__file__).with_name("bitprint.golden.json")
SEED, EPOCHS, N_COND = 5, 3, 300
SAMPLE_MODES = ((1, 1.5, True), (5, 1.0, False), (1, 2.0, True),
                (3, 1.0, True), (2, 2.0, False))  # (nfe, guidance_w, conditional)

# small runs, so the session takes seconds; every command must exit 0
CLI_CONFIG = {"width": 16, "heads": 2, "blocks": 2, "latent_dim": 4, "time_freqs": 4,
              "phi_hidden": 8, "epochs": 2, "batch_size": 16, "checkpoint_every": 1,
              "n_samples": 12, "seed": 3}
CLI_RUNS = {"ring.json": dict(CLI_CONFIG, variant="VMF", dataset="ring.jsonl",
                              out_dir="runs/ring"),
            "seqs.json": dict(CLI_CONFIG, variant="VMFD", dataset="seqs.jsonl",
                              out_dir="runs/seqs")}
CLI_SESSION = (
    "gen-data --domain ring --out ring.jsonl --n-modes 4 --samples-per-mode 16 --seed 1",
    "gen-data --domain sequences --out seqs.jsonl --n-sequences 48 --dim 8 --seed 2",
    "train --config ring.json",
    "train --config ring.json --out runs/ring2 --set epochs=3"
    " --resume runs/ring/checkpoints/epoch_0001.ckpt",
    "train --config seqs.json",
    "train --config seqs.json --set epochs=3 --resume runs/seqs/checkpoints/final.ckpt",
    "sample --run runs/ring --out ring-a.jsonl",
    "sample --run runs/ring --nfe 2 --w 1.0 --n 8 --out ring-b.jsonl",
    "sample --run runs/ring2 --unconditional --seed 7 --out ring-c.jsonl",
    "sample --run runs/seqs --out seqs-a.jsonl",
    "sample --run runs/seqs --nfe 3 --w 2.0 --out seqs-b.jsonl",
    "sample --run runs/seqs --data seqs.jsonl --seed 9 --n 20 --out seqs-c.jsonl",
    "eval --samples ring-a.jsonl --references ring.jsonl --out ring-metrics.json"
    " --curve ring-curve.csv",
    "eval --samples seqs-b.jsonl --references seqs.jsonl --out seqs-metrics.json"
    " --curve seqs-curve.csv",
    "granger --latents seqs-c.jsonl --out seqs-granger.json --csv seqs-granger.csv",
    "mask --sample-len 10 --cond-len 4 --latent-len 4 --split 2,3,4,1 --out mask/m",
)


# fingerprint field -> (return type, OpenBLAS function stem)
BLAS_GETTERS = {"blas_threads": (ctypes.c_int, "get_num_threads"),
                "openblas_config": (ctypes.c_char_p, "get_config"),
                "openblas_corename": (ctypes.c_char_p, "get_corename")}


def fingerprint() -> dict:
    """The Python and numpy versions, and for each OpenBLAS loaded in this
    process its thread count, config string and core name, read through the
    library's own getters (null where it exports none; no entry off Linux)."""
    fp = {"python": platform.python_version(), "numpy": np.__version__}
    for field, (restype, stem) in BLAS_GETTERS.items():
        fp[field] = []
        for fn in openblas_functions(stem):
            value = None
            if fn is not None:
                fn.restype = restype
                value = fn()
            fp[field].append(value.decode() if isinstance(value, bytes) else value)
    return fp


def sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def variant_config(base: dict, variant: str) -> RunConfig:
    """The workload's config for `variant`; alpha stays only where the
    variant has a latent, as the config rules require."""
    cfg = dict(base, variant=variant, seed=SEED, epochs=EPOCHS)
    if variant not in VARIATIONAL:
        cfg.pop("alpha", None)
    return RunConfig(**cfg)


def fingerprints(workload: str, variant: str, tmp: Path):
    w = WORKLOADS[workload]
    data = make_data(w, SEED)
    cfg = variant_config(w.cfg, variant)
    losses = []  # wallclock_ms is blanked: it differs from run to run
    params, dims, opt = train_model(
        cfg, data.x, data.c,
        log_fn=lambda step, rep: losses.append(
            {"step": step, **dataclasses.asdict(rep), "wallclock_ms": None}))
    state = {**{f"param/{k}": p.data for k, p in params.items()}, **opt.state_tensors()}
    yield "params", sha(*(name.encode() + state[name].tobytes() for name in sorted(state)),
                        str(opt.step_count).encode())
    yield "losses", sha(json.dumps(losses).encode())
    path = tmp / "final.ckpt"
    save_checkpoint(path, _checkpoint_tensors(params, opt, cfg.epochs))
    yield "checkpoint", sha(path.read_bytes())
    cond = data.cond[:N_COND]
    for nfe, gw, conditional in SAMPLE_MODES:
        res = sample_batch(params, dims, cond, data.x.shape[1],
                           make_rng(SEED + SAMPLE_SEED_OFFSET), nfe=nfe,
                           guidance_w=gw, conditional=conditional)
        kind = f"sample-nfe{nfe}-w{gw}-{'cond' if conditional else 'uncond'}"
        yield kind, sha(res.x.tobytes(), res.eps.tobytes(), str(res.calls).encode())


def cli_fingerprints(tmp: Path):
    """Run CLI_SESSION inside `tmp` and hash each file it leaves there."""
    for name, cfg in CLI_RUNS.items():
        (tmp / name).write_text(json.dumps(cfg))
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for command in CLI_SESSION:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = vmflow(command.split())
            if rc != 0:
                raise SystemExit(f"vmflow {command} exited {rc}")
    finally:
        os.chdir(cwd)
    for path in sorted(p for p in tmp.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        if path.name == "train.log.jsonl":  # wallclock_ms differs from run to run
            blob = json.dumps([dict(json.loads(row), wallclock_ms=None)
                               for row in blob.splitlines()]).encode()
        yield path.relative_to(tmp).as_posix(), sha(blob)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--write-golden", action="store_true",
                    help=f"also write the lines and the fingerprint to {GOLDEN.name}")
    args = ap.parse_args()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("ring", "seq"):
            for variant in VARIANTS:
                for kind, digest in fingerprints(workload, variant, Path(tmp)):
                    lines.append(f"{workload}/{variant}/{kind} {digest}")
                    print(lines[-1], flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in cli_fingerprints(Path(tmp)):
            lines.append(f"cli/{name} {digest}")
            print(lines[-1], flush=True)
    fp = fingerprint()
    if args.write_golden:
        GOLDEN.write_text(json.dumps({"fingerprint": fp, "lines": lines}, indent=1) + "\n")
    print(json.dumps(fp), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
