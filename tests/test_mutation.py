"""Seeded mutation test: damaged inputs exit with their documented code.

Each mutant of a small real checkpoint goes through `vmflow sample
--checkpoint` and `vmflow train --resume`. Every run must exit 0 or 3; a
failed sample leaves no output file, and a failed train no run directory.
"""
import collections
import json
import shutil

import numpy as np
import pytest

from vmflow.cli import main

N_MUTANTS = 300


def _mutate(blob: bytes, rng: np.random.Generator, kind: int) -> bytes:
    """Truncation, 1-3 bit flips, or a 0xFF byte in the first 200 bytes."""
    out = bytearray(blob)
    if kind == 0:
        return bytes(out[:rng.integers(0, len(out))])
    if kind == 1:
        for bit in rng.choice(8 * len(out), size=rng.integers(1, 4), replace=False):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    out[rng.integers(0, 200)] = 0xFF
    return bytes(out)


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    """A 2-epoch ring run and its config."""
    tmp = tmp_path_factory.mktemp("mutation")
    data = tmp / "ring.jsonl"
    assert main(["gen-data", "--domain", "ring", "--out", str(data), "--n-modes", "2",
                 "--samples-per-mode", "8", "--seed", "0"]) == 0
    cfg = {"variant": "VMF", "width": 8, "heads": 2, "blocks": 1, "latent_dim": 2,
           "time_freqs": 2, "phi_hidden": 4, "epochs": 2, "batch_size": 8,
           "n_samples": 4, "seed": 3, "dataset": str(data), "out_dir": str(tmp / "run")}
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return tmp, cfg_path


def test_mutated_checkpoints_exit_0_or_3(ring_run, capsys):
    tmp, cfg_path = ring_run
    run = tmp / "run"
    blob = (run / "checkpoints" / "final.ckpt").read_bytes()
    rng = np.random.default_rng(12)
    mutant, out, fresh = tmp / "mutant.ckpt", tmp / "samples.jsonl", tmp / "fresh"
    stray = collections.Counter()
    for i in range(N_MUTANTS):
        mutant.write_bytes(_mutate(blob, rng, i % 3))
        for argv, output in (
                (["sample", "--run", str(run), "--checkpoint", str(mutant),
                  "--out", str(out)], out),
                (["train", "--config", str(cfg_path), "--resume", str(mutant),
                  "--out", str(fresh)], fresh)):
            rc = main(argv)
            err = capsys.readouterr().err
            if rc not in (0, 3):
                stray[(argv[0], rc, json.loads(err)["error"])] += 1
            elif rc == 3 and output.exists():
                stray[(argv[0], rc, "left output")] += 1
            if output.is_dir():
                shutil.rmtree(output)
            elif output.exists():
                output.unlink()
    assert not stray, dict(stray)
