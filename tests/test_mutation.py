"""Seeded mutation tests: damaged inputs exit with their documented code.

Each mutant of a small real checkpoint goes through `vmflow sample
--checkpoint` and `vmflow train --resume`; every run must exit 0 or 3. Each
mutant of a dataset, a train config, a run's config.json or a samples file
goes through every command that reads that file; every run must exit 0, 2,
3 or 4. A failed command leaves no output file and no run directory. Seeded
numeric flag values go through gen-data, mask, eval and sample with the
same rule, and every JSON file a command that exits 0 writes is strict JSON.
"""
import collections
import json
import shutil

import numpy as np
import pytest

from vmflow.cli import main

N_MUTANTS = 300
N_TEXT_MUTANTS = 60
# what a value swap puts in place of one JSON value, as raw JSON text
SWAP_TOKENS = ('"x"', "[]", "{}", "null", "true", "1e999", "-1", "[[1]]")
_SLOT = "@@swapped@@"
N_ARG_MUTANTS = 150
# what an argument mutant gives an int flag and a float flag
INT_VALUES = ("-5", "-1", "0", "1", "2")
FLOAT_VALUES = ("-1", "0", "nan", "inf", "1e-9", "1.5")


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


def _swap_value(text: str, rng: np.random.Generator, jsonl: bool) -> str:
    """One JSON value of one document (a line of a JSONL file) replaced by
    one of SWAP_TOKENS. The value is found by a walk from the document's
    root that picks a random child and stops there with probability 1/2."""
    docs = text.splitlines(True) if jsonl else [text]
    i = rng.integers(len(docs))
    node = root = json.loads(docs[i])
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = keys[rng.integers(len(keys))]
        if isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.5:
            node = node[key]
            continue
        node[key] = _SLOT
        break
    token = SWAP_TOKENS[rng.integers(len(SWAP_TOKENS))]
    docs[i] = json.dumps(root).replace(json.dumps(_SLOT), token) + ("\n" if jsonl else "")
    return "".join(docs)


def _mutate_text(blob: bytes, rng: np.random.Generator, kind: int, jsonl: bool) -> bytes:
    """Truncation, one changed printable byte, one 0xFF byte, or a value swap."""
    out = bytearray(blob)
    pos = rng.integers(0, len(out))
    if kind == 0:
        return bytes(out[:pos])
    if kind in (1, 2):
        out[pos] = rng.integers(0x20, 0x7F) if kind == 1 else 0xFF
        return bytes(out)
    return _swap_value(blob.decode(), rng, jsonl).encode()


def _trained_run(tmp, domain: str):
    """A 2-epoch run on a small dataset of `domain`, its train config, and
    four samples of it."""
    data = tmp / f"{domain}.jsonl"
    shape = (["--n-modes", "2", "--samples-per-mode", "8"] if domain == "ring" else
             ["--n-sequences", "16", "--length", "4", "--dim", "8"])
    assert main(["gen-data", "--domain", domain, "--out", str(data), "--seed", "0"]
                + shape) == 0
    cfg = {"variant": "VMF", "width": 8, "heads": 2, "blocks": 1, "latent_dim": 2,
           "time_freqs": 2, "phi_hidden": 4, "epochs": 2, "batch_size": 8,
           "n_samples": 4, "seed": 3, "dataset": str(data), "out_dir": str(tmp / "run")}
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["sample", "--run", str(tmp / "run"), "--out",
                 str(tmp / "samples.jsonl")]) == 0
    return data, cfg_path


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    """A 2-epoch ring run and its config."""
    tmp = tmp_path_factory.mktemp("mutation")
    return tmp, _trained_run(tmp, "ring")[1]


def test_mutated_checkpoints_exit_0_or_3(ring_run, capsys):
    tmp, cfg_path = ring_run
    run = tmp / "run"
    blob = (run / "checkpoints" / "final.ckpt").read_bytes()
    rng = np.random.default_rng(12)
    mutant, out, fresh = tmp / "mutant.ckpt", tmp / "samples-mutant.jsonl", tmp / "fresh"
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


@pytest.mark.parametrize("domain", ["ring", "sequences"])
def test_mutated_text_files_exit_0_2_3_or_4(tmp_path, capsys, domain):
    """Mutants of the dataset (through train and sample --data), the train
    config (through train), the run's config.json (through sample) and a
    samples file (through eval and granger). Every output goes to `out/`,
    which a failed command must leave empty."""
    data, cfg_path = _trained_run(tmp_path, domain)
    run, mrun, out = tmp_path / "run", tmp_path / "mrun", tmp_path / "out"
    (mrun / "checkpoints").mkdir(parents=True)
    shutil.copy(run / "checkpoints" / "final.ckpt", mrun / "checkpoints")
    out.mkdir()
    o = {name: str(out / name) for name in ("run", "samples.jsonl", "a.json", "b.csv")}
    mutant = tmp_path / "mutant"
    files = {  # file -> (is JSONL, the runs that read its mutant)
        data: (True, [["train", "--config", str(cfg_path), "--set", f"dataset={mutant}",
                       "--out", o["run"]],
                      ["sample", "--run", str(run), "--data", str(mutant),
                       "--out", o["samples.jsonl"]]]),
        cfg_path: (False, [["train", "--config", str(mutant), "--out", o["run"]]]),
        run / "config.json": (False, [["sample", "--run", str(mrun),
                                       "--out", o["samples.jsonl"]]]),
        tmp_path / "samples.jsonl": (True, [
            ["eval", "--samples", str(mutant), "--references", str(data),
             "--out", o["a.json"], "--curve", o["b.csv"]],
            ["granger", "--latents", str(mutant), "--out", o["a.json"], "--csv", o["b.csv"]]]),
    }
    rng = np.random.default_rng(0)
    stray = collections.Counter()
    for path, (jsonl, runs) in files.items():
        blob = path.read_bytes()
        for i in range(N_TEXT_MUTANTS):
            mutant.write_bytes(_mutate_text(blob, rng, i % 4, jsonl))
            shutil.copy(mutant, mrun / "config.json")
            for argv in runs:
                rc = main(argv)
                err = capsys.readouterr().err
                if rc not in (0, 2, 3, 4):
                    stray[(path.name, argv[0], rc, json.loads(err)["error"])] += 1
                elif rc and any(out.iterdir()):
                    stray[(path.name, argv[0], rc, "left output")] += 1
                shutil.rmtree(out)
                out.mkdir()
    assert not stray, str(dict(stray))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _non_strict_json_files(out) -> list[str]:
    """The JSON and JSONL files under `out` that hold a NaN or an Infinity."""
    bad = []
    for path in sorted(out.iterdir()):
        if path.suffix in (".json", ".jsonl"):
            text = path.read_text()
            docs = text.splitlines() if path.suffix == ".jsonl" else [text]
            try:
                for doc in docs:
                    json.loads(doc, parse_constant=_refuse_constant)
            except ValueError:
                bad.append(path.name)
    return bad


def test_mutated_arguments_exit_0_2_3_or_4(ring_run, capsys):
    """Each mutant sets one or two numeric flags of one command to a value
    from INT_VALUES or FLOAT_VALUES. Sizes stay at 2 or below, and every
    output goes to `args-out/`, which a failed command must leave empty."""
    tmp, _ = ring_run
    out = tmp / "args-out"
    out.mkdir()
    o = str(out)
    commands = [  # (name, argv, {numeric flag: its type}); argparse keeps a flag's last value
        ("ring", ["gen-data", "--domain", "ring", "--n-modes", "2", "--samples-per-mode", "2",
                  "--cond-dim", "2", "--out", f"{o}/d.jsonl"],
         {"--seed": int, "--cond-dim": int, "--n-modes": int, "--samples-per-mode": int,
          "--radius": float, "--scale": float}),
        ("sequences", ["gen-data", "--domain", "sequences", "--vocab", "2", "--length", "2",
                       "--dim", "2", "--n-sequences", "2", "--out", f"{o}/d.jsonl"],
         {"--seed": int, "--vocab": int, "--length": int, "--dim": int,
          "--n-sequences": int, "--dominance": float, "--feature-scale": float}),
        ("mask", ["mask", "--sample-len", "2", "--cond-len", "1", "--latent-len", "1",
                  "--out", f"{o}/m"],
         {"--sample-len": int, "--cond-len": int, "--latent-len": int, "--seed": int,
          "--decay": float}),
        ("eval", ["eval", "--samples", str(tmp / "samples.jsonl"), "--references",
                  str(tmp / "ring.jsonl"), "--out", f"{o}/a.json", "--curve", f"{o}/b.csv"],
         {"--sim-thresh": float, "--novel-thresh": float}),
        ("sample", ["sample", "--run", str(tmp / "run"), "--n", "2", "--out", f"{o}/s.jsonl"],
         {"--nfe": int, "--n": int, "--seed": int, "--w": float}),
    ]
    rng = np.random.default_rng(7)
    stray = collections.Counter()
    for i in range(N_ARG_MUTANTS):
        name, argv, flags = commands[i % len(commands)]
        names = list(flags)
        extra = []
        for k in rng.choice(len(names), size=rng.integers(1, 3), replace=False):
            values = INT_VALUES if flags[names[k]] is int else FLOAT_VALUES
            extra += [names[k], values[rng.integers(len(values))]]
        case = " ".join([name] + extra)
        rc = main(argv + extra)
        err = capsys.readouterr().err
        if rc not in (0, 2, 3, 4):
            stray[(case, rc, json.loads(err.splitlines()[-1])["error"])] += 1
        elif rc and any(out.iterdir()):
            stray[(case, rc, "left output")] += 1
        elif not rc and (bad := _non_strict_json_files(out)):
            stray[(case, rc, f"NaN or Infinity in {bad}")] += 1
        shutil.rmtree(out)
        out.mkdir()
    assert not stray, str(dict(stray))
