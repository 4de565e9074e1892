"""End-to-end CLI runs in a temp directory: artifacts, exit codes, determinism."""
import importlib
import json
import os
import pkgutil
import shutil

import numpy as np
import pytest

import vmflow
from vmflow.checkpoint import load_checkpoint, save_checkpoint
from vmflow.cli import _exit_code, load_params, main
from vmflow.config import load_config
from vmflow.datasets import SequenceCodec, load_dataset_jsonl
from vmflow.optim import Adam
from vmflow.tensor import ShapeError
from vmflow.training import train_model


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _gen_ring(tmp_path, n_modes=2, spm=8, seed=0):
    out = tmp_path / "ring.jsonl"
    rc = main(["gen-data", "--domain", "ring", "--out", str(out),
               "--n-modes", str(n_modes), "--samples-per-mode", str(spm),
               "--seed", str(seed)])
    assert rc == 0
    return out


def _write_config(tmp_path, dataset, **extra):
    cfg = {"variant": "VMF", "width": 16, "heads": 2, "blocks": 2,
           "latent_dim": 8, "time_freqs": 4, "phi_hidden": 12,
           "epochs": 2, "batch_size": 8, "checkpoint_every": 1,
           "n_samples": 6, "seed": 3, "dataset": str(dataset),
           "out_dir": str(tmp_path / "run")}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_ring(tmp_path):
    out = _gen_ring(tmp_path, n_modes=3, spm=5)
    x, c, meta = load_dataset_jsonl(out)
    assert x.shape == (15, 1, 2) and c.shape == (15, 1, 4)
    assert all(m["domain"] == "ring" for m in meta)
    assert sorted({m["mode"] for m in meta}) == [0, 1, 2]


def test_gen_data_sequences_decodable(tmp_path):
    out = tmp_path / "seq.jsonl"
    assert main(["gen-data", "--domain", "sequences", "--out", str(out),
                 "--n-sequences", "20", "--seed", "1"]) == 0
    x, c, meta = load_dataset_jsonl(out)
    head = meta[0]
    codec = SequenceCodec(head["vocab"], head["length"], head["dim"],
                          seed=head["codec_seed"])
    got = codec.decode(x)
    assert np.array_equal(got, np.array([m["tokens"] for m in meta]))


# ---------------------------------------------------------------------------
# mask

def test_mask_artifacts(tmp_path, capsys):
    prefix = tmp_path / "m"
    rc = main(["mask", "--sample-len", "10", "--cond-len", "4",
               "--latent-len", "4", "--split", "9,1", "--out", str(prefix)])
    assert rc == 0
    summary = json.loads((tmp_path / "m.json").read_text())
    assert summary["seq_len"] == 27
    assert summary["split_sizes"] == [9, 1]
    assert summary["visible_len"] == 9
    pgm = (tmp_path / "m.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "27 27"
    grid = (tmp_path / "m.txt").read_text()
    assert grid.count("\n") == 28  # ruler line + 27 rows, trailing newline
    assert "#" in grid and "." in grid
    assert "#" in capsys.readouterr().out


def test_mask_seeded_split(tmp_path):
    prefix = tmp_path / "m2"
    rc = main(["mask", "--sample-len", "12", "--cond-len", "2",
               "--latent-len", "1", "--seed", "5", "--out", str(prefix)])
    assert rc == 0
    summary = json.loads((tmp_path / "m2.json").read_text())
    assert sum(summary["split_sizes"]) == 12


# ---------------------------------------------------------------------------
# train / sample / eval pipeline

@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data)
    assert main(["train", "--config", str(cfg_path)]) == 0
    return tmp_path


def test_train_artifacts(trained_run):
    run = trained_run / "run"
    assert (run / "config.json").exists()
    saved = json.loads((run / "config.json").read_text())
    assert saved["variant"] == "VMF" and saved["epochs"] == 2
    rows = _read_jsonl(run / "train.log.jsonl")
    assert len(rows) == 4  # 16 rows / batch 8 = 2 steps x 2 epochs
    for key in ("step", "l2", "kl", "dispersive", "total", "t_mean",
                "r_mean", "wallclock_ms"):
        assert key in rows[0]
    assert [r["step"] for r in rows] == [1, 2, 3, 4]
    names = {p.name for p in (run / "checkpoints").iterdir()}
    assert {"epoch_0001.ckpt", "epoch_0002.ckpt", "final.ckpt"} <= names


def test_sample_rows_and_determinism(trained_run):
    run = trained_run / "run"
    out1 = trained_run / "s1.jsonl"
    out2 = trained_run / "s2.jsonl"
    argv = ["sample", "--run", str(run), "--nfe", "1", "--w", "1.0",
            "--n", "6", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = _read_jsonl(out1)
    assert len(rows) == 6
    for i, r in enumerate(rows):
        assert r["id"] == i and r["nfe"] == 1 and r["w"] == 1.0
        assert r["condition_id"] == i % 16 and r["seed"] == 3
        assert len(r["latent"]) == 2 and all(np.isfinite(r["latent"]))
        assert r["decoded"] == r["latent"]  # point domain payload


def test_sample_seed_changes_output(trained_run):
    run = trained_run / "run"
    base = trained_run / "sa.jsonl"
    other = trained_run / "sb.jsonl"
    argv = ["sample", "--run", str(run), "--n", "4", "--out"]
    assert main(argv + [str(base)]) == 0
    assert main(argv + [str(other), "--seed", "99"]) == 0
    rows = _read_jsonl(other)
    assert all(r["seed"] == 99 for r in rows)
    assert base.read_bytes() != other.read_bytes()


def test_unconditional_rows_name_no_condition_or_weight(trained_run, capsys):
    """An unconditional draw runs unguided on the null condition, so its rows
    carry no condition_id and no w, and eval pairs them only by order."""
    out = trained_run / "uncond.jsonl"
    assert main(["sample", "--run", str(trained_run / "run"), "--n", "4", "--w", "2",
                 "--unconditional", "--out", str(out)]) == 0
    rows = _read_jsonl(out)
    assert len(rows) == 4
    assert all(r["condition_id"] is None and r["w"] is None for r in rows)
    argv = ["eval", "--samples", str(out), "--references", str(trained_run / "ring.jsonl")]
    assert main(argv + ["--out", str(trained_run / "u-cond.json")]) == 3
    assert _stderr_error(capsys)["error"] == "MetricError"
    assert not (trained_run / "u-cond.json").exists()
    assert main(argv + ["--out", str(trained_run / "u-order.json"), "--pair", "order"]) == 0


def test_eval_outputs(trained_run):
    run = trained_run / "run"
    samples = trained_run / "s1.jsonl"
    metrics = trained_run / "metrics.json"
    curve = trained_run / "curve.csv"
    rc = main(["eval", "--samples", str(samples),
               "--references", str(trained_run / "ring.jsonl"),
               "--out", str(metrics), "--curve", str(curve)])
    assert rc == 0
    rep = json.loads(metrics.read_text())
    for key in ("similarity", "novelty", "diversity", "validity"):
        assert key in rep["metrics"]
        assert 0.0 <= rep["metrics"][key] <= 100.0
    assert rep["n_samples"] == 6 and rep["sim_fn"] == "cosine"
    lines = curve.read_text().splitlines()
    assert lines[0] == "threshold,similarity,novelty,diversity"
    assert len(lines) == 20


def test_train_resume(trained_run):
    run = trained_run / "run"
    cfg_path = trained_run / "config.json"
    out2 = trained_run / "resumed"
    rc = main(["train", "--config", str(cfg_path), "--out", str(out2),
               "--set", "epochs=3",
               "--resume", str(run / "checkpoints" / "epoch_0002.ckpt")])
    assert rc == 0
    rows = _read_jsonl(out2 / "train.log.jsonl")
    assert [r["step"] for r in rows] == [5, 6]  # 2 epochs done, 1 more = 2 steps


def test_train_resume_updates_parameters(tmp_path):
    """Resuming from epoch 2 to 4 trains: the parameters move, and they equal
    an in-library train_model resumed from the same checkpoint."""
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt2 = run / "checkpoints" / "epoch_0002.ckpt"
    out = tmp_path / "resumed"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--set", "epochs=4", "--resume", str(ckpt2)]) == 0
    before = load_checkpoint(ckpt2)
    after = load_checkpoint(out / "checkpoints" / "epoch_0004.ckpt")
    names = [k for k in before if k.startswith("param/")]
    # one-token ring samples never show an earlier group, so only the
    # embedding of that segment keeps its values
    moved = {k for k in names if not np.array_equal(before[k], after[k])}
    assert sorted(set(names) - moved) == ["param/theta/embed_xp/b",
                                          "param/theta/embed_xp/w",
                                          "param/theta/seg/xp"]

    cfg = load_config(cfg_path, {"epochs": 4})
    x, c, _ = load_dataset_jsonl(data)
    params, opt_state, epoch = load_params(ckpt2)
    opt = Adam(params, lr=cfg.lr)
    opt.load_state_tensors(opt_state)
    params, _, opt = train_model(cfg, x, c, params=params, opt=opt, start_epoch=epoch)
    for k in names:
        assert after[k].tobytes() == params[k[len("param/"):]].data.tobytes(), k
    assert int(after["adam/step"][0]) == opt.step_count == 8


def test_train_resume_appends_log(tmp_path):
    """Resuming into the run's own directory keeps the first segment's log."""
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data, batch_size=4)  # 4 steps per epoch
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--set", "epochs=3", "--resume",
                 str(run / "checkpoints" / "epoch_0002.ckpt")]) == 0
    rows = _read_jsonl(run / "train.log.jsonl")
    assert [r["step"] for r in rows] == list(range(1, 13))


def test_resume_cuts_the_log_back_to_the_checkpoint(tmp_path):
    """Resuming a finished 4-epoch run from epoch 2 drops the log rows after
    the checkpoint's step, and a crash's partial last row, before appending,
    so each step appears once. A partial row right after the checkpoint's
    step, as a crash in the first step after a checkpoint leaves it, goes
    too."""
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data, epochs=4)  # 2 steps per epoch
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    with open(run / "train.log.jsonl", "a") as fh:
        fh.write('{"step": 9, "lo')
    assert main(["train", "--config", str(cfg_path), "--resume",
                 str(run / "checkpoints" / "epoch_0002.ckpt")]) == 0
    rows = _read_jsonl(run / "train.log.jsonl")
    assert [r["step"] for r in rows] == list(range(1, 9))

    with open(run / "train.log.jsonl", "a") as fh:
        fh.write('{"step": 9, "l2": 0.4')
    assert main(["train", "--config", str(cfg_path), "--set", "epochs=5", "--resume",
                 str(run / "checkpoints" / "epoch_0004.ckpt")]) == 0
    rows = _read_jsonl(run / "train.log.jsonl")
    assert [r["step"] for r in rows] == list(range(1, 11))


# Checkpoints a test makes from a run's epoch_0002.ckpt, by file name
_BAD_CHECKPOINTS = {
    "params-only.ckpt": lambda t: {k: v for k, v in t.items() if k.startswith("param/")},
    "transposed-moment.ckpt": lambda t: {**t, "adam/m/phi/lv/w": t["adam/m/phi/lv/w"].T},
    "short-moment.ckpt": lambda t: {**t, "adam/m/phi/lv/w": t["adam/m/phi/lv/w"][:1]},
    "nan-epoch.ckpt": lambda t: {**t, "meta/epoch": np.array([np.nan], np.float32)},
    "inf-step.ckpt": lambda t: {**t, "adam/step": np.array([np.inf], np.float32)},
    "renamed-param.ckpt": lambda t: {k.replace("theta/head/", "theta/out/"): v
                                     for k, v in t.items()},
}


def _bad_checkpoint(run, name):
    ckpts = run / "checkpoints"
    tensors = load_checkpoint(ckpts / "epoch_0002.ckpt")
    save_checkpoint(ckpts / name, _BAD_CHECKPOINTS[name](tensors))


def _files(run):
    return {str(p.relative_to(run)): p.read_bytes()
            for p in sorted(run.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("override,ckpt,code,error", [
    ("lr=0.5", "nope.ckpt", 4, "FileNotFoundError"),
    ("width=32", "epoch_0002.ckpt", 3, "CheckpointError"),
    ("lr=0.5", "params-only.ckpt", 3, "CheckpointError"),
    ("lr=0.5", "transposed-moment.ckpt", 3, "CheckpointError"),
    ("lr=0.5", "short-moment.ckpt", 3, "CheckpointError"),
    ("lr=0.5", "nan-epoch.ckpt", 3, "CheckpointError"),
    ("lr=0.5", "inf-step.ckpt", 3, "CheckpointError"),
])
def test_failed_resume_leaves_the_run_unchanged(tmp_path, capsys, override, ckpt,
                                                code, error):
    """A resume that cannot start rewrites neither config.json nor the log,
    nor any checkpoint."""
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    if ckpt in _BAD_CHECKPOINTS:
        _bad_checkpoint(run, ckpt)
    before = _files(run)
    rc = main(["train", "--config", str(cfg_path), "--set", override,
               "--set", "epochs=3", "--resume", str(run / "checkpoints" / ckpt)])
    assert rc == code
    assert _stderr_error(capsys)["error"] == error
    assert _files(run) == before


def test_resume_refuses_epochs_below_the_checkpoint(tmp_path, capsys):
    """Resuming to fewer epochs than the checkpoint's exits 3 and writes
    nothing; resuming to exactly as many trains nothing and writes nothing."""
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data)  # 2 epochs, a checkpoint each
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    before = _files(run)
    argv = ["train", "--config", str(cfg_path), "--resume",
            str(run / "checkpoints" / "epoch_0002.ckpt"), "--set"]
    assert main(argv + ["epochs=1"]) == 3
    assert _stderr_error(capsys)["error"] == "ConfigError"
    assert _files(run) == before
    assert main(argv + ["epochs=2"]) == 0
    assert _files(run) == before


@pytest.mark.parametrize("row", [b'{"step": 5, "l2": 0.4}x', b"[1, 2]", b'{"l2": 0.4}',
                                 b'{"step": "5"}', b'{"step": 5, "l2": 0.4\xff}'])
def test_resume_refuses_a_malformed_log_row(tmp_path, capsys, row):
    """A complete log row the cut reads must be an object with a numeric
    step; otherwise the resume exits 3 before it writes anything."""
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    with open(run / "train.log.jsonl", "ab") as fh:
        fh.write(row + b"\n")
    before = _files(run)
    assert main(["train", "--config", str(cfg_path), "--set", "epochs=3", "--resume",
                 str(run / "checkpoints" / "epoch_0002.ckpt")]) == 3
    info = _stderr_error(capsys)
    assert info["error"] == "DatasetError"
    assert "train.log.jsonl:5: bad dataset row" in info["message"]
    assert _files(run) == before


@pytest.mark.parametrize("ckpt", ["renamed-param.ckpt", "nan-epoch.ckpt"])
def test_sample_refuses_a_checkpoint_that_does_not_fit(tmp_path, capsys, ckpt):
    """vmflow sample checks the checkpoint's parameter names and shapes
    against the config's model, and its epoch: exit 3, no output file."""
    data = _gen_ring(tmp_path)
    cfg_path = _write_config(tmp_path, data)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    _bad_checkpoint(run, ckpt)
    out = tmp_path / "samples.jsonl"
    assert main(["sample", "--run", str(run), "--checkpoint",
                 str(run / "checkpoints" / ckpt), "--out", str(out)]) == 3
    assert _stderr_error(capsys)["error"] == "CheckpointError"
    assert not out.exists()


def test_missing_dataset_leaves_no_run_directory(tmp_path, capsys):
    cfg = _write_config(tmp_path, tmp_path / "absent.jsonl")
    assert main(["train", "--config", str(cfg)]) == 4
    assert _stderr_error(capsys)["exit_code"] == 4
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# granger

def test_granger_cli(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "latents.jsonl"
    with open(path, "w") as fh:
        for _ in range(6):
            x = rng.standard_normal(60)
            y = np.zeros(60)
            y[1:] = 0.9 * x[:-1] + 0.05 * rng.standard_normal(59)
            fh.write(json.dumps({"latent": [x.tolist(), y.tolist()]}) + "\n")
    out = tmp_path / "hist.json"
    csv = tmp_path / "bars.csv"
    rc = main(["granger", "--latents", str(path), "--out", str(out),
               "--csv", str(csv)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert sum(rep["bins"].values()) == 6
    assert rep["bins"]["p<0.001"] >= 5
    lines = csv.read_text().splitlines()
    assert lines[0] == "bin,count" and len(lines) == 6


# ---------------------------------------------------------------------------
# exit codes and error JSON

def _stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def test_exit_2_unknown_variant(tmp_path, capsys):
    data = _gen_ring(tmp_path)
    cfg = _write_config(tmp_path, data, variant="XFM")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 2
    info = _stderr_error(capsys)
    assert info["error"] == "VariantError" and info["exit_code"] == 2
    assert "XFM" in info["message"]


def test_exit_3_invariant_violation(tmp_path, capsys):
    data = _gen_ring(tmp_path)
    cfg = _write_config(tmp_path, data, variant="FM")
    rc = main(["train", "--config", str(cfg), "--set", "p_equal=0.3"])
    assert rc == 3
    info = _stderr_error(capsys)
    assert info["error"] == "ConfigError" and info["exit_code"] == 3


def test_exit_3_adaptive_l2_true(tmp_path, capsys):
    cfg = _write_config(tmp_path, _gen_ring(tmp_path), adaptive_l2=True)
    rc = main(["train", "--config", str(cfg)])
    assert rc == 3
    info = _stderr_error(capsys)
    assert info["error"] == "ConfigError" and "adaptive_l2" in info["message"]


def test_exit_4_missing_file(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json")])
    assert rc == 4
    assert _stderr_error(capsys)["exit_code"] == 4

    cfg = _write_config(tmp_path, tmp_path / "absent.jsonl")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 4


def test_exit_3_for_shape_errors():
    assert _exit_code(ShapeError("x", "y")) == 3


def test_exit_code_of_every_error_class_vmflow_defines():
    classes = {c for m in pkgutil.iter_modules(vmflow.__path__)
               for c in vars(importlib.import_module(f"vmflow.{m.name}")).values()
               if isinstance(c, type) and issubclass(c, BaseException)
               and c.__module__ == f"vmflow.{m.name}"}
    names = {c.__name__ for c in classes}
    assert {"ShapeError", "SeedError", "StepAbortError", "VariantError"} <= names
    for cls in classes:
        assert _exit_code(cls.__new__(cls)) == (2 if cls.__name__ == "VariantError" else 3), cls
    assert _exit_code(ValueError("x")) == 1


def test_exit_3_eval_without_condition_ids(tmp_path, capsys):
    data = _gen_ring(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"latent": [1.0, 0.0]}) + "\n")
    rc = main(["eval", "--samples", str(bad), "--references", str(data),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "MetricError"


@pytest.mark.parametrize("cid", ['"a"', "[1]", "1e999", "-1", "99"])
def test_exit_3_eval_bad_condition_id(tmp_path, capsys, cid):
    """condition_id names one of the 16 references; there is no wrap-around."""
    data = _gen_ring(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"latent": [1.0, 0.0], "condition_id": %s}\n' % cid)
    out = tmp_path / "m.json"
    rc = main(["eval", "--samples", str(bad), "--references", str(data), "--out", str(out)])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "MetricError"
    assert not out.exists()


@pytest.fixture(scope="module")
def seq_run(tmp_path_factory):
    """A one-epoch sequences run (4 tokens at dim 8) and 4 of its samples."""
    tmp = tmp_path_factory.mktemp("seq")
    _sequence_samples(tmp, 4)
    return tmp


@pytest.mark.parametrize("meta", [{"vocab": [6]}, {"vocab": None}, {"length": 5}],
                         ids=["vocab-list", "no-vocab", "length-5"])
def test_exit_3_sample_bad_sequences_meta(seq_run, capsys, meta):
    """sample --data refuses a first row whose sequences meta cannot build
    the codec or decode the rows, and leaves an earlier output whole."""
    rows = _read_jsonl(seq_run / "seqs.jsonl")
    rows[0]["meta"].update(meta)  # a None value drops its key
    rows[0]["meta"] = {k: v for k, v in rows[0]["meta"].items() if v is not None}
    data = seq_run / "bad-meta.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = seq_run / "samples.jsonl"
    before = out.read_bytes()
    rc = main(["sample", "--run", str(seq_run / "run"), "--data", str(data),
               "--out", str(out)])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "DatasetError"
    assert out.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["eval", "--samples", "{s}", "--references", "{s}", "--out", "{d}/a.json",
     "--curve", "{d}/nodir/b.csv"],
    ["eval", "--samples", "{s}", "--references", "{s}", "--out", "{d}/nodir/a.json",
     "--curve", "{d}/b.csv"],
    ["granger", "--latents", "{s}", "--out", "{d}/a.json", "--csv", "{d}/nodir/b.csv"],
    ["sample", "--run", "{d}/run", "--out", "{d}/nodir/a.jsonl"],
], ids=["eval-curve", "eval-out", "granger-csv", "sample-out"])
def test_exit_4_missing_output_directory_writes_nothing(seq_run, tmp_path, capsys, argv):
    """A missing output directory exits 4, names the path asked for, and
    leaves no output of the command, not even the ones it could write."""
    shutil.copytree(seq_run / "run", tmp_path / "run")
    before = _files(tmp_path)
    rc = main([a.format(s=seq_run / "samples.jsonl", d=tmp_path) for a in argv])
    assert rc == 4
    info = _stderr_error(capsys)
    assert info["error"] == "FileNotFoundError"
    assert str(tmp_path / "nodir") in info["message"] and ".tmp" not in info["message"]
    assert _files(tmp_path) == before


@pytest.mark.parametrize("x,c", [
    ([[float("inf"), 0.0]], [[0.0, 1.0]]),
    ([1.0, 2.0], [[0.0, 1.0]]),
    (1.0, [[0.0, 1.0]]),
    ([], [[0.0, 1.0]]),
    ([[1.0, 2.0]], []),
    ([[[1.0, 2.0]]], [[0.0, 1.0]]),
], ids=["inf", "flat-row", "scalar-x", "empty-x", "zero-row-c", "3d-x"])
def test_exit_3_dataset_row_outside_the_rule(trained_run, tmp_path, capsys, x, c):
    """x and c are finite [len >= 1, dim >= 1] arrays in every row: train
    leaves no run directory, and sample --data no output file."""
    data = tmp_path / "bad.jsonl"
    data.write_text(2 * (json.dumps({"x": x, "c": c}) + "\n"))  # one shape in every row
    assert main(["train", "--config", str(_write_config(tmp_path, data))]) == 3
    assert _stderr_error(capsys)["error"] == "DatasetError"
    assert not (tmp_path / "run").exists()
    out = tmp_path / "s.jsonl"
    assert main(["sample", "--run", str(trained_run / "run"), "--data", str(data),
                 "--out", str(out)]) == 3
    assert "row 1: " in _stderr_error(capsys)["message"]
    assert not out.exists()


def test_exit_3_eval_ragged_rows(tmp_path, capsys):
    bad = tmp_path / "ragged.jsonl"
    bad.write_text("".join(json.dumps({"latent": v}) + "\n"
                           for v in ([1, 2, 3], [1, 2], [0, 1, 1])))
    rc = main(["eval", "--samples", str(bad), "--references", str(bad),
               "--pair", "order", "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "MetricError"


@pytest.mark.parametrize("override", ["width=abc", 'nfe="x"', "epochs=1.5",
                                      "checkpoint_every=0", "n_samples=0", "heads=5",
                                      "seed=-1", "time_freqs=-1", "phi_hidden=-2",
                                      "lognorm_std=-1", "lr=NaN", "alpha=NaN",
                                      "lognorm_mean=NaN", "epochs=null",
                                      "guidance_w=NaN"])
def test_exit_3_bad_config_override(tmp_path, capsys, override):
    data = _gen_ring(tmp_path)
    cfg = _write_config(tmp_path, data)
    rc = main(["train", "--config", str(cfg), "--set", override])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "ConfigError"
    assert not (tmp_path / "run").exists()  # refused before anything is written


def test_exit_3_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"variant": "VMF",')
    assert main(["train", "--config", str(cfg)]) == 3
    assert _stderr_error(capsys)["error"] == "ConfigError"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_exit_3_sample_count(trained_run, capsys, n):
    out = trained_run / f"none{n}.jsonl"
    rc = main(["sample", "--run", str(trained_run / "run"), "--n", n,
               "--out", str(out)])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed", "-200000"], ["--w", "nan"],
                                  ["--w", "inf"], ["--nfe", "0"]],
                         ids=["seed-1", "seed-200000", "w-nan", "w-inf", "nfe-0"])
def test_exit_3_sample_flag_outside_the_config_rules(trained_run, capsys, flag):
    """sample's flags are config overrides, checked by the rules --set meets."""
    out = trained_run / "refused.jsonl"
    assert main(["sample", "--run", str(trained_run / "run"), "--out", str(out)] + flag) == 3
    assert _stderr_error(capsys)["error"] == "ConfigError"
    assert not out.exists()


def test_sample_flags_at_zero_are_applied(trained_run):
    """--seed 0 and --w 0 are values, not absent flags: the config says seed 3, w 1.5."""
    out = trained_run / "zero.jsonl"
    assert main(["sample", "--run", str(trained_run / "run"), "--n", "2",
                 "--seed", "0", "--w", "0", "--out", str(out)]) == 0
    assert [(r["seed"], r["w"]) for r in _read_jsonl(out)] == [(0, 0.0), (0, 0.0)]


def test_train_out_wins_over_set_out_dir(tmp_path):
    cfg = _write_config(tmp_path, _gen_ring(tmp_path), epochs=1)
    assert main(["train", "--config", str(cfg), "--set", f"out_dir={tmp_path / 'a'}",
                 "--out", str(tmp_path / "b")]) == 0
    saved = json.loads((tmp_path / "b" / "config.json").read_text())
    assert saved["out_dir"] == str(tmp_path / "b") and not (tmp_path / "a").exists()


@pytest.mark.parametrize("argv", [
    ["mask", "--sample-len", "2", "--cond-len", "1", "--latent-len", "1", "--seed", "-1",
     "--out", "{d}/m"],
    ["gen-data", "--domain", "ring", "--seed", "-1", "--out", "{d}/d.jsonl"],
    ["gen-data", "--domain", "sequences", "--seed", "-1", "--out", "{d}/d.jsonl"],
], ids=["mask", "ring", "sequences"])
def test_exit_3_negative_seed(tmp_path, capsys, argv):
    assert main([a.format(d=tmp_path) for a in argv]) == 3
    assert _stderr_error(capsys)["error"] == "SeedError"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [
    ["ring", "--radius", "nan"], ["ring", "--scale", "nan"], ["ring", "--scale", "inf"],
    ["sequences", "--feature-scale", "nan"], ["sequences", "--feature-scale", "inf"],
    ["sequences", "--n-sequences", "0"], ["sequences", "--n-sequences", "-1"],
], ids=lambda f: f"{f[0]}{f[1]}={f[2]}")
def test_exit_3_gen_data_that_its_reader_refuses(tmp_path, capsys, flag):
    """gen-data writes only datasets that load_dataset_jsonl reads."""
    out = tmp_path / "d.jsonl"
    assert main(["gen-data", "--domain", *flag, "--out", str(out)]) == 3
    assert _stderr_error(capsys)["error"] == "DatasetError"
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--sim-thresh", "nan"], ["--novel-thresh", "inf"]],
                         ids=["sim-nan", "novel-inf"])
def test_exit_3_eval_non_finite_threshold(trained_run, tmp_path, capsys, flag):
    out = tmp_path / "m.json"
    samples = tmp_path / "one.jsonl"
    samples.write_text(json.dumps({"latent": [1.0, 0.0], "condition_id": 0}) + "\n")
    assert main(["eval", "--samples", str(samples), "--references",
                 str(trained_run / "ring.jsonl"), "--out", str(out)] + flag) == 3
    assert _stderr_error(capsys)["error"] == "MetricError"
    assert not out.exists()


@pytest.mark.parametrize("split", ["a,b", "3,1.5"])
def test_exit_3_mask_split(tmp_path, capsys, split):
    rc = main(["mask", "--sample-len", "4", "--cond-len", "1",
               "--latent-len", "1", "--split", split,
               "--out", str(tmp_path / "m")])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "MaskError"


def _latent_rows(n=6):
    rng = np.random.default_rng(1)
    return [json.dumps({"latent": rng.standard_normal((2, 30)).tolist(),
                        "condition_id": i}) for i in range(n)]


def _jsonl_cases(tmp_path):
    gaps = tmp_path / "gaps.jsonl"
    gaps.write_text("\n" + "\n\n".join(_latent_rows()) + "\n  \n")
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(_latent_rows(2) + ['{"latent": [1,']) + "\n")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n \n")
    return gaps, broken, empty


def _run_reader(cmd, path, tmp_path):
    if cmd == "eval":
        return main(["eval", "--samples", str(path), "--references", str(path),
                     "--out", str(tmp_path / "out.json")])
    return main(["granger", "--latents", str(path), "--out", str(tmp_path / "out.json")])


@pytest.mark.parametrize("cmd", ["eval", "granger"])
def test_jsonl_reader_through_cli(tmp_path, capsys, cmd):
    gaps, broken, empty = _jsonl_cases(tmp_path)
    assert _run_reader(cmd, gaps, tmp_path) == 0  # blank lines skipped
    if cmd == "eval":
        assert json.loads((tmp_path / "out.json").read_text())["n_samples"] == 6
    else:
        assert sum(json.loads((tmp_path / "out.json").read_text())["bins"].values()) == 6
    capsys.readouterr()
    assert _run_reader(cmd, broken, tmp_path) == 3
    info = _stderr_error(capsys)
    assert info["error"] == "DatasetError"
    assert "broken.jsonl:3: bad dataset row" in info["message"]
    assert _run_reader(cmd, empty, tmp_path) == 3
    info = _stderr_error(capsys)
    assert info["error"] == "DatasetError" and "empty" in info["message"]


@pytest.mark.parametrize("argv", [
    ["eval", "--samples", "{rows}", "--references", "{rows}", "--pair", "order"],
    ["granger", "--latents", "{rows}"],
])
def test_exit_3_non_object_row(tmp_path, capsys, argv):
    rows = tmp_path / "rows.jsonl"
    rows.write_text("\n".join(_latent_rows(2) + ["[1, 2]"]) + "\n")
    out = tmp_path / "out.json"
    rc = main([a.format(rows=rows) for a in argv] + ["--out", str(out)])
    assert rc == 3
    info = _stderr_error(capsys)
    assert info["error"] == "DatasetError"
    assert "rows.jsonl:3: bad dataset row" in info["message"]
    assert not out.exists()


def test_exit_3_train_ragged_dataset(tmp_path, capsys):
    data = tmp_path / "ragged.jsonl"
    data.write_text("".join(json.dumps({"x": x, "c": [[0.0, 1.0]]}) + "\n"
                            for x in ([[1.0, 0.0]], [[1.0, 0.0]], [[1.0]])))
    rc = main(["train", "--config", str(_write_config(tmp_path, data))])
    assert rc == 3
    info = _stderr_error(capsys)
    assert info["error"] == "DatasetError"
    assert "row 3: x has shape (1, 1), row 1 has (1, 2)" in info["message"]


def _sequence_samples(tmp_path, n):
    """n samples of a one-epoch run on sequences of 4 tokens at dim 8."""
    data = tmp_path / "seqs.jsonl"
    assert main(["gen-data", "--domain", "sequences", "--out", str(data),
                 "--n-sequences", "16", "--length", "4", "--dim", "8"]) == 0
    cfg = _write_config(tmp_path, data, epochs=1)
    assert main(["train", "--config", str(cfg)]) == 0
    samples = tmp_path / "samples.jsonl"
    assert main(["sample", "--run", str(tmp_path / "run"), "--n", str(n),
                 "--out", str(samples)]) == 0
    return samples


def test_sample_then_granger_on_sequences_run(tmp_path):
    samples = _sequence_samples(tmp_path, 5)
    hist = tmp_path / "hist.json"
    assert main(["granger", "--latents", str(samples), "--max-lag", "1",
                 "--out", str(hist)]) == 0
    rows = _read_jsonl(samples)
    assert all(r["latent_shape"] == [4, 8] and len(r["latent"]) == 32 for r in rows)
    rep = json.loads(hist.read_text())
    assert rep["n_samples"] == 5
    assert sum(rep["bins"].values()) == 5 and rep["skipped_samples"] == 0


def test_exit_3_granger_latent_shape_mismatch(tmp_path, capsys):
    path = tmp_path / "lat.jsonl"
    path.write_text(json.dumps({"latent": [0.0] * 6, "latent_shape": [4, 2]}) + "\n")
    rc = main(["granger", "--latents", str(path), "--out", str(tmp_path / "h.json")])
    assert rc == 3
    info = _stderr_error(capsys)
    assert info["error"] == "GrangerError" and "latent_shape" in info["message"]


def test_exit_3_granger_when_no_series_is_long_enough(tmp_path, capsys):
    # each group's series has dim = 8 points; --max-lag 2 needs 3 * 2 + 5
    samples = _sequence_samples(tmp_path, 50)
    hist = tmp_path / "hist.json"
    rc = main(["granger", "--latents", str(samples), "--max-lag", "2",
               "--out", str(hist)])
    assert rc == 3
    info = _stderr_error(capsys)
    assert info["error"] == "GrangerError"
    assert "3 * max_lag + 5 = 11 points" in info["message"]
    assert not hist.exists()
