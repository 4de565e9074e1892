"""End-to-end CLI runs in a temp directory: artifacts, exit codes, determinism."""
import json
import os

import numpy as np
import pytest

from vmflow.checkpoint import load_checkpoint
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


def test_sample_seed_changes_output(trained_run, monkeypatch):
    run = trained_run / "run"
    base = trained_run / "sa.jsonl"
    other = trained_run / "sb.jsonl"
    argv = ["sample", "--run", str(run), "--n", "4", "--out"]
    assert main(argv + [str(base)]) == 0
    monkeypatch.setenv("VMFLOW_SEED", "99")
    assert main(argv + [str(other)]) == 0
    rows = _read_jsonl(other)
    assert all(r["seed"] == 99 for r in rows)
    assert base.read_bytes() != other.read_bytes()


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
               "--epochs", "3",
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
                 "--epochs", "4", "--resume", str(ckpt2)]) == 0
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
    assert main(["train", "--config", str(cfg_path), "--epochs", "3", "--resume",
                 str(run / "checkpoints" / "epoch_0002.ckpt")]) == 0
    rows = _read_jsonl(run / "train.log.jsonl")
    assert [r["step"] for r in rows] == list(range(1, 13))


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


def test_exit_4_missing_file(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json")])
    assert rc == 4
    assert _stderr_error(capsys)["exit_code"] == 4

    cfg = _write_config(tmp_path, tmp_path / "absent.jsonl")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 4


def test_exit_3_for_shape_errors():
    assert _exit_code(ShapeError("x", "y")) == 3


def test_exit_3_eval_without_condition_ids(tmp_path, capsys):
    data = _gen_ring(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"latent": [1.0, 0.0]}) + "\n")
    rc = main(["eval", "--samples", str(bad), "--references", str(data),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "MetricError"


def test_exit_3_eval_ragged_rows(tmp_path, capsys):
    bad = tmp_path / "ragged.jsonl"
    bad.write_text("".join(json.dumps({"latent": v}) + "\n"
                           for v in ([1, 2, 3], [1, 2], [0, 1, 1])))
    rc = main(["eval", "--samples", str(bad), "--references", str(bad),
               "--pair", "order", "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert _stderr_error(capsys)["error"] == "MetricError"


@pytest.mark.parametrize("override", ["width=abc", 'nfe="x"', "epochs=1.5",
                                      "checkpoint_every=0", "n_samples=0"])
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
    assert _stderr_error(capsys)["error"] == "SampleError"
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
