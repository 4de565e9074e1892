"""Dataset oracles: CLT bounds on mixture draws, exact codec round trips,
noise margins from the measured codeword gap, JSONL persistence."""
import json

import numpy as np
import pytest

from vmflow.datasets import (DatasetError, SequenceCodec,
                             ToySequenceSpec, dominant_token,
                             label_conditions, load_dataset_jsonl,
                             make_gmm_dataset, make_sequence_dataset,
                             read_jsonl, ring_spec, save_dataset_jsonl)
from vmflow.rng import make_rng


def test_ring_mode_means_within_clt_bound():
    spec = ring_spec(n_modes=8, radius=5.0, scale=0.1, samples_per_mode=500, seed=1)
    data = make_gmm_dataset(spec)
    assert data.x.shape == (4000, 1, 2)
    for k, mean in enumerate(spec.means):
        pts = data.x[data.mode_ids == k, 0, :]
        assert pts.shape[0] == 500  # exact per-mode counts
        bound = 3 * 0.1 / np.sqrt(500)
        assert np.all(np.abs(pts.mean(axis=0) - np.asarray(mean)) < bound), k


def test_single_mode_is_standard_normal():
    spec = ring_spec(n_modes=1, radius=0.0, scale=1.0, samples_per_mode=10000, seed=4)
    data = make_gmm_dataset(spec)
    cov = np.cov(data.x[:, 0, :].T)
    assert np.linalg.norm(cov - np.eye(2), ord=2) < 0.1


def test_shared_label_gives_identical_conditions():
    data = make_gmm_dataset(ring_spec(samples_per_mode=10, seed=5))
    assert np.all(data.c == data.c[0])
    assert np.unique(data.labels).tolist() == [0]


def test_distinct_labels_give_distinct_conditions():
    data = make_gmm_dataset(ring_spec(samples_per_mode=5, seed=6,
                                      shared_label=False))
    c_by_label = {int(l): data.c[data.labels == l][0] for l in range(8)}
    vals = np.stack(list(c_by_label.values()))
    assert len(np.unique(vals.round(6), axis=0)) == 8
    # label_conditions reproduces the stored conditions
    again = label_conditions(data.proj, data.labels)
    assert np.array_equal(again, data.c)


def test_gmm_reproducible_and_validated():
    spec = ring_spec(samples_per_mode=20, seed=7)
    a, b = make_gmm_dataset(spec), make_gmm_dataset(spec)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.c, b.c)
    with pytest.raises(DatasetError):
        ring_spec(n_modes=2, radius=0.0)  # duplicate means
    with pytest.raises(DatasetError):
        ring_spec(scale=0.0)  # degenerate covariance
    with pytest.raises(DatasetError):
        label_conditions(a.proj, [99])


def test_codec_round_trip_exact():
    codec = SequenceCodec(vocab=6, length=4, dim=8, seed=11)
    rng = make_rng(12)
    tokens = rng.integers(0, 6, (200, 4))
    assert np.array_equal(codec.decode(codec.encode(tokens)), tokens)


def test_codec_orthonormal_gap_and_noise_margin():
    codec = SequenceCodec(vocab=6, length=4, dim=8, seed=13)
    # orthonormal rows: gap is sqrt(2) up to f32
    assert abs(codec.min_gap - np.sqrt(2.0)) < 1e-5
    rng = make_rng(14)
    tokens = rng.integers(0, 6, (100, 4))
    x = codec.encode(tokens)
    # per-position noise below half the gap cannot flip the decode
    noise = rng.standard_normal(x.shape)
    noise *= 0.45 * codec.min_gap / np.linalg.norm(noise, axis=2, keepdims=True)
    assert np.array_equal(codec.decode((x + noise).astype(np.float32)), tokens)


def test_codec_zero_latent_is_fixed_reference():
    codec = SequenceCodec(vocab=6, length=3, dim=8, seed=15)
    zero = np.zeros((1, 3, 8), dtype=np.float32)
    got = codec.decode(zero)
    # enumerate: the zero vector scores every codeword equally via dot = 0,
    # argmax ties resolve to index 0 per position
    want = np.argmax(zero[0] @ codec.codewords.T, axis=1)[None]
    assert np.array_equal(got, want)
    assert np.array_equal(codec.decode(zero), codec.decode(zero))


def test_codec_validation():
    with pytest.raises(DatasetError):
        SequenceCodec(vocab=10, length=3, dim=8)  # vocab needs dim >= vocab
    codec = SequenceCodec(vocab=4, length=3, dim=8)
    with pytest.raises(DatasetError):
        codec.encode(np.array([[0, 1]]))          # wrong length
    with pytest.raises(DatasetError):
        codec.encode(np.array([[0, 1, 9]]))       # out of vocab
    with pytest.raises(DatasetError):
        codec.decode(np.zeros((1, 3, 5), dtype=np.float32))


def test_dominant_token_rule():
    toks = np.array([[2, 2, 1, 0], [3, 1, 3, 3], [0, 1, 2, 3]])
    got = dominant_token(toks, vocab=4)
    # last row is a four-way tie -> smallest id
    assert got.tolist() == [2, 3, 0]


def test_sequence_dataset_shapes_and_theme_signal():
    spec = ToySequenceSpec(vocab=6, length=4, dim=8, n_sequences=500,
                           dominance=0.7, seed=16)
    data = make_sequence_dataset(spec)
    assert data.x.shape == (500, 4, 8) and data.c.shape == (500, 1, 8)
    assert np.array_equal(data.codec.decode(data.x), data.tokens)
    # conditions are the theme codewords, hence mutually orthonormal
    assert np.array_equal(data.c[:, 0, :], data.codec.codewords[data.themes])
    # themes dominate: most sequences have their theme as modal token
    dom = dominant_token(data.tokens, 6)
    assert (dom == data.themes).mean() > 0.8
    # same theme -> bitwise same condition vector
    for th in range(6):
        rows = data.c[data.themes == th]
        if len(rows):
            assert np.all(rows == rows[0])


def test_sequence_dataset_scale():
    base = ToySequenceSpec(vocab=6, length=4, dim=8, n_sequences=40, seed=16)
    wide = ToySequenceSpec(vocab=6, length=4, dim=8, n_sequences=40, seed=16,
                           scale=3.0)
    a, b = make_sequence_dataset(base), make_sequence_dataset(wide)
    assert np.allclose(b.x, 3.0 * a.x, atol=1e-6)
    # decode is argmax over codeword dot products, so scale cannot flip it
    assert np.array_equal(b.codec.decode(b.x), b.tokens)
    with pytest.raises(DatasetError):
        ToySequenceSpec(scale=0.0)


def test_jsonl_round_trip(tmp_path):
    data = make_gmm_dataset(ring_spec(samples_per_mode=3, seed=17))
    meta = [{"mode": int(m), "label": int(l)}
            for m, l in zip(data.mode_ids, data.labels)]
    path = str(tmp_path / "ds.jsonl")
    save_dataset_jsonl(path, data.x, data.c, meta)
    x2, c2, meta2 = load_dataset_jsonl(path)
    assert np.allclose(x2, data.x, atol=1e-7) and x2.shape == data.x.shape
    assert np.allclose(c2, data.c, atol=1e-7)
    assert meta2[5] == meta[5]


def test_jsonl_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"x": [[1.0]]}\n')  # missing c
    with pytest.raises(DatasetError, match="bad dataset row"):
        load_dataset_jsonl(str(bad))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset_jsonl(str(empty))
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \n")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset_jsonl(str(blank))
    broken = tmp_path / "broken.jsonl"
    broken.write_text('\n{"x": [[1.0]], "c": [[0.0]]}\n{"x": [[1.0]\n')
    with pytest.raises(DatasetError, match="broken.jsonl:3: bad dataset row"):
        load_dataset_jsonl(str(broken))
    with pytest.raises(DatasetError, match="broken.jsonl:3: bad dataset row"):
        read_jsonl(broken)


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    rows = [{"x": [[float(i)]], "c": [[1.0, 2.0]], "meta": {"i": i}} for i in range(3)]
    path.write_text("\n" + "\n\n".join(json.dumps(r) for r in rows) + "\n  \n")
    assert read_jsonl(path) == rows
    x, c, meta = load_dataset_jsonl(str(path))
    assert x.shape == (3, 1, 1) and c.shape == (3, 1, 2)
    assert [m["i"] for m in meta] == [0, 1, 2]


@pytest.mark.parametrize("line", ["[1, 2]", "3", '"x"', "null"])
def test_jsonl_refuses_non_object_rows(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"x": [[1.0]], "c": [[0.0]]}\n\n' + line + "\n")
    for read in (read_jsonl, load_dataset_jsonl):
        with pytest.raises(DatasetError, match="rows.jsonl:3: bad dataset row"):
            read(str(path))


def test_jsonl_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"x": [[1.0]], "c": [[0.0]]}\n\n{"x": [[1.0]], "c": [[0.0]], '
                     b'"meta": "\xff"}\n')
    for read in (read_jsonl, load_dataset_jsonl):
        with pytest.raises(DatasetError, match="rows.jsonl:3: bad dataset row"):
            read(str(path))


@pytest.mark.parametrize("field,rows,bad", [
    ("x", [[[1.0]], [[1.0]], [[1.0, 2.0]]], 3),
    ("x", [[[1.0]], [[1.0], [2.0]]], 2),
    ("c", [[[0.0, 1.0]], [[0.0]]], 2),
])
def test_jsonl_names_first_ragged_row(tmp_path, field, rows, bad):
    path = tmp_path / "ragged.jsonl"
    other = "c" if field == "x" else "x"
    path.write_text("".join(json.dumps({field: v, other: [[1.0]]}) + "\n" for v in rows))
    with pytest.raises(DatasetError, match=f"row {bad}: {field} has shape"):
        load_dataset_jsonl(str(path))


def test_jsonl_row_ragged_inside(tmp_path):
    path = tmp_path / "inner.jsonl"
    path.write_text(json.dumps({"x": [[1.0], [1.0, 2.0]], "c": [[0.0]]}) + "\n")
    with pytest.raises(DatasetError, match="row 1: bad dataset row"):
        load_dataset_jsonl(str(path))
