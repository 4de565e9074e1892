"""Checkpoint format: golden bytes, round trips, corruption handling."""
import struct

import numpy as np
import pytest

from vmflow.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint

RNG = np.random.default_rng(99)


def test_golden_bytes_single_tensor(tmp_path):
    # hand-packed reference file, independent of the writer
    arr = np.array([[1.0, -2.5], [0.0, 3.25]], dtype=np.float32)
    golden = (MAGIC
              + struct.pack("<I", 1)
              + struct.pack("<H", 3) + b"w/a"
              + struct.pack("B", 2)
              + struct.pack("<2Q", 2, 2)
              + arr.astype("<f4").tobytes())
    path = tmp_path / "golden.ckpt"
    path.write_bytes(golden)
    loaded = load_checkpoint(path)
    assert list(loaded) == ["w/a"]
    assert np.array_equal(loaded["w/a"], arr)

    out = tmp_path / "rewrite.ckpt"
    save_checkpoint(out, {"w/a": arr})
    assert out.read_bytes() == golden


def test_round_trip_bit_identical(tmp_path):
    tensors = {
        "scalar": np.float32(RNG.standard_normal()).reshape(()),
        "vec": RNG.standard_normal(17).astype(np.float32),
        "mat": RNG.standard_normal((8, 3)).astype(np.float32),
        "cube": RNG.standard_normal((2, 3, 4)).astype(np.float32),
        "tiny/sub/name": RNG.standard_normal((1, 1)).astype(np.float32),
    }
    # include values that stress the float path
    tensors["edge"] = np.array([0.0, -0.0, 1e-38, -1e38, np.pi], dtype=np.float32)
    path = tmp_path / "rt.ckpt"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name].view(np.uint32), np.asarray(arr).view(np.uint32)), name


def test_write_order_is_name_sorted(tmp_path):
    a = RNG.standard_normal(4).astype(np.float32)
    b = RNG.standard_normal(4).astype(np.float32)
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, {"b": b, "a": a})
    save_checkpoint(p2, {"a": a, "b": b})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, {"w": RNG.standard_normal((5, 5)).astype(np.float32)})
    blob = path.read_bytes()
    for cut in (9, 13, 20, len(blob) - 3):
        trunc = tmp_path / f"cut{cut}.ckpt"
        trunc.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(trunc)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, {"w": RNG.standard_normal(3).astype(np.float32)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_failed_save_keeps_existing_file(tmp_path):
    path = tmp_path / "final.ckpt"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)})
    before = path.read_bytes()
    # the name check fails after the header and first tensor are written
    with pytest.raises(CheckpointError):
        save_checkpoint(path, {"a": np.ones(3, dtype=np.float32), "b" * 70000: np.ones(2)})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.ckpt"]
