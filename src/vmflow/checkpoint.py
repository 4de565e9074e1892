"""Flat binary checkpoint format for named float32 tensors.

Layout: 8-byte magic, u32 LE tensor count, then per tensor a u16 LE name
length, the UTF-8 name, a u8 rank, rank u64 LE dims, and the raw f32 LE
buffer in C order. Entries are written name-sorted so identical params
always produce identical bytes.
"""
from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"VMFCKPT1"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, tensors: dict):
    """Write named arrays to `path`.

    The bytes go to a temporary file beside `path`, which then replaces it
    in one rename: a failed or interrupted write leaves any earlier file
    at `path` whole. The file is not fsynced, so the write survives a
    process crash but is not made durable against power loss.
    """
    items = [(name, np.asarray(tensors[name], dtype="<f4"))  # tobytes() is C order
             for name in sorted(tensors)]
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(items)))
            for name, arr in items:
                raw = name.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise CheckpointError(f"tensor name too long: {len(raw)} bytes")
                if arr.ndim > 0xFF:
                    raise CheckpointError(f"tensor rank too large: {arr.ndim}")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into a name -> f32 ndarray dict."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:8]!r}, expected {MAGIC!r}")
    off = 8

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"truncated checkpoint at byte {off} (+{n} needed)")
        piece = blob[off:off + n]
        off += n
        return piece

    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("B", take(1))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        n_elem = 1
        for d in dims:
            n_elem *= d
        data = np.frombuffer(take(4 * n_elem), dtype="<f4").reshape(dims)
        out[name] = data.astype(np.float32, copy=True)
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes after last tensor")
    return out
