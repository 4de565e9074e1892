"""Flat binary checkpoint format for named float32 tensors, and the one
writer of every file `vmflow` outputs (`atomic_open`, `write_files`).

Layout: 8-byte magic, u32 LE tensor count, then per tensor a u16 LE name
length, the UTF-8 name, a u8 rank, rank u64 LE dims, and the raw f32 LE
buffer in C order. Entries are written name-sorted so identical params
always produce identical bytes.
"""
from __future__ import annotations

import json
import math
import os
import struct
from contextlib import ExitStack, contextmanager

import numpy as np

MAGIC = b"VMFCKPT1"


class CheckpointError(RuntimeError):
    pass


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside `path` for writing; on a clean exit it
    replaces `path` in one rename. A failed or interrupted write leaves any
    earlier file at `path` whole and removes the temporary file. The file
    is not fsynced, so the write survives a process crash but is not made
    durable against power loss."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:  # name the file asked for
            raise type(e)(e.errno, e.strerror, os.fspath(path)) from None
        raise


def json_text(obj) -> str:
    """The layout of every JSON artifact: indent 2, sorted keys, a newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_files(texts: dict) -> None:
    """Write each path's text through `atomic_open`, all or none: no file is
    renamed into place before every one is written."""
    with ExitStack() as stack:
        for path, text in texts.items():
            stack.enter_context(atomic_open(path)).write(text)


def save_checkpoint(path, tensors: dict):
    """Write named arrays to `path` through `atomic_open`."""
    items = [(name, np.asarray(tensors[name], dtype="<f4"))  # tobytes() is C order
             for name in sorted(tensors)]
    with atomic_open(path, "wb") as fh:
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
        try:  # a name that is not UTF-8, or an empty tensor numpy cannot shape
            name = take(name_len).decode("utf-8")
            (rank,) = struct.unpack("B", take(1))
            dims = struct.unpack(f"<{rank}Q", take(8 * rank))
            if 4 * math.prod(dims) > len(blob) - off:  # before a size is printed
                raise CheckpointError(f"truncated checkpoint: tensor {name!r} runs past the end")
            data = np.frombuffer(take(4 * math.prod(dims)), dtype="<f4").reshape(dims)
        except ValueError as e:
            raise CheckpointError(f"bad tensor before byte {off}: {e}") from None
        out[name] = data.astype(np.float32, copy=True)
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes after last tensor")
    return out
