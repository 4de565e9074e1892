"""Synthetic conditional datasets: Gaussian-mixture latents and a toy
token-sequence domain with an exactly invertible linear codec.

The codec replaces pretrained molecule/text converters: codewords are
orthonormal rows of a seeded random rotation, so nearest-codeword decoding
recovers any encoded sequence exactly and every decode is in-vocabulary.
Conditions are one-hot labels pushed through a fixed seeded projection.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_files
from .rng import make_rng, normal_f32

_F32 = np.float32


class DatasetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gaussian mixtures

@dataclass(frozen=True)
class RingSpec:
    """Isotropic Gaussian modes evenly spaced on a 2D circle; one shared
    condition label by default, else one label per mode."""
    n_modes: int = 8
    radius: float = 5.0
    scale: float = 0.1        # per-mode std
    samples_per_mode: int = 500
    seed: int = 0
    shared_label: bool = True
    cond_dim: int = 4

    def __post_init__(self):
        means = self.means
        if not means:
            raise DatasetError("need at least one mode")
        if not 0 < self.scale < np.inf:
            raise DatasetError("covariance scale must be positive and finite")
        if len(set(means)) != len(means):
            raise DatasetError("mode means must be pairwise distinct")
        if self.samples_per_mode < 1 or self.cond_dim < 1:
            raise DatasetError("samples_per_mode and cond_dim must be positive")

    @property
    def means(self) -> tuple[tuple[float, float], ...]:
        angles = 2.0 * np.pi * np.arange(self.n_modes) / self.n_modes
        return tuple((float(self.radius * np.cos(a)), float(self.radius * np.sin(a)))
                     for a in angles)


ring_spec = RingSpec  # the name the CLI and the benchmark call


@dataclass
class GmmData:
    x: np.ndarray          # [N, 1, dim] single-token latents
    c: np.ndarray          # [N, 1, cond_dim]
    mode_ids: np.ndarray   # [N]
    labels: np.ndarray     # [N]
    proj: np.ndarray       # [n_labels, cond_dim] label embedding


def label_conditions(proj: np.ndarray, labels) -> np.ndarray:
    """Projected one-hot labels, shaped [m, 1, cond_dim]."""
    labels = np.asarray(labels, dtype=int)
    if labels.min() < 0 or labels.max() >= proj.shape[0]:
        raise DatasetError("label outside projection table")
    return proj[labels][:, None, :].astype(_F32)


def make_gmm_dataset(spec: RingSpec) -> GmmData:
    rng = make_rng(spec.seed)
    # projection first so conditions are fixed under resampling tweaks
    proj = normal_f32(rng, (1 if spec.shared_label else spec.n_modes, spec.cond_dim))
    xs, modes = [], []
    for k, mean in enumerate(spec.means):
        pts = (np.asarray(mean, dtype=_F32)
               + _F32(spec.scale) * normal_f32(rng, (spec.samples_per_mode, len(mean))))
        xs.append(pts.astype(_F32))
        modes.append(np.full(spec.samples_per_mode, k, dtype=int))
    x = np.concatenate(xs)[:, None, :]
    mode_ids = np.concatenate(modes)
    labels = np.zeros_like(mode_ids) if spec.shared_label else mode_ids.copy()
    return GmmData(x=x, c=label_conditions(proj, labels), mode_ids=mode_ids,
                   labels=labels, proj=proj)


# ---------------------------------------------------------------------------
# token sequences through an orthonormal codec

class SequenceCodec:
    """Tokens <-> latent rows via orthonormal codewords.

    Distinct codewords sit at distance sqrt(2), so any per-position
    perturbation below sqrt(2)/2 still decodes to the original token.
    """

    def __init__(self, vocab: int, length: int, dim: int, seed: int = 0):
        if vocab < 2 or length < 1:
            raise DatasetError("need vocab >= 2 and length >= 1")
        if vocab > dim:
            raise DatasetError(f"orthonormal codec needs dim >= vocab, "
                               f"got dim={dim} vocab={vocab}")
        self.vocab = vocab
        self.length = length
        self.dim = dim
        rng = make_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        self.codewords = q[:vocab].astype(_F32)

    @property
    def min_gap(self) -> float:
        diffs = self.codewords[:, None, :] - self.codewords[None, :, :]
        d = np.sqrt((diffs ** 2).sum(-1))
        return float(d[~np.eye(self.vocab, dtype=bool)].min())

    def encode(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[1] != self.length:
            raise DatasetError(f"tokens must be [m, {self.length}], got {tokens.shape}")
        if tokens.min() < 0 or tokens.max() >= self.vocab:
            raise DatasetError("token outside vocabulary")
        return self.codewords[tokens].astype(_F32)

    def decode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=_F32)
        if x.ndim != 3 or x.shape[1] != self.length or x.shape[2] != self.dim:
            raise DatasetError(f"latent must be [m, {self.length}, {self.dim}], "
                               f"got {x.shape}")
        # orthonormal rows: nearest codeword == largest inner product
        scores = x @ self.codewords.T
        return scores.argmax(axis=2)


@dataclass(frozen=True)
class ToySequenceSpec:
    vocab: int = 6
    length: int = 4
    dim: int = 8
    n_sequences: int = 2000
    dominance: float = 0.6   # probability each position repeats the theme token
    seed: int = 0
    scale: float = 1.0       # feature magnitude; codeword decode is scale-free

    def __post_init__(self):
        if not 0.0 < self.dominance <= 1.0:
            raise DatasetError("dominance must be in (0, 1]")
        if not 0.0 < self.scale < np.inf:
            raise DatasetError("scale must be positive and finite")
        if self.n_sequences < 1:
            raise DatasetError("n_sequences must be >= 1")


@dataclass
class SequenceData:
    x: np.ndarray          # [N, length, dim]
    c: np.ndarray          # [N, 1, dim]
    tokens: np.ndarray     # [N, length]
    themes: np.ndarray     # [N] dominant token drawn per sequence
    codec: SequenceCodec
    proj: np.ndarray       # [vocab, dim] condition row per theme


def dominant_token(tokens: np.ndarray, vocab: int) -> np.ndarray:
    """Most frequent token per sequence, ties to the smallest id."""
    tokens = np.asarray(tokens)
    counts = np.zeros((tokens.shape[0], vocab), dtype=int)
    for v in range(vocab):
        counts[:, v] = (tokens == v).sum(axis=1)
    return counts.argmax(axis=1)


def make_sequence_dataset(spec: ToySequenceSpec) -> SequenceData:
    """Theme-dominated sequences: the condition is the theme's own codeword,
    so conditional generation has a concrete learnable signal.

    Codeword conditions are mutually orthonormal, which keeps the six theme
    codes well separated; a random Gaussian projection at this width can put
    pairs of labels nearly parallel and the conditioning signal dies.
    """
    rng = make_rng(spec.seed)
    codec = SequenceCodec(spec.vocab, spec.length, spec.dim, seed=spec.seed + 1)
    proj = codec.codewords
    themes = rng.integers(0, spec.vocab, spec.n_sequences)
    keep = rng.random((spec.n_sequences, spec.length)) < spec.dominance
    noise = rng.integers(0, spec.vocab, (spec.n_sequences, spec.length))
    tokens = np.where(keep, themes[:, None], noise)
    x = codec.encode(tokens) * np.float32(spec.scale)
    return SequenceData(x=x, c=label_conditions(proj, themes),
                        tokens=tokens, themes=themes, codec=codec, proj=proj)


# ---------------------------------------------------------------------------
# JSONL persistence

def save_dataset_jsonl(path: str, x: np.ndarray, c: np.ndarray, meta: list[dict]) -> None:
    n = x.shape[0]
    if len(meta) != n or c.shape[0] != n:
        raise DatasetError("x, c, meta lengths differ")
    if not (np.isfinite(x).all() and np.isfinite(c).all()):  # the reader's row rule
        raise DatasetError(f"{path}: x and c must be finite")
    rows = [{"x": np.asarray(x[i], dtype=float).tolist(),
             "c": np.asarray(c[i], dtype=float).tolist(),
             "meta": meta[i]} for i in range(n)]
    write_files({path: "".join(json.dumps(row) + "\n" for row in rows)})


def _parse_row(path, line_no: int, line: bytes) -> dict:
    """One JSONL line as an object, or DatasetError naming path:line."""
    try:
        row = json.loads(line.decode("utf-8"))
    except ValueError as e:
        raise DatasetError(f"{path}:{line_no}: bad dataset row ({e})") from None
    if not isinstance(row, dict):
        raise DatasetError(f"{path}:{line_no}: bad dataset row (expected "
                           f"a JSON object, got {type(row).__name__})")
    return row


def read_jsonl(path) -> list[dict]:
    """Every non-blank line of a JSONL file, parsed. Raises DatasetError
    naming path:line on a bad row, and when the file has no rows."""
    with open(path, "rb") as fh:
        rows = [_parse_row(path, n, line) for n, line in enumerate(fh, start=1)
                if line.strip()]
    if not rows:
        raise DatasetError(f"{path}: empty dataset")
    return rows


def read_train_log(path, last_step: int) -> str:
    """The rows of a `vmflow train` log up to `last_step`, as written. The
    cut also stops at a row without a newline, as a crash leaves it; every
    complete row it reads must be an object with a numeric step."""
    kept = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                break
            step = _parse_row(path, line_no, line).get("step")
            if type(step) not in (int, float):
                raise DatasetError(f"{path}:{line_no}: bad dataset row (no numeric step)")
            if not step <= last_step:  # a NaN step ends the cut too
                break
            kept.append(line.decode("utf-8"))
    return "".join(kept)


def row_array(row: dict, key: str, path, i: int, dtype=_F32) -> np.ndarray:
    """Row i's field `key` as an array, or DatasetError naming path and row."""
    try:
        return np.asarray(row[key], dtype=dtype)
    except (KeyError, TypeError, ValueError) as e:
        raise DatasetError(f"{path}: row {i}: bad dataset row ({e!r})") from None


def load_dataset_jsonl(path: str) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """A dataset's x, c and meta. In every row, x and c are finite arrays of
    shape [len >= 1, dim >= 1], and each has the same shape in every row."""
    rows = read_jsonl(path)
    stacked = []
    for name in ("x", "c"):
        arrs = [row_array(row, name, path, i) for i, row in enumerate(rows, start=1)]
        for i, a in enumerate(arrs, start=1):
            if a.ndim != 2 or not a.size or not np.isfinite(a).all():
                raise DatasetError(f"{path}: row {i}: {name} must be a finite "
                                   f"[len >= 1, dim >= 1] array, got shape {a.shape}")
            if a.shape != arrs[0].shape:
                raise DatasetError(f"{path}: row {i}: {name} has shape {a.shape}, "
                                   f"row 1 has {arrs[0].shape}")
        stacked.append(np.stack(arrs))
    return stacked[0], stacked[1], [row.get("meta", {}) for row in rows]
