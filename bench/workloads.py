"""The benchmark's three workloads: data, frozen configs and the size of each phase.

The two training configs are copies of the frozen acceptance configs in
tests/test_acceptance.py (c07 ring VMF at lines 408-412, c08 sequences at
lines 447-451); only the seed and the epoch count differ. The seed comes from
--seed, and the epoch count is sized from the run length, since the frozen
300 and 400 epochs take minutes. Keep the copies in step with the tests by
hand: importing them from tests/ would make the benchmark depend on pytest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vmflow.config import RunConfig
from vmflow.datasets import (ToySequenceSpec, make_gmm_dataset,
                             make_sequence_dataset, ring_spec)

F32 = np.float32

# tests/test_acceptance.py:408-412 (VMF branch), seed and epochs replaced
RING_CFG = dict(variant="VMF", width=12, heads=2, blocks=2, latent_dim=4,
                time_freqs=8, phi_hidden=32, lr=2e-3, epochs=300,
                batch_size=256, alpha=0.01)
# tests/test_acceptance.py:447-451, seed and epochs replaced
SEQ_CFG = dict(variant="VMF", width=24, heads=2, blocks=2, latent_dim=8,
               time_freqs=8, phi_hidden=32, lr=1e-3, epochs=400,
               batch_size=64, alpha=1.0, p_inference_layout=0.9,
               time_sampling="lognormal", lognorm_mean=1.2, lognorm_std=1.0)
# tests/test_acceptance.py:438-439, seed replaced
SEQ_SPEC = dict(vocab=6, length=4, dim=8, n_sequences=2500, dominance=0.9,
                scale=4.0)
SEQ_TRAIN_ROWS = 2000  # c08 trains on the first 2000 rows, conditions on the rest

# `vmflow sample` draws from make_rng(seed + this); mirrored from the CLI
SAMPLE_SEED_OFFSET = 100003


@dataclass(frozen=True)
class SampleMode:
    nfe: int
    guidance_w: float
    conditional: bool

    @property
    def passes(self) -> int:
        return 2 if self.conditional and self.guidance_w != 1.0 else 1


@dataclass(frozen=True)
class Workload:
    """A run is a number of equal rounds, so that every phase samples the
    whole run: the host's speed drifts by a quarter over seconds, and a
    phase run once, in one stretch, would read whatever stretch it fell in.

    A round trains `epochs_per_round` more epochs through train_model
    (passing back the previous round's parameters, optimizer and epoch, so
    the rng restarts at seed + epoch as on a resume), loads the final
    checkpoint, draws
    `batches_per_round` sample batches and, every `eval_every` rounds,
    scores the newest `score_n` samples."""
    cfg: dict
    domain: str                 # "ring" or "sequences"
    modes: tuple                # sampling modes, cycled batch by batch
    sample_batch: int           # conditions per sample_batch call
    score_n: int                # size of the scored set
    epochs_per_round: int
    batches_per_round: int
    eval_every: int
    round_s: float              # one round's length on the reference machine

    def plan(self, seconds: float) -> dict:
        """The number of rounds that lasts about `seconds` on the reference
        machine; the work is fixed by it, so a faster program ends sooner."""
        groups = max(1, round(seconds / (self.round_s * self.eval_every)))
        rounds = groups * self.eval_every
        return {"rounds": rounds, "epochs": rounds * self.epochs_per_round,
                "sample_batches": rounds * self.batches_per_round,
                "eval_calls": groups}


WORKLOADS = {
    "ring": Workload(
        cfg=RING_CFG, domain="ring",
        modes=(SampleMode(1, 1.0, True),), sample_batch=1000, score_n=200,
        epochs_per_round=3, batches_per_round=8, eval_every=1, round_s=1.35),
    "seq": Workload(
        cfg=SEQ_CFG, domain="sequences",
        modes=(SampleMode(1, 2.0, True),), sample_batch=500, score_n=200,
        epochs_per_round=3, batches_per_round=3, eval_every=1, round_s=2.0),
    "sample": Workload(
        cfg=SEQ_CFG, domain="sequences",
        modes=(SampleMode(1, 1.5, True), SampleMode(5, 1.0, False)),
        sample_batch=500, score_n=1000,
        epochs_per_round=1, batches_per_round=20, eval_every=2, round_s=4.75),
}


@dataclass
class Data:
    x: np.ndarray          # training rows [N, L, D]
    c: np.ndarray          # training conditions [N, Lc, Dc]
    cond: np.ndarray       # conditions the sampler draws for [M, Lc, Dc]
    ref: np.ndarray        # reference row for each of `cond` [M, L, D]
    mode_means: np.ndarray | None  # ring modes in training coordinates


def make_data(w: Workload, seed: int) -> Data:
    """The workload's inputs; the same seed gives the same arrays."""
    if w.domain == "ring":
        spec = ring_spec(seed=seed)
        data = make_gmm_dataset(spec)
        # c07 standardizes the ring before training
        mu = data.x.mean(axis=0, keepdims=True)
        sd = data.x.std(axis=0, keepdims=True)
        x = ((data.x - mu) / sd).astype(F32)
        means = (np.asarray(spec.means) - mu[0]) / sd[0]
        n = w.sample_batch
        return Data(x=x, c=data.c, cond=data.c[:n], ref=x[:n], mode_means=means)
    spec = ToySequenceSpec(seed=seed, **SEQ_SPEC)
    data = make_sequence_dataset(spec)
    k = SEQ_TRAIN_ROWS
    return Data(x=data.x[:k], c=data.c[:k], cond=data.c[k:], ref=data.x[k:],
                mode_means=None)


def run_config(w: Workload, seed: int, epochs: int) -> RunConfig:
    return RunConfig(**dict(w.cfg, seed=seed, epochs=epochs))
