"""Evaluation metrics on synthetic domains.

Conditional: paired similarity/novelty against references, pairwise
diversity among valid samples, decoder validity; and mode coverage of
mixture samples. Every report names its similarity function so these
numbers are never mistaken for chemistry-metric values measured elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MetricError(ValueError):
    pass


@dataclass
class MetricReport:
    metrics: dict            # name -> percentage in [0, 100]
    overall: float           # exact arithmetic mean of metrics.values()
    n_samples: int
    sim_fn: str = ""
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, v in self.metrics.items():
            if not (0.0 <= v <= 100.0):
                raise MetricError(f"{name} = {v} outside [0, 100]")


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine clipped to [0, 1]: anti-aligned pairs and zero vectors score 0."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a @ b / (na * nb), 0.0, 1.0))


# Rows of the valid set per Gram block in the diversity sum: the block's
# temporaries take O(_BLOCK * n) memory, never O(n^2).
_BLOCK = 256


def _cosines(dots: np.ndarray, norm_a: np.ndarray, norm_b: np.ndarray) -> np.ndarray:
    """cosine_sim's formula on broadcast arrays, written over dots: a.b / (|a||b|),
    0 where either norm is 0, clipped to [0, 1]. A NaN or inf row gives NaN."""
    prod = norm_a * norm_b
    zeros = [z for z in (norm_a == 0.0, norm_b == 0.0) if z.any()]
    for z in zeros:  # divide by 1 where a norm is 0, so no warning is raised there
        np.copyto(prod, 1.0, where=z)
    with np.errstate(invalid="ignore"):  # inf/inf from a non-finite row: NaN
        np.divide(dots, prod, out=dots)
    for z in zeros:
        np.copyto(dots, 0.0, where=z)
    return np.clip(dots, 0.0, 1.0, out=dots)


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _feature_rows(feats: list, side: str) -> np.ndarray:
    """Flatten each feature array into one row of an [n, d] float64 matrix."""
    try:
        return np.stack([np.asarray(x, dtype=np.float64).ravel() for x in feats])
    except ValueError as e:
        raise MetricError(f"{side} feature rows differ in size: {e}") from None


def paired_cosine(gen: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """cosine_sim(gen[i], ref[i]) for every row i of two [n, d] matrices."""
    return _cosines(np.einsum("ij,ij->i", gen, ref), _norms(gen), _norms(ref))


def _mean_pair_cosine(x: np.ndarray) -> float:
    """Mean cosine_sim over the k(k-1)/2 row pairs of x, k >= 2, summed
    over row blocks of the Gram matrix with the diagonal left out, so
    each pair is counted twice."""
    k = x.shape[0]
    norms = _norms(x)
    total = 0.0
    for s in range(0, k, _BLOCK):
        block = _cosines(x[s:s + _BLOCK] @ x.T, norms[s:s + _BLOCK, None], norms)
        np.fill_diagonal(block[:, s:], 0.0)
        total += float(block.sum())
    return total / (k * (k - 1))


def conditional_metrics(gen_feats, ref_feats, sim_fn=cosine_sim, *,
                        valid=None, sim_thresh: float = 0.5,
                        novel_thresh: float = 0.8,
                        sim_name: str = "cosine") -> MetricReport:
    """Paired scoring: sample i is compared to reference i.

    Similarity: fraction with f >= sim_thresh. Novelty: fraction with
    f < novel_thresh. Diversity: mean pairwise (1 - f) among valid
    samples, 0 when fewer than two are valid. Validity: fraction valid.
    cosine_sim clips at 0: an anti-aligned pair has similarity 0, distance 1.

    With the default cosine_sim, f and the pairwise mean are computed in
    matrix form: the diversity sum runs over blocks of Gram rows, O(n^2 /
    block) BLAS work in O(block * n) memory. Each feature array is then
    flattened; ragged rows or a gen/ref width mismatch raise MetricError.
    Any other sim_fn is called once per pair.
    """
    if not np.isfinite([sim_thresh, novel_thresh]).all():
        raise MetricError(f"thresholds must be finite, got {sim_thresh}, {novel_thresh}")
    n = len(gen_feats)
    if n == 0:
        raise MetricError("empty generation set")
    if len(ref_feats) != n:
        raise MetricError(f"paired metrics need equal counts, {n} vs {len(ref_feats)}")
    valid = np.ones(n, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
    if valid.shape != (n,):
        raise MetricError("valid mask length mismatch")

    matrix = sim_fn is cosine_sim
    if matrix:
        g, r = _feature_rows(gen_feats, "generated"), _feature_rows(ref_feats, "reference")
        if g.shape[1] != r.shape[1]:
            raise MetricError(f"feature widths differ, {g.shape[1]} generated "
                              f"vs {r.shape[1]} reference")
        f = paired_cosine(g, r)
    else:
        gen = [np.asarray(x) for x in gen_feats]
        f = np.array([sim_fn(g, np.asarray(r)) for g, r in zip(gen, ref_feats)])
    similarity = float((f >= sim_thresh).mean() * 100.0)
    novelty = float((f < novel_thresh).mean() * 100.0)
    vidx = np.flatnonzero(valid)
    if len(vidx) < 2:
        diversity = 0.0
    elif matrix:
        diversity = (1.0 - _mean_pair_cosine(g[vidx])) * 100.0
    else:
        dists = [1.0 - sim_fn(gen[i], gen[j])
                 for a, i in enumerate(vidx) for j in vidx[a + 1:]]
        diversity = float(np.mean(dists) * 100.0)
    validity = float(valid.mean() * 100.0)
    metrics = {"similarity": similarity, "novelty": novelty,
               "diversity": diversity, "validity": validity}
    return MetricReport(metrics=metrics,
                        overall=float(np.mean([float(v) for v in metrics.values()])),
                        n_samples=n, sim_fn=sim_name,
                        thresholds={"sim": sim_thresh, "novel": novel_thresh})


# ---------------------------------------------------------------------------
# mixture coverage

def mode_coverage(samples: np.ndarray, mode_means: np.ndarray, radius: float) -> float:
    samples = np.asarray(samples, dtype=np.float64)
    means = np.asarray(mode_means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] == 0:
        raise MetricError("no modes")
    if radius <= 0:
        raise MetricError("radius must be positive")
    if samples.ndim != 2 or samples.shape[1] != means.shape[1]:
        raise MetricError(f"samples {samples.shape} vs modes {means.shape}")
    d = np.linalg.norm(samples[:, None, :] - means[None, :, :], axis=2)
    return float((d <= radius).any(axis=0).mean())
