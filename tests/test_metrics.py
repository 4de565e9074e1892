"""Metric formula oracles: hand-computed values, a brute-force recompute,
permutation invariance, and the exact-overall invariant."""
import numpy as np
import pytest

from vmflow.datasets import make_gmm_dataset, ring_spec
from vmflow.metrics import (_BLOCK, MetricError, MetricReport,
                            conditional_metrics, cosine_sim, mode_coverage,
                            paired_cosine)
from vmflow.rng import make_rng


def test_cosine_basics():
    assert cosine_sim([1, 0], [2, 0]) == 1.0
    assert cosine_sim([1, 0], [0, 3]) == 0.0
    assert cosine_sim([0, 0], [1, 1]) == 0.0


def test_identical_sets_hand_values():
    feats = [np.array([1.0, 2.0, 0.5]) for _ in range(5)]
    rep = conditional_metrics(feats, feats)
    assert rep.metrics["similarity"] == 100.0
    assert rep.metrics["novelty"] == 0.0
    assert rep.metrics["diversity"] == 0.0
    assert rep.metrics["validity"] == 100.0


def test_orthogonal_sets_hand_values():
    gen = [np.array([1.0, 0.0]) for _ in range(4)]
    ref = [np.array([0.0, 1.0]) for _ in range(4)]
    rep = conditional_metrics(gen, ref)
    assert rep.metrics["similarity"] == 0.0
    assert rep.metrics["novelty"] == 100.0


def test_diversity_formula_sixty():
    # pairwise f = {0.2, 0.4, 0.6}: diversity (0.8 + 0.6 + 0.4)/3 * 100 = 60
    table = {(0, 1): 0.2, (0, 2): 0.4, (1, 2): 0.6}

    def sim(a, b):
        i, j = int(a[0]), int(b[0])
        if i == j:
            return 1.0
        return table[(min(i, j), max(i, j))]

    feats = [np.array([0]), np.array([1]), np.array([2])]
    rep = conditional_metrics(feats, feats, sim_fn=sim, sim_name="table")
    assert abs(rep.metrics["diversity"] - 60.0) < 1e-9
    assert rep.sim_fn == "table"


def test_diversity_zero_below_two_valid():
    feats = [np.array([1.0, 0.0]) for _ in range(3)]
    rep = conditional_metrics(feats, feats, valid=[True, False, False])
    assert rep.metrics["diversity"] == 0.0
    assert abs(rep.metrics["validity"] - 100.0 / 3.0) < 1e-9


def test_conditional_brute_force_oracle():
    rng = make_rng(2)
    n = 12
    gen = [np.abs(rng.standard_normal(5)) for _ in range(n)]
    ref = [np.abs(rng.standard_normal(5)) for _ in range(n)]
    valid = rng.random(n) < 0.8
    rep = conditional_metrics(gen, ref, valid=valid)

    # independent recompute, plain loops
    sim_hits = nov_hits = 0
    for g, r in zip(gen, ref):
        f = float(np.dot(g, r) / (np.linalg.norm(g) * np.linalg.norm(r)))
        sim_hits += f >= 0.5
        nov_hits += f < 0.8
    vi = [i for i in range(n) if valid[i]]
    dsum, dcount = 0.0, 0
    for a in range(len(vi)):
        for b in range(a + 1, len(vi)):
            g1, g2 = gen[vi[a]], gen[vi[b]]
            dsum += 1.0 - float(np.dot(g1, g2) /
                                (np.linalg.norm(g1) * np.linalg.norm(g2)))
            dcount += 1
    assert abs(rep.metrics["similarity"] - sim_hits / n * 100) < 1e-9
    assert abs(rep.metrics["novelty"] - nov_hits / n * 100) < 1e-9
    assert abs(rep.metrics["diversity"] - dsum / dcount * 100) < 1e-7
    assert abs(rep.metrics["validity"] - np.mean(valid) * 100) < 1e-9


def test_conditional_permutation_invariant():
    rng = make_rng(3)
    n = 10
    gen = [np.abs(rng.standard_normal(4)) for _ in range(n)]
    ref = [np.abs(rng.standard_normal(4)) for _ in range(n)]
    rep = conditional_metrics(gen, ref)
    perm = rng.permutation(n)
    rep2 = conditional_metrics([gen[i] for i in perm], [ref[i] for i in perm])
    for k in rep.metrics:
        assert abs(rep.metrics[k] - rep2.metrics[k]) < 1e-9


def test_overall_is_exact_mean():
    feats = [np.array([1.0, 1.0]) for _ in range(4)]
    rep = conditional_metrics(feats, feats)
    assert rep.overall == float(np.mean(list(rep.metrics.values())))
    with pytest.raises(MetricError):
        MetricReport(metrics={"similarity": 105.0}, overall=105.0, n_samples=1)


def test_conditional_errors():
    with pytest.raises(MetricError):
        conditional_metrics([], [])
    with pytest.raises(MetricError):
        conditional_metrics([np.ones(2)], [np.ones(2), np.ones(2)])
    with pytest.raises(MetricError, match="generated feature rows"):
        conditional_metrics([np.ones(3), np.ones(2)], [np.ones(3), np.ones(3)])
    with pytest.raises(MetricError, match="reference feature rows"):
        conditional_metrics([np.ones(3), np.ones(3)], [np.ones(3), np.ones(2)])
    with pytest.raises(MetricError, match="widths differ"):
        conditional_metrics([np.ones(3), np.ones(3)], [np.ones(2), np.ones(2)])


# ---------------------------------------------------------------------------
# the matrix path (default cosine_sim) against the per-pair path

def _per_pair(a, b):
    return cosine_sim(a, b)


def _assert_paths_agree(gen, ref, valid=None):
    got = conditional_metrics(gen, ref, valid=valid)
    want = conditional_metrics(gen, ref, _per_pair, valid=valid)
    for k in want.metrics:
        assert abs(got.metrics[k] - want.metrics[k]) <= 1e-9, k
    return got


@pytest.mark.parametrize("n", [2, 3, _BLOCK, 2 * _BLOCK + 3])
def test_matrix_path_matches_per_pair_across_blocks(n):
    rng = make_rng(n)
    gen = list(rng.standard_normal((n, 6)))  # signed, so blocks clip too
    ref = list(rng.standard_normal((n, 6)))
    valid = rng.random(n) < 0.9
    valid[:2] = True
    _assert_paths_agree(gen, ref)
    _assert_paths_agree(gen, ref, valid)


def test_matrix_path_zero_rows_and_negative_cosines():
    rng = make_rng(21)
    gen = list(rng.standard_normal((40, 5)))  # signed: about half the cosines < 0
    ref = list(rng.standard_normal((40, 5)))
    gen[0][:] = 0.0
    gen[7][:] = 0.0
    ref[3][:] = 0.0
    gen[5], gen[6] = np.ones(5), -np.ones(5)  # cosine -1, clipped to 0
    rep = _assert_paths_agree(gen, ref)
    assert 0.0 < rep.metrics["diversity"] <= 100.0
    assert _assert_paths_agree([np.ones(5), -np.ones(5)], [np.ones(5)] * 2
                               ).metrics["diversity"] == 100.0


@pytest.mark.filterwarnings("ignore:invalid value")  # the per-pair path's inf/inf
def test_matrix_path_non_finite_rows():
    rng = make_rng(22)
    gen = list(np.abs(rng.standard_normal((12, 4))))
    ref = list(np.abs(rng.standard_normal((12, 4))))
    gen[2][1] = np.nan
    gen[9][0] = np.inf
    valid = np.array([np.all(np.isfinite(g)) for g in gen])
    rep = _assert_paths_agree(gen, ref, valid)
    # a non-finite row's f is NaN: it counts toward neither similarity nor novelty
    f = paired_cosine(np.stack(gen), np.stack(ref))
    assert np.isnan(f[[2, 9]]).all() and np.isfinite(f[valid]).all()
    fin = f[valid]
    assert rep.metrics["similarity"] == float(np.sum(fin >= 0.5) / 12 * 100.0)
    assert rep.metrics["novelty"] == float(np.sum(fin < 0.8) / 12 * 100.0)
    for sim_fn in (cosine_sim, _per_pair):
        with pytest.raises(MetricError):
            conditional_metrics(gen, ref, sim_fn)
    # zero rows score 0 against a NaN row, which leaves diversity finite
    rep = _assert_paths_agree([gen[2], np.zeros(4), np.zeros(4)], ref[:3])
    assert rep.metrics["diversity"] == 100.0


def test_matrix_path_one_valid_row():
    rng = make_rng(23)
    gen = list(np.abs(rng.standard_normal((5, 3))))
    valid = [False, False, True, False, False]
    rep = _assert_paths_agree(gen, gen, valid)
    assert rep.metrics["diversity"] == 0.0


def test_matrix_path_flattens_gen_rows_against_flat_refs():
    rng = make_rng(24)
    gen = list(np.abs(rng.standard_normal((30, 3, 4))))  # [L, D] per sample
    ref = list(np.abs(rng.standard_normal((30, 12))))    # [L * D]
    _assert_paths_agree(gen, ref)


# ---------------------------------------------------------------------------
# coverage

def test_coverage_exact_means():
    means = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    assert mode_coverage(means.copy(), means, radius=0.1) == 1.0


def test_coverage_single_mode_fraction():
    means = np.stack([np.array([np.cos(a), np.sin(a)]) * 5
                      for a in 2 * np.pi * np.arange(8) / 8])
    samples = np.tile(means[2], (100, 1))
    assert mode_coverage(samples, means, radius=0.3) == 1.0 / 8.0


def test_coverage_true_mixture_oracle():
    spec = ring_spec(n_modes=8, radius=5.0, scale=0.1, samples_per_mode=125,
                     seed=7)
    data = make_gmm_dataset(spec)  # 1000 exact draws from the true mixture
    means = np.asarray(spec.means)
    assert mode_coverage(data.x[:, 0, :], means, radius=3 * 0.1) == 1.0


def test_coverage_min_count_and_errors():
    means = np.array([[0.0, 0.0], [5.0, 0.0]])
    samples = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
    assert mode_coverage(samples, means, radius=0.5, min_count=2) == 0.5
    with pytest.raises(MetricError):
        mode_coverage(samples, means, radius=0.0)
    with pytest.raises(MetricError):
        mode_coverage(samples, np.zeros((0, 2)), radius=1.0)
    with pytest.raises(MetricError):
        mode_coverage(samples[:, :1], means, radius=1.0)
