"""Group splits and attention masks, checked against a per-entry oracle."""
import numpy as np
import pytest
from scipy import stats

from vmflow.mask import (AttentionMask, GroupSplit, MaskError, build_mask,
                         group_count_probs, mask_summary, render_ascii,
                         render_pgm, single_group_mask, split_with_decay)
from vmflow.rng import make_rng


# ---------------------------------------------------------------------------
# independent per-entry oracle: semantic rules, no slice arithmetic shared
# with the implementation

def oracle_allowed(mask: AttentionMask, r: int, c: int) -> bool:
    ce = mask.cond_len + mask.latent_len
    vis = mask.visible_len
    cs = mask.split.cumsum

    def segment(pos):
        if pos < ce:
            return "cond", pos
        if pos < ce + vis:
            return "xp", pos - ce
        return "z", pos - ce - vis

    def group_of(sample_pos):
        g = 0
        while cs[g + 1] <= sample_pos:
            g += 1
        return g

    seg_c, pos_c = segment(c)
    seg_r, pos_r = segment(r)
    if seg_c == "cond":
        return True
    if seg_c == "xp":
        if seg_r in ("xp", "z"):
            return group_of(pos_r) > group_of(pos_c)
        return False
    # z column: only same-group z rows
    return seg_r == "z" and group_of(pos_r) == group_of(pos_c)


def assert_matches_oracle(mask: AttentionMask):
    n = mask.seq_len
    want = np.ones((n, n), dtype=bool)
    for r in range(n):
        for c in range(n):
            if oracle_allowed(mask, r, c):
                want[r, c] = False
    assert np.array_equal(mask.blocked, want), \
        f"mismatch for split {mask.split.sizes}, cond {mask.cond_len}, latent {mask.latent_len}"


# ---------------------------------------------------------------------------
# splits

def test_group_count_probs_decay_half():
    p = group_count_probs(3, 0.5)
    assert np.allclose(p, [4 / 7, 2 / 7, 1 / 7], atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-12


def test_group_count_probs_uniform_when_no_decay():
    assert np.allclose(group_count_probs(5, 1.0), 0.2)


def test_split_single_token_always_one_group():
    for decay in (0.3, 0.9, 1.0):
        s = split_with_decay(1, decay, make_rng(0))
        assert s.sizes == (1,)
        assert s.cumsum == (0, 1)


def test_split_forced_two_groups_cut_at_two():
    s = GroupSplit((2, 2))
    assert s.cumsum == (0, 2, 4)
    assert s.sample_len == 4
    assert s.visible_len == 2


def test_split_invariants_random():
    rng = make_rng(42)
    for trial in range(10_000):
        n = int(rng.integers(1, 17))
        decay = float(rng.choice([0.5, 0.9, 1.0]))
        s = split_with_decay(n, decay, rng)
        assert sum(s.sizes) == n
        assert all(sz >= 1 for sz in s.sizes)
        cs = s.cumsum
        assert cs[0] == 0 and cs[-1] == n
        assert all(a < b for a, b in zip(cs, cs[1:]))
        assert len(cs) == len(s.sizes) + 1


def test_uniform_group_count_chi_square():
    rng = make_rng(7)
    n, draws = 7, 10_000
    counts = np.zeros(n, dtype=int)
    for _ in range(draws):
        counts[len(split_with_decay(n, 1.0, rng).sizes) - 1] += 1
    stat, p = stats.chisquare(counts)
    assert p > 0.01, f"group-count uniformity rejected: chi2={stat:.2f}, p={p:.4f}"


def test_decayed_group_count_matches_probs():
    rng = make_rng(11)
    draws = 20_000
    counts = np.zeros(3, dtype=int)
    for _ in range(draws):
        counts[len(split_with_decay(3, 0.5, rng).sizes) - 1] += 1
    stat, p = stats.chisquare(counts, f_exp=draws * group_count_probs(3, 0.5))
    assert p > 0.01, f"decay-0.5 distribution off: p={p:.4f}"


def test_split_errors():
    with pytest.raises(MaskError):
        split_with_decay(0, 0.5, make_rng(0))
    with pytest.raises(MaskError):
        split_with_decay(4, 0.0, make_rng(0))
    with pytest.raises(MaskError):
        split_with_decay(4, 1.5, make_rng(0))
    with pytest.raises(MaskError):
        GroupSplit(())
    with pytest.raises(MaskError):
        GroupSplit((2, 0, 2))


# ---------------------------------------------------------------------------
# masks

def test_reference_figure_configuration():
    # 4 condition + 4 latent + 9 visible + 10 sample = 27 tokens
    split = GroupSplit((2, 3, 4, 1))
    mask = build_mask(10, 4, 4, split)
    assert mask.seq_len == 27
    assert mask.blocked.shape == (27, 27)
    assert not mask.blocked[:, :8].any()
    assert mask.visible_len == 9
    assert_matches_oracle(mask)


def test_two_group_example():
    mask = build_mask(4, 0, 0, GroupSplit((2, 2)))
    # first x_p group (rows 0..1) sees no x_p columns
    assert mask.blocked[0:2, 0:2].all()
    # second z group (rows 4..5) is open to x_p columns 0..1
    assert not mask.blocked[4:6, 0:2].any()
    # z blocks: group 0 rows 2..3 over cols 2..3, group 1 rows 4..5 over cols 4..5
    assert not mask.blocked[2:4, 2:4].any()
    assert not mask.blocked[4:6, 4:6].any()
    assert mask.blocked[2:4, 4:6].all()
    assert mask.blocked[4:6, 2:4].all()
    assert_matches_oracle(mask)


def test_single_group_mask_has_no_visible_tokens():
    mask = single_group_mask(5, 3, 2)
    assert mask.visible_len == 0
    assert mask.seq_len == 3 + 2 + 0 + 5
    # z rows: condition+latent plus the whole z block, nothing else
    assert not mask.blocked[:, :5].any()
    assert not mask.blocked[5:, 5:].any()
    assert_matches_oracle(mask)


def test_mask_random_draws_match_oracle():
    rng = make_rng(20240812)
    for trial in range(300):
        sample_len = int(rng.integers(1, 17))
        cond_len = int(rng.integers(0, 5))
        latent_len = int(rng.integers(0, 3))
        decay = float(rng.choice([0.5, 0.9, 1.0]))
        split = split_with_decay(sample_len, decay, rng)
        mask = build_mask(sample_len, cond_len, latent_len, split)
        assert mask.blocked.dtype == bool
        assert_matches_oracle(mask)


def test_build_mask_rejects_inconsistent_split():
    with pytest.raises(MaskError, match="split"):
        build_mask(5, 2, 1, GroupSplit((2, 2)))


def test_renderings_cover_every_entry():
    mask = build_mask(4, 1, 1, GroupSplit((2, 2)))
    art = render_ascii(mask)
    grid = [ln[2:] for ln in art.splitlines()[1:]]
    assert len(grid) == mask.seq_len
    for r, line in enumerate(grid):
        for c, ch in enumerate(line):
            assert ch == ("#" if mask.blocked[r, c] else ".")
    pgm = render_pgm(mask)
    head, dims, maxval, *rows = pgm.strip().split("\n")
    assert head == "P2" and dims == "8 8" and maxval == "255"
    flat = " ".join(rows).split()
    assert len(flat) == 64
    assert flat[0] == "255"  # (0,0) is a condition column: open = white

    info = mask_summary(mask)
    assert info["seq_len"] == 8
    assert info["split_sizes"] == [2, 2]
