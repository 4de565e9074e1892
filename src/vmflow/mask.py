"""Autoregressive group splits and the attention mask over [c | h | x_p | z].

The sample axis is cut into N contiguous groups (N drawn with exponentially
decaying probability, cuts uniform without replacement). The mask then
encodes causality across groups: clean visible tokens x_p see strictly
earlier x_p groups, noisy tokens z of group j see x_p groups before j plus
their own z group, and everyone sees condition and latent tokens.
Convention: True = blocked, False = attend.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MaskError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSplit:
    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes:
            raise MaskError("split needs at least one group")
        if any(int(s) <= 0 for s in self.sizes):
            raise MaskError(f"group sizes must be positive, got {self.sizes}")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))

    @property
    def cumsum(self) -> tuple[int, ...]:
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return tuple(out)

    @property
    def sample_len(self) -> int:
        return sum(self.sizes)

    @property
    def visible_len(self) -> int:
        """Length of x_p: everything except the last group."""
        return self.sample_len - self.sizes[-1]


def group_count_probs(sample_len: int, decay_factor: float) -> np.ndarray:
    """P(N = i+1) for i in [0, sample_len): base * decay^i, exactly normalized."""
    if sample_len < 1:
        raise MaskError(f"sample_len must be >= 1, got {sample_len}")
    if not (0.0 < decay_factor <= 1.0):
        raise MaskError(f"decay_factor must be in (0, 1], got {decay_factor}")
    if decay_factor == 1.0:
        return np.full(sample_len, 1.0 / sample_len)
    a = float(decay_factor)
    base = (1.0 - a) / (1.0 - a ** sample_len)
    return base * a ** np.arange(sample_len)


def split_with_decay(sample_len: int, decay_factor: float,
                     rng: np.random.Generator) -> GroupSplit:
    """Draw a group count, then distinct interior cut points."""
    probs = group_count_probs(sample_len, decay_factor)
    n_groups = int(rng.choice(np.arange(1, sample_len + 1), p=probs))
    if n_groups == 1:
        return GroupSplit((sample_len,))
    cuts = np.sort(rng.choice(np.arange(1, sample_len), size=n_groups - 1,
                              replace=False))
    bounds = np.concatenate([[0], cuts, [sample_len]])
    return GroupSplit(tuple(np.diff(bounds).tolist()))


@dataclass(frozen=True)
class AttentionMask:
    blocked: np.ndarray  # bool [seq, seq], True = blocked
    cond_len: int
    latent_len: int
    visible_len: int
    sample_len: int
    split: GroupSplit

    @property
    def seq_len(self) -> int:
        return self.cond_len + self.latent_len + self.visible_len + self.sample_len


def build_mask(sample_len: int, cond_len: int, latent_len: int,
               split: GroupSplit) -> AttentionMask:
    if split.sample_len != sample_len:
        raise MaskError(f"split covers {split.sample_len} tokens, expected {sample_len}")
    if cond_len < 0 or latent_len < 0:
        raise MaskError("segment lengths must be non-negative")
    cs = split.cumsum
    visible_len = split.visible_len
    cond_eff = cond_len + latent_len  # latent tokens behave like extra condition tokens
    xp_off = cond_eff
    z_off = cond_eff + visible_len
    seq = z_off + sample_len

    m = np.ones((seq, seq), dtype=bool)
    m[:, :cond_eff] = False
    n = len(split.sizes)
    # T1: x_p group i sees x_p groups strictly before i (the first group sees none)
    for i in range(n - 1):
        m[xp_off + cs[i]:xp_off + cs[i + 1], xp_off:xp_off + cs[i]] = False
    for j in range(n):
        r0, r1 = z_off + cs[j], z_off + cs[j + 1]
        # T2: z group j sees x_p groups strictly before j
        m[r0:r1, xp_off:xp_off + min(cs[j], visible_len)] = False
        # T3: z group j sees its own z block
        m[r0:r1, z_off + cs[j]:z_off + cs[j + 1]] = False
    return AttentionMask(m, cond_len, latent_len, visible_len, sample_len, split)


def single_group_mask(sample_len: int, cond_len: int, latent_len: int) -> AttentionMask:
    """Inference layout: no visible tokens, one z block."""
    return build_mask(sample_len, cond_len, latent_len, GroupSplit((sample_len,)))


# ---------------------------------------------------------------------------
# rendering for the CLI

def render_ascii(mask: AttentionMask) -> str:
    """'#' = blocked, '.' = attend, with segment rulers on both axes."""
    bounds = _segment_bounds(mask)
    lines = []
    header = "".join("|" if i in bounds else " " for i in range(mask.seq_len))
    lines.append("  " + header)
    for r in range(mask.seq_len):
        row = "".join("#" if mask.blocked[r, c] else "." for c in range(mask.seq_len))
        lines.append(("| " if r in bounds else "  ") + row)
    return "\n".join(lines)


def render_pgm(mask: AttentionMask) -> str:
    """Plain-text PGM (P2), blocked = black like the reference figure."""
    n = mask.seq_len
    rows = "\n".join(" ".join("0" if v else "255" for v in row) for row in mask.blocked)
    return f"P2\n{n} {n}\n255\n{rows}\n"


def mask_summary(mask: AttentionMask) -> dict:
    return {
        "cond_len": mask.cond_len,
        "latent_len": mask.latent_len,
        "visible_len": mask.visible_len,
        "sample_len": mask.sample_len,
        "seq_len": mask.seq_len,
        "split_sizes": list(mask.split.sizes),
        "split_cumsum": list(mask.split.cumsum),
        "blocked_fraction": float(mask.blocked.mean()),
    }


def _segment_bounds(mask: AttentionMask) -> set[int]:
    b = {0}
    off = 0
    for length in (mask.cond_len, mask.latent_len, mask.visible_len, mask.sample_len):
        off += length
        b.add(off)
    return b
