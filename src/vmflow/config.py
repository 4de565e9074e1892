"""Run configuration: variants, loss weights, training and sampling knobs.

Variant rules: the variational branch exists only for VMF/VMFD/RFM; the
dispersive term only for MFD/VMFD; FM and RFM always train with r = t.
Unset weights are filled per variant, explicit values are validated.
"""
from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    """A config invariant is violated; message names the offending field."""


class VariantError(ValueError):
    """Unknown model variant."""


VARIANTS = ("MF", "VMF", "MFD", "VMFD", "FM", "RFM")
VARIATIONAL = {"VMF", "VMFD", "RFM"}
DISPERSIVE = {"MFD", "VMFD"}
EQUAL_TIMES = {"FM", "RFM"}  # instantaneous-velocity training only

_UNSET = -1.0

# field annotation -> accepted values; bool is an Integral, so int excludes it
_FIELD_TYPES = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


@dataclass
class RunConfig:
    variant: str = "VMF"
    # model
    width: int = 64
    heads: int = 4
    blocks: int = 4
    latent_dim: int = 16
    time_freqs: int = 8
    phi_hidden: int = 64
    # loss weights (negative = fill by variant)
    alpha: float = _UNSET
    beta: float = _UNSET
    tau: float = 1.0
    # training
    lr: float = 1e-3
    epochs: int = 10
    batch_size: int = 64   # sets n // batch_size near-equal batches per epoch, not their rows
    p_equal: float = _UNSET
    time_sampling: str = "uniform"   # or "lognormal"
    lognorm_mean: float = -0.4
    lognorm_std: float = 1.0
    adaptive_l2: bool = False
    cond_dropout: float = 0.1
    p_inference_layout: float = 0.1
    decay_factor: float = 0.9
    disp_block: int = -1             # -1 = middle block
    checkpoint_every: int = 5        # epochs
    # sampling
    guidance_w: float = 1.5
    nfe: int = 1
    n_samples: int = 500
    # io / reproducibility
    seed: int = 0
    dataset: str = ""
    out_dir: str = "runs/out"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise VariantError(f"unknown variant '{self.variant}', expected one of {VARIANTS}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _FIELD_TYPES[f.type](value):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        self._fill_defaults()
        self._check()

    def _fill_defaults(self):
        if self.alpha == _UNSET:
            self.alpha = 1e-4 if self.variant in VARIATIONAL else 0.0
        if self.beta == _UNSET:
            self.beta = 0.5 if self.variant in DISPERSIVE else 0.0
        if self.p_equal == _UNSET:
            self.p_equal = 1.0 if self.variant in EQUAL_TIMES else 0.5
        if self.disp_block < 0:
            self.disp_block = self.blocks // 2

    def _check(self):
        v = self.variant
        if v in ("MF", "MFD") and self.alpha != 0.0:
            raise ConfigError(f"variant {v} requires alpha = 0, got {self.alpha}")
        if v in ("MF", "VMF") and self.beta != 0.0:
            raise ConfigError(f"variant {v} requires beta = 0, got {self.beta}")
        if v in EQUAL_TIMES and self.p_equal != 1.0:
            raise ConfigError(f"variant {v} requires p_equal = 1, got {self.p_equal}")
        if v == "RFM" and self.beta != 0.0:
            raise ConfigError(f"variant RFM requires beta = 0, got {self.beta}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be non-negative")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not (0.0 <= self.p_equal <= 1.0):
            raise ConfigError(f"p_equal must be in [0,1], got {self.p_equal}")
        if not (0.0 <= self.cond_dropout <= 1.0):
            raise ConfigError(f"cond_dropout must be in [0,1], got {self.cond_dropout}")
        if not (0.0 <= self.p_inference_layout <= 1.0):
            raise ConfigError(f"p_inference_layout must be in [0,1], got {self.p_inference_layout}")
        if not (0.0 < self.decay_factor <= 1.0):
            raise ConfigError(f"decay_factor must be in (0,1], got {self.decay_factor}")
        if self.time_sampling not in ("uniform", "lognormal"):
            raise ConfigError(f"time_sampling must be uniform|lognormal, got {self.time_sampling}")
        if self.nfe < 1:
            raise ConfigError(f"nfe must be >= 1, got {self.nfe}")
        if self.disp_block >= self.blocks:
            raise ConfigError(f"disp_block {self.disp_block} out of range for {self.blocks} blocks")
        for field in ("width", "heads", "blocks", "latent_dim", "epochs", "batch_size",
                      "checkpoint_every", "n_samples"):
            if getattr(self, field) < 1:
                raise ConfigError(f"{field} must be positive")

    @property
    def variational(self) -> bool:
        return self.variant in VARIATIONAL

    @property
    def latent_tokens(self) -> int:
        return 1 if self.variational else 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(raw: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**raw)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: bad JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(raw)


def save_config(path, cfg: RunConfig):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
