"""Variant constraint enforcement and config round trips."""
import dataclasses
import json

import numpy as np
import pytest

from vmflow.config import (ConfigError, RunConfig, VariantError,
                           config_from_dict, load_config, save_config)


def test_variant_defaults():
    vmf = RunConfig(variant="VMF")
    assert vmf.alpha == 1e-4 and vmf.beta == 0.0 and vmf.p_equal == 0.5
    assert vmf.variational and vmf.latent_tokens == 1

    mf = RunConfig(variant="MF")
    assert mf.alpha == 0.0 and mf.beta == 0.0 and mf.p_equal == 0.5
    assert not mf.variational and mf.latent_tokens == 0

    mfd = RunConfig(variant="MFD")
    assert mfd.alpha == 0.0 and mfd.beta == 0.5

    vmfd = RunConfig(variant="VMFD")
    assert vmfd.alpha == 1e-4 and vmfd.beta == 0.5

    fm = RunConfig(variant="FM")
    assert fm.p_equal == 1.0 and fm.alpha == 0.0 and fm.beta == 0.0

    rfm = RunConfig(variant="RFM")
    assert rfm.p_equal == 1.0 and rfm.variational and rfm.beta == 0.0


def test_unknown_variant():
    with pytest.raises(VariantError):
        RunConfig(variant="XFM")


def test_constraint_violations():
    with pytest.raises(ConfigError):
        RunConfig(variant="MF", alpha=0.1)       # KL weight without an encoder
    with pytest.raises(ConfigError):
        RunConfig(variant="MFD", alpha=1e-4)
    with pytest.raises(ConfigError):
        RunConfig(variant="MF", beta=0.5)        # dispersive weight on plain MF
    with pytest.raises(ConfigError):
        RunConfig(variant="VMF", beta=0.1)
    with pytest.raises(ConfigError):
        RunConfig(variant="FM", p_equal=0.3)     # instantaneous variants pin r = t
    with pytest.raises(ConfigError):
        RunConfig(variant="RFM", p_equal=0.9)
    with pytest.raises(ConfigError):
        RunConfig(variant="RFM", beta=0.2)


def test_config_is_frozen():
    """A checked config never changes; a changed setting is a new RunConfig."""
    cfg = RunConfig(variant="VMF")
    for field in dataclasses.fields(RunConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field.name, getattr(cfg, field.name))
    assert dataclasses.replace(cfg, seed=4).seed == 4 and cfg.seed == 0


def test_explicit_legal_overrides():
    # alpha = 0 on a variational variant is allowed (it still has the encoder)
    cfg = RunConfig(variant="VMF", alpha=0.0)
    assert cfg.alpha == 0.0 and cfg.latent_tokens == 1
    # p_equal = 1 on MF is allowed (MF does not forbid equal times)
    cfg = RunConfig(variant="MF", p_equal=1.0)
    assert cfg.p_equal == 1.0


def test_range_checks():
    for bad in (dict(tau=0.0), dict(tau=-1.0), dict(cond_dropout=1.5),
                dict(p_inference_layout=-0.1), dict(decay_factor=0.0),
                dict(decay_factor=1.2), dict(time_sampling="beta"),
                dict(nfe=0), dict(disp_block=9), dict(batch_size=0),
                dict(p_equal=1.5), dict(checkpoint_every=0), dict(n_samples=0),
                dict(n_samples=-2)):
        with pytest.raises(ConfigError):
            RunConfig(variant="VMF", **bad)
    # the weights follow the variant sets, FM included
    with pytest.raises(ConfigError, match="variant FM requires beta = 0, got 0.5"):
        RunConfig(variant="FM", beta=0.5)
    with pytest.raises(ConfigError, match="variant FM requires alpha = 0, got 0.3"):
        RunConfig(variant="FM", alpha=0.3)
    with pytest.raises(ConfigError, match="width 64 not divisible by heads 5"):
        RunConfig(variant="VMF", heads=5)


# a wrong-typed value for each kind of field; int fields refuse bools
_WRONG = {"int": [1.5, True, "3", None], "float": ["0.1", True, None],
          "str": [3, None]}


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_field_types_checked(field):
    err = VariantError if field.name == "variant" else ConfigError
    for bad in _WRONG[field.type]:
        with pytest.raises(err, match=field.name):
            RunConfig(**{field.name: bad})


def test_field_types_accept_numeric_kinds():
    cfg = RunConfig(variant="VMF", lr=1, tau=np.float32(0.5), epochs=np.int64(3))
    assert cfg.lr == 1 and cfg.tau == 0.5 and cfg.epochs == 3


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"variant": "VMF", "width": ')
    with pytest.raises(ConfigError, match="bad JSON"):
        load_config(str(path))


def test_config_that_is_not_utf8_is_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"variant": "VMF\xff"}')
    with pytest.raises(ConfigError, match="bad JSON"):
        load_config(str(path))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"variant": "VMF", "learning_rate": 1e-3})


def test_saved_adaptive_l2_false_loads_true_refused(tmp_path):
    # configs saved while RunConfig had adaptive_l2 store it as false
    path = tmp_path / "c.json"
    save_config(str(path), RunConfig(variant="VMF"))
    raw = json.loads(path.read_text())
    for value in (False, True, 0):
        path.write_text(json.dumps(dict(raw, adaptive_l2=value)))
        if value is False:
            assert load_config(str(path)) == RunConfig(variant="VMF")
        else:
            with pytest.raises(ConfigError, match="adaptive_l2"):
                load_config(str(path))


def test_json_round_trip(tmp_path):
    cfg = RunConfig(variant="VMFD", width=32, seed=11, tau=0.7, dataset="gmm")
    path = tmp_path / "config.json"
    save_config(str(path), cfg)
    back = load_config(str(path))
    assert back == cfg
    # file is plain sorted json
    raw = json.loads(path.read_text())
    assert raw["variant"] == "VMFD" and raw["tau"] == 0.7


def test_load_overrides(tmp_path):
    cfg = RunConfig(variant="VMF")
    path = tmp_path / "c.json"
    save_config(str(path), cfg)
    back = load_config(str(path), overrides={"lr": 5e-4, "epochs": 3})
    assert back.lr == 5e-4 and back.epochs == 3 and back.seed == cfg.seed
    with pytest.raises(ConfigError, match="seed must be int, got None"):
        load_config(str(path), overrides={"seed": None})  # applied as given, then checked


def test_override_can_break_constraint(tmp_path):
    path = tmp_path / "c.json"
    save_config(str(path), RunConfig(variant="FM"))
    with pytest.raises(ConfigError):
        load_config(str(path), overrides={"p_equal": 0.3})


def test_failed_save_keeps_the_previous_config(tmp_path):
    path = tmp_path / "config.json"
    save_config(path, RunConfig(variant="VMF"))
    before = path.read_bytes()
    cfg = RunConfig(variant="FM")
    # json.dump has written the keys before it when it fails
    object.__setattr__(cfg, "dataset", object())
    with pytest.raises(TypeError):
        save_config(path, cfg)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
