"""Run configuration: schema, parsing, overrides, model-config mapping."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from crossmim.config import (SCHEMA, ModelConfig, RunConfig, desk_config, load_config,
                             paper_config, parse_config_text)
from crossmim.errors import ConfigError, ShapeError
from crossmim.masking import draw_mask, to_token_mask
from crossmim.training import TrainConfig, stream_rng
from crossmim.transfer import TransferConfig


def test_model_config_validation():
    with pytest.raises(ConfigError, match="mask unit"):
        ModelConfig(image_w=30, image_h=32)
    with pytest.raises(ConfigError, match="patch"):
        ModelConfig(image_w=24, image_h=24, mask_unit=6, patch_size=4)
    with pytest.raises(ConfigError, match="ratio"):
        ModelConfig(mask_ratio=1.0)
    with pytest.raises(ConfigError, match="p_cross"):
        ModelConfig(p_cross=-0.2)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="aux_weight"):
            ModelConfig(aux_weight=bad)
    assert ModelConfig(aux_weight=0.0).aux_weight == 0.0


@pytest.mark.parametrize("w,h", [(8, 8), (8, 16), (16, 8), (16, 16), (12, 12)])
def test_model_config_builds_exactly_the_maskable_geometries(w, h):
    """A config that builds draws a mask and maps it to its tokens; a config
    that is refused has a geometry the masking itself would refuse."""
    rng = np.random.default_rng(0)
    for patch in (1, 2, 4, 8):
        for unit in (1, 2, 4, 8, 16):
            try:
                cfg = ModelConfig(image_w=w, image_h=h, patch_size=patch, mask_unit=unit)
            except ConfigError:
                with pytest.raises(ShapeError):
                    to_token_mask(draw_mask(w, h, unit, 0.6, rng), patch)
                continue
            tokens = to_token_mask(draw_mask(w, h, cfg.mask_unit, cfg.mask_ratio, rng),
                                   cfg.patch_size)
            assert tokens.shape == (cfg.tokens,)
            assert 0 < tokens.sum() < cfg.tokens


def test_model_config_tokens_and_encoder_view():
    # encode reads the ModelConfig itself; its MoE slots come from moe_block_indices
    cfg = ModelConfig(width=32, depth=6, image_w=32, image_h=16, patch_size=4)
    assert cfg.tokens == 8 * 4
    assert cfg.depth == 6 and cfg.width == 32
    assert cfg.moe_block_indices == (1, 3, 5)
    assert ModelConfig(moe=False).moe_block_indices == ()


def test_parse_config_text_types_and_comments():
    run = parse_config_text(
        "# a comment\n"
        "seed = 7\n"
        "\n"
        "model.mask_ratio = 0.4  # trailing comment\n"
        "model.moe = off\n"
        "train.milestones = 3,5\n"
        "transfer.sensors = sar, optical\n"
    )
    assert run["seed"] == 7
    assert run["model.mask_ratio"] == 0.4
    assert run["model.moe"] is False
    assert run["train.milestones"] == (3, 5)
    assert run["transfer.sensors"] == ("sar", "optical")
    assert run["model.depth"] == 4  # untouched keys keep schema defaults


@pytest.mark.parametrize("text,fragment", [
    ("seed 7", "line 1"),
    ("nonsense.key = 1", "unknown config key"),
    ("seed = 1\nseed = 2", "duplicate"),
    ("seed = abc", "bad value"),
    ("model.moe = maybe", "boolean"),
])
def test_parse_config_text_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig({"bogus": 1})
    with pytest.raises(ConfigError):
        desk_config()["bogus"]
    with pytest.raises(ConfigError):
        desk_config().with_overrides({"bogus": "1"})


def test_with_overrides_parses_strings_and_passes_values():
    run = desk_config().with_overrides({"train.epochs": "9", "model.moe": "false"})
    assert run["train.epochs"] == 9
    assert run["model.moe"] is False
    run2 = run.with_overrides({"model.moe": True, "train.p_cross": 0.25})
    assert run2["model.moe"] is True and run2["train.p_cross"] == 0.25
    assert run["train.p_cross"] == 0.5  # overrides don't mutate the source


def test_to_text_round_trips_exactly():
    run = desk_config().with_overrides({
        "train.base_lr": "0.00037", "train.milestones": "2,4",
        "transfer.sensors": "sar", "model.moe": "no",
    })
    back = parse_config_text(run.to_text())
    for key in ("train.base_lr", "train.milestones", "transfer.sensors",
                "model.moe", "seed"):
        assert back[key] == run[key]
    assert back.to_text() == run.to_text()


def test_model_config_view_pulls_from_flat_keys():
    run = desk_config().with_overrides({
        "model.width": "24", "data.width": "16", "data.height": "48",
        "train.p_cross": "0.2", "model.heads": "3",
        "seed": "5", "train.epochs": "7", "transfer.classes": "3",
    })
    mcfg = run.model_config()
    assert mcfg.width == 24
    assert (mcfg.image_w, mcfg.image_h) == (16, 48)
    assert mcfg.p_cross == 0.2
    assert mcfg.heads == 3
    tcfg = run.build(TrainConfig)
    assert (tcfg.seed, tcfg.epochs) == (5, 7)
    assert run.build(TransferConfig).num_classes == 3


def test_schema_defaults_match_dataclass_defaults():
    run = desk_config()
    assert run.model_config() == ModelConfig()
    assert run.build(TrainConfig) == TrainConfig()
    assert run.build(TransferConfig) == TransferConfig()


def test_presets():
    desk = desk_config()
    assert desk["data.registry"] == "desk"
    assert desk["model.num_experts"] == 4
    big = paper_config()
    assert big["model.depth"] == 18
    assert big["train.epochs"] == 800
    assert big["train.milestones"] == (700,)
    assert big["model.num_experts"] == 8


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.cfg"))


@pytest.mark.parametrize("key", sorted(SCHEMA))
def test_any_typed_value_builds_usable_configs_or_raises_config_error(key):
    """A value a user can type either builds configs the commands can use
    (finite floats, a valid seed, positive sample counts) or raises
    ConfigError, which the CLI maps to exit 2; no other exception escapes."""
    for raw in ("abc", "0", "-1", "nan", "inf", "1e12"):
        try:
            run = desk_config().with_overrides({key: raw})
            built = (run.model_config(), run.build(TrainConfig),
                     run.build(TransferConfig))
        except ConfigError:
            continue
        floats = [getattr(c, f.name) for c in built for f in fields(c)
                  if isinstance(getattr(c, f.name), float)]
        assert all(math.isfinite(v) for v in floats), (key, raw)
        assert run["eval.samples"] >= 1 and run["reconstruct.samples"] >= 1, (key, raw)
        stream_rng(run["seed"], 0)


# key -> (config dataclass, field name) for every field that reads a key
OWNERS = {f.metadata["key"]: (cls, f.name)
          for cls in (ModelConfig, TrainConfig, TransferConfig)
          for f in fields(cls) if "key" in f.metadata}
RANGED = sorted(k for k, (_, _, allowed) in SCHEMA.items() if allowed is not None)


def range_edges(key):
    """(the nearest values outside the key's range, its closed bounds)."""
    kind, _, allowed = SCHEMA[key]

    def past(x, way):  # the next value of the key's type beyond x, way = -1 or 1
        return x + way if kind == "int" else math.nextafter(x, way * math.inf)

    outside, closed = {
        ">= 1": ([past(1, -1)], [1]),
        ">= 0": ([past(0, -1)], [0]),
        "> 0": ([0], []),
        "in (0, 1)": ([0, 1], []),
        "in [0, 1)": ([past(0, -1), 1], [0]),
        "in [0, 1]": ([past(0, -1), past(1, 1)], [0, 1]),
        "in [0, 2**64)": ([past(0, -1), 2**64], [0, 2**64 - 1]),
    }[allowed]
    if kind == "int":
        return outside, closed
    return [float(v) for v in outside] + [math.nan, math.inf, -math.inf], [float(v) for v in closed]


@pytest.mark.parametrize("key", RANGED)
def test_each_range_rejects_the_nearest_value_outside_and_takes_closed_bounds(key):
    outside, closed = range_edges(key)
    owner = OWNERS.get(key)
    for value in outside:
        with pytest.raises(ConfigError, match=re.escape(key)):
            desk_config().with_overrides({key: value})
        if owner:
            cls, name = owner
            with pytest.raises(ConfigError, match=re.escape(key)):
                cls(**{name: value})
    for value in closed:
        assert desk_config().with_overrides({key: value})[key] == value
        if owner:
            cls, name = owner
            try:  # a rule relating two keys may still refuse the value
                cls(**{name: value})
            except ConfigError as e:
                assert key not in str(e), e


def test_readme_table_lists_every_ranged_key():
    """Each row of the README's allowed-values table starts its allowed
    values with the SCHEMA range of every key it names."""
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    listed = {}
    for line in readme.split("| key | allowed values |", 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        names, allowed = (cell.strip() for cell in line.strip("|").split("|"))
        for key in re.findall(r"`([a-z0-9_.]+)`", names):
            listed[key] = allowed.split(";")[0].strip()
    for key in RANGED:
        assert listed.get(key) == SCHEMA[key][2], key
