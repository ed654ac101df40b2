"""Run configuration: a flat key=value format with dotted sections.

One schema covers data generation, the model, training, transfer, and the
rendering commands, and gives each key its type, default and allowed
values.  Unknown keys are rejected so typos fail loudly, every key is
range-checked when a run's configuration is built, and every command writes
its fully-resolved configuration next to its outputs before doing real work.
"""

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

# key -> (type name, default, allowed values or None).  This is the one
# place a setting is declared: a config-dataclass field with a key takes its
# default from here (`keyed`), and `check_range` tests values against the
# allowed values.
SCHEMA = {
    "seed": ("int", 0, "in [0, 2**64)"),
    "data.registry": ("str", "desk", None),  # desk | pair | single
    "data.n_per_sensor": ("int", 32, ">= 1"),
    "data.width": ("int", 32, ">= 1"),
    "data.height": ("int", 32, ">= 1"),
    "model.width": ("int", 32, ">= 1"),
    "model.depth": ("int", 4, ">= 0"),
    "model.heads": ("int", 4, ">= 1"),
    "model.patch_size": ("int", 4, ">= 1"),
    "model.mask_unit": ("int", 8, ">= 1"),
    "model.mask_ratio": ("float", 0.6, "in (0, 1)"),
    "model.moe": ("bool", True, None),
    "model.num_experts": ("int", 4, ">= 1"),
    "model.capacity_factor": ("float", 1.25, ">= 1"),
    "model.aux_weight": ("float", 0.01, ">= 0"),
    "model.ffn_mult": ("int", 4, ">= 1"),
    "train.base_batch": ("int", 8, ">= 1"),
    "train.base_lr": ("float", 1e-4, "> 0"),
    "train.epochs": ("int", 2, None),
    "train.warmup_epochs": ("int", 1, ">= 0"),
    "train.warmup_lr": ("float", 5e-7, ">= 0"),
    "train.milestones": ("ints", (), None),
    "train.gamma": ("float", 0.1, "> 0"),
    "train.beta1": ("float", 0.9, "in [0, 1)"),
    "train.beta2": ("float", 0.999, "in [0, 1)"),
    "train.eps": ("float", 1e-8, "> 0"),
    "train.weight_decay": ("float", 0.05, ">= 0"),
    "train.p_cross": ("float", 0.5, "in [0, 1]"),
    "train.checkpoint_every": ("int", 1, ">= 1"),
    "train.log_every": ("int", 1, ">= 1"),
    "transfer.mode": ("str", "shared_encoder_concat", None),  # or channel_stack
    "transfer.head": ("str", "multilabel", None),  # multilabel | dense_regression | dense_classification
    "transfer.frozen_trunk": ("bool", False, None),
    "transfer.sensors": ("strs", (), None),  # empty -> the first registered pair, else sensor 0
    "transfer.classes": ("int", 4, None),
    "transfer.steps": ("int", 100, ">= 1"),
    "transfer.lr": ("float", 1e-3, "> 0"),
    "transfer.batch": ("int", 8, ">= 1"),
    "eval.samples": ("int", 8, ">= 1"),
    "reconstruct.samples": ("int", 4, ">= 1"),
    "reconstruct.sensor": ("str", "", None),  # empty -> first registered sensor
}

# allowed values -> test.  Every comparison with NaN is False, so NaN falls
# outside each range, and the open ranges stop below inf, so a float must
# also be finite.
_IN_RANGE = {
    ">= 1": lambda x: 1 <= x < math.inf,
    ">= 0": lambda x: 0 <= x < math.inf,
    "> 0": lambda x: 0 < x < math.inf,
    "in (0, 1)": lambda x: 0 < x < 1,
    "in [0, 1)": lambda x: 0 <= x < 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in [0, 2**64)": lambda x: 0 <= x < 2**64,
}


def check_range(key, value):
    """Raise a ConfigError naming `key` unless `value` is one of its allowed
    values."""
    kind, _, allowed = SCHEMA[key]
    if allowed is not None and not _IN_RANGE[allowed](value):
        finite = "finite and " if kind == "float" else ""
        raise ConfigError(f"{key} must be {finite}{allowed}, got {value}")


def keyed(key):
    """A config-dataclass field that reads `key`, with its SCHEMA default."""
    return field(default=SCHEMA[key][1], metadata={"key": key})


def check_fields(cfg):
    """check_range on every field of the config dataclass `cfg` that has a key."""
    for f in fields(cfg):
        if "key" in f.metadata:
            check_range(f.metadata["key"], getattr(cfg, f.name))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture, masking geometry and the MoE objective; `encode` and
    `init_params` read the trunk's shape from it directly."""

    # the fields that shape the network; a checkpoint pins these and only
    # these, so the objective settings may change at load time
    ARCHITECTURE = ("width", "depth", "heads", "patch_size", "image_w", "image_h",
                    "moe", "num_experts", "ffn_mult")

    width: int = keyed("model.width")
    depth: int = keyed("model.depth")
    heads: int = keyed("model.heads")
    patch_size: int = keyed("model.patch_size")
    image_w: int = keyed("data.width")
    image_h: int = keyed("data.height")
    mask_unit: int = keyed("model.mask_unit")
    mask_ratio: float = keyed("model.mask_ratio")
    moe: bool = keyed("model.moe")
    num_experts: int = keyed("model.num_experts")
    capacity_factor: float = keyed("model.capacity_factor")
    aux_weight: float = keyed("model.aux_weight")
    ffn_mult: int = keyed("model.ffn_mult")
    p_cross: float = keyed("train.p_cross")

    def __post_init__(self):
        check_fields(self)
        if self.width % self.heads:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.image_w % self.mask_unit or self.image_h % self.mask_unit:
            raise ConfigError(
                f"image {self.image_w}x{self.image_h} not divisible by mask unit {self.mask_unit}"
            )
        if self.image_w == self.image_h == self.mask_unit:
            raise ConfigError(
                f"mask unit {self.mask_unit} covers the whole {self.image_w}x{self.image_h} "
                "image; masking needs a grid of at least 2 units"
            )
        if self.mask_unit % self.patch_size:
            raise ConfigError(
                f"mask unit {self.mask_unit} not divisible by patch size {self.patch_size}"
            )

    @property
    def tokens(self):
        return (self.image_w // self.patch_size) * (self.image_h // self.patch_size)

    @property
    def moe_block_indices(self):
        """Every other block, starting at block 1, is a mixture of experts."""
        return tuple(range(1, self.depth, 2)) if self.moe else ()

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _parse_bool(s):
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_int_list(s):
    s = s.strip()
    return tuple(int(v) for v in s.split(",") if v != "") if s else ()


def _parse_str_list(s):
    s = s.strip()
    return tuple(v.strip() for v in s.split(",") if v.strip()) if s else ()


_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str.strip,
    "ints": _parse_int_list,
    "strs": _parse_str_list,
}


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _parse_value(key, raw, where=""):
    try:
        return _PARSERS[SCHEMA[key][0]](raw)
    except ValueError as e:
        raise ConfigError(f"{where}bad value for {key}: {e}") from e


# published hyperparameters at full scale, for reference and for runs that
# can afford them; everything else inherits the desk defaults
PAPER_PRESET = {
    "data.width": 192,
    "data.height": 192,
    "model.width": 128,
    "model.depth": 18,
    "model.heads": 8,
    "model.mask_unit": 32,
    "model.mask_ratio": 0.6,
    "model.moe": True,
    "model.num_experts": 8,
    "model.capacity_factor": 1.25,
    "model.aux_weight": 0.01,
    "train.base_batch": 128,
    "train.base_lr": 1e-4,
    "train.epochs": 800,
    "train.warmup_epochs": 10,
    "train.warmup_lr": 5e-7,
    "train.milestones": (700,),
    "train.gamma": 0.1,
    "train.weight_decay": 0.05,
    "train.p_cross": 0.5,
}

class RunConfig:
    """Typed view over the flat key space, with schema defaults filled in."""

    def __init__(self, values=None):
        merged = {k: d for k, (_, d, _) in SCHEMA.items()}
        for k, v in (values or {}).items():
            if k not in SCHEMA:
                raise ConfigError(f"unknown config key {k!r}")
            merged[k] = v
        for k, v in merged.items():
            check_range(k, v)
        self._values = merged

    def __getitem__(self, key):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    def with_overrides(self, overrides):
        merged = dict(self._values)
        for k, raw in overrides.items():
            if k not in SCHEMA:
                raise ConfigError(f"unknown config key {k!r}")
            merged[k] = _parse_value(k, raw) if isinstance(raw, str) else raw
        return RunConfig(merged)

    def to_text(self):
        lines = [f"{k} = {_fmt(self._values[k])}" for k in sorted(self._values)]
        return "\n".join(lines) + "\n"

    def build(self, cls):
        """The config dataclass `cls` with every field that has a key read
        from this run; a field without one keeps its default."""
        return cls(**{f.name: self._values[f.metadata["key"]]
                      for f in fields(cls) if "key" in f.metadata})

    def model_config(self):
        return self.build(ModelConfig)


def parse_config_text(text):
    """Parse `key = value` lines; `#` starts a comment, blanks are skipped."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val, f"line {lineno}: ")
    return RunConfig(values)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config_text(f.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def paper_config():
    return RunConfig(dict(PAPER_PRESET))


def desk_config():
    return RunConfig()
