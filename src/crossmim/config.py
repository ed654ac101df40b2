"""Run configuration: a flat key=value format with dotted sections.

One schema covers data generation, the model, training, transfer, and the
rendering commands.  Unknown keys are rejected so typos fail loudly, and
every command writes its fully-resolved configuration next to its outputs
before doing real work.
"""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """Architecture, masking geometry and the MoE objective; `encode` and
    `init_params` read the trunk's shape from it directly."""

    # the fields that shape the network; a checkpoint pins these and only
    # these, so the objective settings may change at load time
    ARCHITECTURE = ("width", "depth", "heads", "patch_size", "image_w", "image_h",
                    "moe", "num_experts", "ffn_mult")

    width: int = 32
    depth: int = 4
    heads: int = 4
    patch_size: int = 4
    image_w: int = 32
    image_h: int = 32
    mask_unit: int = 8
    mask_ratio: float = 0.6
    moe: bool = True
    num_experts: int = 4
    capacity_factor: float = 1.25
    aux_weight: float = 0.01
    ffn_mult: int = 4
    p_cross: float = 0.5

    def __post_init__(self):
        for name in ("width", "heads", "patch_size", "mask_unit", "image_w", "image_h",
                     "num_experts", "ffn_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.width % self.heads:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        # every comparison with NaN is False, so NaN fails both ranges
        if not 1.0 <= self.capacity_factor < math.inf:
            raise ConfigError(f"capacity_factor must be finite and >= 1, got {self.capacity_factor}")
        if not 0.0 <= self.aux_weight < math.inf:
            raise ConfigError(f"aux_weight must be finite and >= 0, got {self.aux_weight}")
        if self.image_w % self.mask_unit or self.image_h % self.mask_unit:
            raise ConfigError(
                f"image {self.image_w}x{self.image_h} not divisible by mask unit {self.mask_unit}"
            )
        if self.mask_unit % self.patch_size:
            raise ConfigError(
                f"mask unit {self.mask_unit} not divisible by patch size {self.patch_size}"
            )
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask ratio must be in (0, 1), got {self.mask_ratio}")
        if not 0.0 <= self.p_cross <= 1.0:
            raise ConfigError(f"p_cross must be in [0, 1], got {self.p_cross}")

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


# key -> (type name, default)
SCHEMA = {
    "seed": ("int", 0),
    "data.registry": ("str", "desk"),  # desk | pair | single
    "data.n_per_sensor": ("int", 32),
    "data.width": ("int", 32),
    "data.height": ("int", 32),
    "model.width": ("int", 32),
    "model.depth": ("int", 4),
    "model.heads": ("int", 4),
    "model.patch_size": ("int", 4),
    "model.mask_unit": ("int", 8),
    "model.mask_ratio": ("float", 0.6),
    "model.moe": ("bool", True),
    "model.num_experts": ("int", 4),
    "model.capacity_factor": ("float", 1.25),
    "model.aux_weight": ("float", 0.01),
    "model.ffn_mult": ("int", 4),
    "train.base_batch": ("int", 8),
    "train.base_lr": ("float", 1e-4),
    "train.epochs": ("int", 2),
    "train.warmup_epochs": ("int", 1),
    "train.warmup_lr": ("float", 5e-7),
    "train.milestones": ("ints", ()),
    "train.gamma": ("float", 0.1),
    "train.beta1": ("float", 0.9),
    "train.beta2": ("float", 0.999),
    "train.eps": ("float", 1e-8),
    "train.weight_decay": ("float", 0.05),
    "train.p_cross": ("float", 0.5),
    "train.checkpoint_every": ("int", 1),
    "train.log_every": ("int", 1),
    "transfer.mode": ("str", "shared_encoder_concat"),  # or channel_stack
    "transfer.head": ("str", "multilabel"),  # multilabel | dense_regression | dense_classification
    "transfer.frozen_trunk": ("bool", False),
    "transfer.sensors": ("strs", ()),  # empty -> all registered sensors
    "transfer.classes": ("int", 4),
    "transfer.steps": ("int", 100),
    "transfer.lr": ("float", 1e-3),
    "transfer.batch": ("int", 8),
    "eval.samples": ("int", 8),
    "reconstruct.samples": ("int", 4),
    "reconstruct.sensor": ("str", ""),  # empty -> first registered sensor
}

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

# dataclass fields whose schema key is not `<section>.<field>`
_FIELD_KEYS = {
    "image_w": "data.width",
    "image_h": "data.height",
    "p_cross": "train.p_cross",
    "seed": "seed",
    "num_classes": "transfer.classes",
}

# keys that no config dataclass range-checks, with the least value each
# allows; checked whenever a RunConfig is built
_MINIMUMS = {"seed": 0, "eval.samples": 1, "reconstruct.samples": 1}


class RunConfig:
    """Typed view over the flat key space, with schema defaults filled in."""

    def __init__(self, values=None):
        merged = {k: d for k, (_, d) in SCHEMA.items()}
        for k, v in (values or {}).items():
            if k not in SCHEMA:
                raise ConfigError(f"unknown config key {k!r}")
            merged[k] = v
        for k, least in _MINIMUMS.items():
            if merged[k] < least:
                raise ConfigError(f"{k} must be >= {least}, got {merged[k]}")
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

    def build(self, cls, section):
        """The config dataclass `cls` with every field that has a schema key
        (`<section>.<field>` unless renamed) read from this run; fields
        without a key keep their dataclass defaults."""
        values = {}
        for f in fields(cls):
            key = _FIELD_KEYS.get(f.name, f"{section}.{f.name}")
            if key in SCHEMA:
                values[f.name] = self._values[key]
        return cls(**values)

    def model_config(self):
        return self.build(ModelConfig, "model")


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
