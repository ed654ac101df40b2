"""Cross-sensor masked image modeling at desk scale.

A small, self-contained system for multisensor self-supervised
pretraining: per-sensor patch embeddings feed a shared transformer trunk
with sparse mixture-of-experts blocks, and per-sensor decoders reconstruct
either the masked input or the colocated image of a paired sensor.  All
math runs on the package's own reverse-mode autodiff tensors.
"""

__version__ = "0.1.0"

from .config import ModelConfig, RunConfig, desk_config, paper_config
from .encoder import RoutingReport, encode, moe_forward
from .masking import MaskPlan, draw_mask, to_pixel_mask, to_token_mask
from .sensors import (Dataset, MultisensorBatch, SampleRecord, SensorRegistry,
                      SensorSpec, desk_registry, gen_synthetic, load_manifest,
                      pair_registry, save_manifest, single_registry)
from .tensor import Tensor, backward, fresh_tape, no_grad
from .training import TrainConfig, Trainer, make_schedule

__all__ = [
    "Dataset", "MaskPlan", "ModelConfig", "MultisensorBatch",
    "RoutingReport", "RunConfig", "SampleRecord", "SensorRegistry", "SensorSpec",
    "Tensor", "TrainConfig", "Trainer", "backward", "desk_config",
    "desk_registry", "draw_mask", "encode", "fresh_tape", "gen_synthetic",
    "load_manifest", "make_schedule", "moe_forward", "no_grad", "paper_config",
    "pair_registry", "save_manifest", "single_registry",
    "to_pixel_mask", "to_token_mask",
]
