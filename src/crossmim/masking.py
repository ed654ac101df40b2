"""Mask plans drawn at mask-unit granularity.

A plan is drawn once per (sample, sensor) and shared by every channel of
that sensor; colocated partners draw their own plans independently.  The
unit grid is coarser than the token grid, so one masked unit blankets a
whole block of tokens.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class MaskPlan:
    """Boolean decision per mask unit over the (W/unit, H/unit) grid."""

    mask_unit: int
    grid: np.ndarray  # bool, shape (W/unit, H/unit)

    @property
    def units_masked(self):
        return int(self.grid.sum())

    @property
    def units_total(self):
        return int(self.grid.size)


def masked_unit_count(total_units, ratio):
    """round(ratio * units), clamped into [1, units-1] so a plan is never
    all-masked or all-visible."""
    count = int(round(ratio * total_units))
    return min(max(count, 1), total_units - 1)


def draw_mask(w, h, mask_unit, ratio, rng):
    """Draw a uniformly random plan with the exact clamped unit count.

    Args:
        w, h: image size in pixels, each divisible by `mask_unit`.
        ratio: target masked fraction, strictly inside (0, 1).
        rng: numpy Generator; the draw consumes exactly one permutation.
    """
    if w % mask_unit != 0 or h % mask_unit != 0:
        raise ShapeError(f"image size not divisible by mask unit: W={w}, H={h}, unit={mask_unit}")
    if not 0.0 < ratio < 1.0:
        raise ShapeError(f"mask ratio must be in (0, 1), got {ratio}")
    gw, gh = w // mask_unit, h // mask_unit
    total = gw * gh
    if total < 2:
        raise ShapeError(f"mask grid needs at least 2 units, got {gw}x{gh}")
    count = masked_unit_count(total, ratio)
    chosen = rng.permutation(total)[:count]
    grid = np.zeros(total, dtype=bool)
    grid[chosen] = True
    return MaskPlan(mask_unit=mask_unit, grid=grid.reshape(gw, gh))


def to_token_mask(plan, patch_size):
    """Expand the unit grid to a flat boolean per token (length L).

    Token order is row-major over the (W/P, H/P) grid, matching the
    patch-embedding token order.
    """
    if plan.mask_unit % patch_size != 0:
        raise ShapeError(f"mask unit {plan.mask_unit} not divisible by patch size {patch_size}")
    rep = plan.mask_unit // patch_size
    grid = np.repeat(np.repeat(plan.grid, rep, axis=0), rep, axis=1)
    return grid.reshape(-1)


def to_pixel_mask(plan):
    """Rasterize the unit grid to a (W, H) boolean pixel mask."""
    u = plan.mask_unit
    return np.repeat(np.repeat(plan.grid, u, axis=0), u, axis=1)
