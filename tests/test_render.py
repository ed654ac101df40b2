"""Image-grid rendering: channel mapping, normalization, PPM output."""

import os
import sys
import types

import numpy as np

from crossmim.render import (GAP, channels_to_rgb, compose_grid,
                             reconstruction_grid, to_display, write_png,
                             write_ppm)


def test_channels_to_rgb_mappings(rng):
    one = rng.normal(size=(1, 4, 5))
    assert np.array_equal(channels_to_rgb(one), np.repeat(one, 3, axis=0))
    two = rng.normal(size=(2, 4, 5))
    out = channels_to_rgb(two)
    assert np.array_equal(out[:2], two) and not out[2].any()
    four = rng.normal(size=(4, 4, 5))
    assert np.array_equal(channels_to_rgb(four), four[:3])


def test_to_display_normalizes_and_orients():
    img = np.zeros((1, 4, 6))  # (C, W, H)
    img[0, 0, 0] = -2.0
    img[0, 3, 5] = 6.0
    disp = to_display(img)
    assert disp.shape == (6, 4, 3) and disp.dtype == np.uint8
    assert tuple(disp[0, 0]) == (0, 0, 0)
    assert tuple(disp[5, 3]) == (255, 255, 255)
    assert tuple(disp[2, 1]) == (63, 63, 63)  # 2/8 of the range

    flat = to_display(np.full((3, 4, 4), 7.0))  # constant image stays black
    assert not flat.any()


def test_to_display_masked_pixels_are_mid_gray():
    img = np.linspace(0, 1, 2 * 4 * 4).reshape(2, 4, 4)
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 2] = True  # (w, h) indexing
    disp = to_display(img, mask=mask)
    assert tuple(disp[2, 1]) == (127, 127, 127)
    assert (disp != 127).any()


def test_compose_grid_layout():
    red = np.zeros((3, 5, 3), dtype=np.uint8)
    red[..., 0] = 200
    grid = compose_grid([[red, red], [red, red]])
    assert grid.shape == (2 * 3 + GAP, 2 * 5 + GAP, 3)
    assert np.array_equal(grid[:3, :5], red)
    assert np.array_equal(grid[3 + GAP:, 5 + GAP:], red)
    assert (grid[3:3 + GAP] == 255).all()  # separators stay white
    assert (grid[:, 5:5 + GAP] == 255).all()


def test_write_ppm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, size=(7, 9, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(str(path), img)
    raw = path.read_bytes()
    header = b"P6\n9 7\n255\n"
    assert raw.startswith(header)
    body = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(7, 9, 3)
    assert np.array_equal(body, img)


def test_write_png_matches_pillow_availability(tmp_path, rng):
    try:
        import PIL  # noqa: F401
        have_pillow = True
    except ImportError:
        have_pillow = False
    img = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    path = tmp_path / "img.png"
    assert write_png(str(path), img) is have_pillow
    assert path.exists() is have_pillow


def test_write_png_encodes_through_pillow(tmp_path, rng, monkeypatch):
    """The PNG branch, run against a stub `PIL` that records what it was
    asked to encode, so it needs no Pillow install."""
    calls = []

    class StubImage:
        def __init__(self, array, mode):
            self.array, self.mode = array, mode

        def save(self, buf, format):
            calls.append((self.mode, format))
            buf.write(b"stub-png:" + self.array.tobytes())

    image_mod = types.ModuleType("PIL.Image")
    image_mod.fromarray = StubImage
    pil = types.ModuleType("PIL")
    pil.Image = image_mod
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", image_mod)
    img = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    assert write_png(str(tmp_path / "img.png"), img) is True
    assert calls == [("RGB", "PNG")]
    assert (tmp_path / "img.png").read_bytes() == b"stub-png:" + img.tobytes()
    assert os.listdir(tmp_path) == ["img.png"]


def test_reconstruction_grid_shape(rng):
    gt = rng.normal(size=(2, 8, 8))
    pred = rng.normal(size=(2, 8, 8))
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4] = True
    grid = reconstruction_grid([(gt, pred, mask), (gt, pred, mask)])
    assert grid.shape == (3 * 8 + 2 * GAP, 2 * 8 + GAP, 3)
