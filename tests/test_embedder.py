"""Patch embedding, mask-token substitution, and embedder stacking."""

import numpy as np
import pytest

import crossmim.tensor as T
from crossmim.embedder import embed, stacked_embedder
from crossmim.errors import ShapeError

import oracles


def make_params(rng, sensors=((0, 3),), width=8, patch=4, n_tokens=4, dtype=np.float64):
    """A parameter table holding one embedder per (sensor_id, channels)
    plus the shared mask token and positional table."""
    def leaf(shape):
        return T.Tensor(rng.normal(size=shape), dtype=dtype, requires_grad=True)

    params = {}
    for sid, channels in sensors:
        params[f"embedder.{sid}.kernel"] = leaf((width, channels, patch, patch))
        params[f"embedder.{sid}.bias"] = leaf(width)
    params["shared.mask_token"] = leaf(width)
    params["shared.pos_embed"] = leaf((n_tokens, width))
    return params


def test_embed_matches_naive_convolution(rng):
    params = make_params(rng)
    images = rng.normal(size=(2, 3, 8, 8))
    out = embed(T.Tensor(images, dtype=np.float64), params, "embedder.0.")
    assert out.shape == (2, 4, 8)
    for b in range(2):
        expect = (oracles.conv_patch_naive(images[b], params["embedder.0.kernel"].data,
                                           params["embedder.0.bias"].data)
                  + params["shared.pos_embed"].data)
        np.testing.assert_allclose(out.data[b], expect, rtol=1e-10)


def test_embed_substitutes_mask_token_exactly(rng):
    params = make_params(rng)
    images = T.Tensor(rng.normal(size=(2, 3, 8, 8)), dtype=np.float64)
    mask = np.array([[True, False, True, False], [False, False, False, True]])
    out = embed(images, params, "embedder.0.", token_mask=mask)
    plain = embed(images, params, "embedder.0.")
    for b in range(2):
        for i in range(4):
            if mask[b, i]:
                np.testing.assert_array_equal(
                    out.data[b, i],
                    params["shared.mask_token"].data + params["shared.pos_embed"].data[i])
            else:
                np.testing.assert_array_equal(out.data[b, i], plain.data[b, i])


def test_embed_masked_positions_carry_no_image_gradient(rng):
    params = make_params(rng)
    images = T.Tensor(rng.normal(size=(1, 3, 8, 8)), dtype=np.float64,
                      requires_grad=True)
    mask = np.array([[True, True, True, False]])
    with T.fresh_tape():
        out = embed(images, params, "embedder.0.", token_mask=mask)
        T.backward(T.reduce_sum(out * out))
    # only patch 3 (bottom-right quadrant of the 2x2 patch grid) feeds back
    g = images.grad[0]
    assert np.all(g[:, :4, :] == 0.0) and np.all(g[:, :, :4] == 0.0)
    assert np.any(g[:, 4:, 4:] != 0.0)
    # the mask token collects gradient from every masked position
    mask_grad = params["shared.mask_token"].grad
    assert mask_grad is not None and np.any(mask_grad != 0.0)


def test_embed_all_visible_mask_is_identity(rng):
    params = make_params(rng)
    images = T.Tensor(rng.normal(size=(2, 3, 8, 8)), dtype=np.float64)
    a = embed(images, params, "embedder.0.")
    b = embed(images, params, "embedder.0.", token_mask=np.zeros((2, 4), dtype=bool))
    np.testing.assert_array_equal(a.data, b.data)


def test_embed_validation(rng):
    params = make_params(rng, sensors=((2, 3),))
    with pytest.raises(ShapeError, match="embedder.2.kernel"):
        embed(T.Tensor(np.ones((1, 5, 8, 8))), params, "embedder.2.")
    with pytest.raises(ShapeError, match="positional"):
        embed(T.Tensor(np.ones((1, 3, 16, 16))), params, "embedder.2.")
    with pytest.raises(ShapeError, match="mask length"):
        embed(T.Tensor(np.ones((1, 3, 8, 8))), params, "embedder.2.",
              token_mask=np.zeros((1, 5), dtype=bool))


def test_stacked_embedder_reproduces_sum_of_responses(rng):
    params = make_params(rng, sensors=((0, 2), (1, 3)))
    kernel, bias = stacked_embedder(params, (0, 1))
    assert kernel.shape == (8, 5, 4, 4) and bias.shape == (8,)
    img0 = rng.normal(size=(2, 8, 8))
    img1 = rng.normal(size=(3, 8, 8))

    def response(image, k, b):
        return T.conv_patch(T.Tensor(image, dtype=np.float64), T.Tensor(k), T.Tensor(b))

    out = response(np.concatenate([img0, img1], axis=0), kernel, bias)
    t0 = response(img0, params["embedder.0.kernel"].data, params["embedder.0.bias"].data)
    t1 = response(img1, params["embedder.1.kernel"].data, params["embedder.1.bias"].data)
    np.testing.assert_allclose(out.data, t0.data + t1.data, rtol=1e-12)


def test_stacked_embedder_validation(rng):
    with pytest.raises(ShapeError):
        stacked_embedder(make_params(rng), ())
