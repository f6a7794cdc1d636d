"""Tests of convolution geometry, padding and the im2col transformation.

The patch path (``im2col``, ``im2col_quantized``, ``col2im``) builds its
patch matrix with one strided slice per kernel tap.  The differential suite
at the end checks it bit for bit against an independent fancy-index gather
and an element-wise ``np.add.at`` scatter kept in this file.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.conv import (
    col2im,
    conv2d_float,
    filter_sums,
    flatten_filters,
    im2col,
    im2col_quantized,
    resolve_geometry,
)
from repro.errors import ConfigurationError, ShapeError
from repro.quantization import (
    SIGNED_8BIT,
    UNSIGNED_8BIT,
    IntegerRange,
    compute_coeffs_from_tensor,
)


class TestGeometry:
    def test_same_padding_preserves_size_stride1(self):
        g = resolve_geometry(32, 32, 3, 3, strides=(1, 1), padding="SAME")
        assert (g.output_height, g.output_width) == (32, 32)
        assert (g.pad_top, g.pad_bottom, g.pad_left, g.pad_right) == (1, 1, 1, 1)

    def test_same_padding_stride2(self):
        g = resolve_geometry(32, 32, 3, 3, strides=(2, 2), padding="SAME")
        assert (g.output_height, g.output_width) == (16, 16)

    def test_same_padding_asymmetric(self):
        # Even kernel on odd input: extra pixel goes bottom/right (TF rule).
        g = resolve_geometry(5, 5, 2, 2, strides=(1, 1), padding="SAME")
        assert (g.pad_top, g.pad_bottom) == (0, 1)

    def test_valid_padding(self):
        g = resolve_geometry(32, 32, 3, 3, padding="VALID")
        assert (g.output_height, g.output_width) == (30, 30)
        assert g.pad_top == g.pad_left == 0

    def test_valid_kernel_too_large(self):
        with pytest.raises(ShapeError):
            resolve_geometry(4, 4, 5, 5, padding="VALID")

    def test_dilation_effective_size(self):
        g = resolve_geometry(32, 32, 3, 3, dilations=(2, 2), padding="VALID")
        assert (g.output_height, g.output_width) == (28, 28)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            resolve_geometry(8, 8, 3, 3, padding="FULL")
        with pytest.raises(ConfigurationError):
            resolve_geometry(8, 8, 3, 3, strides=(0, 1))
        with pytest.raises(ShapeError):
            resolve_geometry(0, 8, 3, 3)

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(min_value=4, max_value=40),
           kernel=st.integers(min_value=1, max_value=5),
           stride=st.integers(min_value=1, max_value=3))
    def test_same_output_size_formula(self, size, kernel, stride):
        g = resolve_geometry(size, size, kernel, kernel,
                             strides=(stride, stride), padding="SAME")
        assert g.output_height == -(-size // stride)


class TestIm2Col:
    def test_patch_matrix_shape(self, rng):
        x = rng.normal(size=(2, 8, 8, 3))
        patches, g = im2col(x, 3, 3, padding="SAME")
        assert patches.shape == (2 * 64, 27)
        assert g.patch_positions == 64

    def test_im2col_gemm_equals_direct_conv(self, small_conv_case):
        inputs, filters = small_conv_case
        patches, g = im2col(inputs, 3, 3, padding="SAME")
        out = patches @ flatten_filters(filters)
        out = out.reshape(inputs.shape[0], g.output_height, g.output_width, 4)
        np.testing.assert_allclose(out, conv2d_float(inputs, filters), rtol=1e-10)

    def test_valid_padding_patches_match_input_windows(self, rng):
        x = rng.normal(size=(1, 4, 4, 1))
        patches, _ = im2col(x, 3, 3, padding="VALID")
        expected_first = x[0, 0:3, 0:3, 0].reshape(-1)
        np.testing.assert_allclose(patches[0], expected_first)

    def test_non_4d_input_rejected(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((4, 4, 3)), 3, 3)

    def test_quantized_pads_with_zero_point(self, rng):
        x = rng.uniform(0.5, 1.5, size=(1, 4, 4, 1))  # strictly positive
        qparams = compute_coeffs_from_tensor(x, qrange=SIGNED_8BIT)
        patches, sums, _ = im2col_quantized(x, 3, 3, qparams, padding="SAME")
        # Corner patches contain padded positions; they must hold the
        # zero-point (which dequantises to exactly 0).
        assert (patches == qparams.zero_point).any()

    def test_quantized_patch_sums_match_rows(self, rng):
        x = rng.normal(size=(2, 6, 6, 2))
        qparams = compute_coeffs_from_tensor(x)
        patches, sums, _ = im2col_quantized(x, 3, 3, qparams)
        np.testing.assert_array_equal(sums, patches.sum(axis=1))

    def test_filter_helpers(self, rng):
        filters = rng.integers(-5, 5, size=(3, 3, 2, 4))
        flat = flatten_filters(filters)
        assert flat.shape == (18, 4)
        np.testing.assert_array_equal(filter_sums(flat),
                                      filters.reshape(-1, 4).sum(axis=0))
        with pytest.raises(ShapeError):
            flatten_filters(np.zeros((3, 3, 2)))
        with pytest.raises(ShapeError):
            filter_sums(np.zeros((3, 3, 2, 4)))

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(min_value=4, max_value=10),
           w=st.integers(min_value=4, max_value=10),
           c=st.integers(min_value=1, max_value=3),
           stride=st.integers(min_value=1, max_value=2))
    def test_im2col_row_count_property(self, h, w, c, stride):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, h, w, c))
        patches, g = im2col(x, 3, 3, strides=(stride, stride), padding="SAME")
        assert patches.shape == (g.output_height * g.output_width, 9 * c)


# ----------------------------------------------------------------------
# Differential reference: fancy-index gather and element-wise scatter
# ----------------------------------------------------------------------
def _patch_indices(g, channels):
    """``(rows, cols, chans)`` of every ``[P, kh * kw * C]`` patch entry,
    indexing a padded NHWC image (channel fastest, as in the HWCK filter
    flattening)."""
    ky = np.arange(g.kernel_height) * g.dilation_h
    kx = np.arange(g.kernel_width) * g.dilation_w
    oy = np.arange(g.output_height) * g.stride_h
    ox = np.arange(g.output_width) * g.stride_w
    grid = (g.output_height, g.output_width, g.kernel_height, g.kernel_width)
    rows = np.broadcast_to(oy[:, None, None, None] + ky[None, None, :, None],
                           grid).reshape(g.patch_positions, -1)
    cols = np.broadcast_to(ox[None, :, None, None] + kx[None, None, None, :],
                           grid).reshape(g.patch_positions, -1)
    rows = np.repeat(rows, channels, axis=1)
    cols = np.repeat(cols, channels, axis=1)
    chans = np.broadcast_to(
        np.tile(np.arange(channels), g.kernel_height * g.kernel_width),
        rows.shape)
    return rows, cols, chans


def _pad(x, g, value):
    return np.pad(x, ((0, 0), (g.pad_top, g.pad_bottom),
                      (g.pad_left, g.pad_right), (0, 0)),
                  mode="constant", constant_values=value)


def _reference_im2col(x, g, pad_value):
    rows, cols, chans = _patch_indices(g, x.shape[3])
    patches = _pad(x, g, pad_value)[:, rows, cols, chans]
    return patches.reshape(x.shape[0] * g.patch_positions, -1)


def _reference_col2im(patches, input_shape, g):
    batch, in_h, in_w, channels = input_shape
    padded = np.zeros((batch, g.padded_height, g.padded_width, channels))
    rows, cols, chans = _patch_indices(g, channels)
    np.add.at(padded,
              (np.arange(batch)[:, None, None], rows[None], cols[None],
               chans[None]),
              patches.reshape(batch, g.patch_positions, -1))
    return padded[:, g.pad_top:g.pad_top + in_h, g.pad_left:g.pad_left + in_w]


@st.composite
def _conv_cases(draw):
    """Random geometry: odd and even H/W, stride 1-3, dilation 1-2,
    SAME/VALID, independent kh/kw, down to C = 1 and batch 1."""
    batch = draw(st.integers(1, 2))
    h, w = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    channels = draw(st.integers(1, 3))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    strides = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dilations = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    padding = draw(st.sampled_from(["SAME", "VALID"]))
    if padding == "VALID":
        assume((kh - 1) * dilations[0] < h and (kw - 1) * dilations[1] < w)
    seed = draw(st.integers(0, 2**31 - 1))
    geometry = dict(strides=strides, dilations=dilations, padding=padding)
    return (batch, h, w, channels), kh, kw, geometry, seed


class TestPatchPathDifferential:
    """Tap-loop patch path versus the fancy-index / ``add.at`` reference."""

    @settings(max_examples=80, deadline=None)
    @given(case=_conv_cases())
    def test_im2col_matches_fancy_index(self, case):
        shape, kh, kw, geometry, seed = case
        x = np.random.default_rng(seed).normal(size=shape)
        patches, g = im2col(x, kh, kw, pad_value=0.5, **geometry)
        np.testing.assert_array_equal(patches,
                                      _reference_im2col(x, g, 0.5))
        assert patches.flags.c_contiguous

    @settings(max_examples=80, deadline=None)
    @given(case=_conv_cases(), signed=st.booleans())
    def test_im2col_quantized_matches_fancy_index(self, case, signed):
        shape, kh, kw, geometry, seed = case
        x = np.random.default_rng(seed).normal(size=shape)
        qparams = compute_coeffs_from_tensor(
            x, qrange=SIGNED_8BIT if signed else UNSIGNED_8BIT)
        patches, sums, g = im2col_quantized(x, kh, kw, qparams, **geometry)
        reference = _reference_im2col(qparams.quantize(x).astype(np.int64),
                                      g, qparams.zero_point)
        np.testing.assert_array_equal(patches, reference)
        np.testing.assert_array_equal(sums, reference.sum(axis=1))
        assert sums.dtype == np.int64

    @settings(max_examples=80, deadline=None)
    @given(case=_conv_cases())
    def test_col2im_equals_add_at_bit_for_bit(self, case):
        shape, kh, kw, geometry, seed = case
        g = resolve_geometry(shape[1], shape[2], kh, kw, **geometry)
        patches = np.random.default_rng(seed).normal(
            size=(shape[0] * g.patch_positions, kh * kw * shape[3]))
        out = col2im(patches, shape, kh, kw, **geometry)
        expected = _reference_col2im(patches, shape, g)
        # Exact equality: the float additions must happen in add.at's order.
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("qrange,dtype", [
        (SIGNED_8BIT, np.int8),
        (UNSIGNED_8BIT, np.uint8),
        (IntegerRange.for_bits(12, signed=True), np.int16),
        (IntegerRange.for_bits(12, signed=False), np.int16),
    ])
    def test_quantized_patch_matrix_is_narrow_and_contiguous(self, rng, qrange,
                                                             dtype):
        x = rng.normal(size=(2, 7, 5, 3))
        qparams = compute_coeffs_from_tensor(x, qrange=qrange)
        patches, _, _ = im2col_quantized(x, 3, 2, qparams, strides=(2, 1))
        assert patches.dtype == dtype
        assert patches.flags.c_contiguous
        assert patches.min() >= qrange.qmin and patches.max() <= qrange.qmax
