"""Tests of the convolution engines: GEMM, Algorithm 1 and cross-engine equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import InferencePipeline
from repro.conv import (
    approx_conv2d,
    approx_conv2d_direct,
    approx_gemm,
    conv2d_direct,
    conv2d_float,
    dequantize_gemm,
    fake_quant_conv2d,
    gemm_float,
    lut_matmul,
    split_chunks,
)
from repro.errors import ConfigurationError, ShapeError
from repro.lut import LookupTable
from repro.multipliers import library
from repro.quantization import (
    SIGNED_8BIT,
    UNSIGNED_8BIT,
    compute_coeffs_from_tensor,
)

from lut_gemm_reference import lut_matmul_naive


class TestGemmPrimitives:
    def test_gemm_float_matches_numpy(self, rng):
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(5, 3))
        np.testing.assert_allclose(gemm_float(a, b), a @ b)

    def test_gemm_float_shape_errors(self):
        with pytest.raises(ShapeError):
            gemm_float(np.zeros((2, 3)), np.zeros((4, 5)))
        with pytest.raises(ShapeError):
            gemm_float(np.zeros(3), np.zeros((3, 2)))

    def test_lut_matmul_exact_equals_integer_matmul(self, rng, exact_lut_signed):
        a = rng.integers(-128, 128, size=(20, 13))
        b = rng.integers(-128, 128, size=(13, 6))
        np.testing.assert_array_equal(lut_matmul(a, b, exact_lut_signed), a @ b)

    def test_lut_matmul_tiling_independent(self, rng, mitchell_lut_signed):
        a = rng.integers(-128, 128, size=(33, 19))
        b = rng.integers(-128, 128, size=(19, 7))
        full = lut_matmul_naive(a, b, mitchell_lut_signed, tile_rows=1024)
        tiny = lut_matmul_naive(a, b, mitchell_lut_signed, tile_rows=5)
        np.testing.assert_array_equal(full, tiny)

    def test_lut_matmul_validation(self, exact_lut_signed):
        with pytest.raises(ShapeError):
            lut_matmul(np.zeros((2, 3)), np.zeros((4, 2)), exact_lut_signed)
        with pytest.raises(ConfigurationError):
            lut_matmul(np.zeros((2, 3)), np.zeros((3, 2)), exact_lut_signed,
                       accumulator_bits=4)

    def test_accumulator_saturation(self, exact_lut_signed):
        a = np.full((1, 300), 127, dtype=np.int64)
        b = np.full((300, 1), 127, dtype=np.int64)
        exact = lut_matmul(a, b, exact_lut_signed)
        saturated = lut_matmul(a, b, exact_lut_signed,
                               accumulator_bits=16, saturate=True)
        assert exact[0, 0] == 300 * 127 * 127
        assert saturated[0, 0] == (1 << 15) - 1

    def test_accumulator_wraparound(self, exact_lut_signed):
        a = np.full((1, 10), 127, dtype=np.int64)
        b = np.full((10, 1), 127, dtype=np.int64)
        wrapped = lut_matmul(a, b, exact_lut_signed, accumulator_bits=16)
        expected = ((10 * 127 * 127 + (1 << 15)) % (1 << 16)) - (1 << 15)
        assert wrapped[0, 0] == expected

    def test_dequantize_gemm_validation(self, rng):
        iq = compute_coeffs_from_tensor(rng.normal(size=4))
        with pytest.raises(ShapeError):
            dequantize_gemm(np.zeros((2, 2)), np.zeros(3), np.zeros(2), 4, iq, iq)
        with pytest.raises(ShapeError):
            dequantize_gemm(np.zeros((2, 2)), np.zeros(2), np.zeros(3), 4, iq, iq)


class TestChunking:
    def test_split_chunks_covers_batch(self):
        chunks = split_chunks(10, 4)
        assert chunks == [(0, 4), (4, 8), (8, 10)]

    def test_invalid_chunk_size(self):
        with pytest.raises(ConfigurationError):
            split_chunks(10, 0)

    def test_chunk_size_does_not_change_result(self, small_conv_case,
                                                mitchell_lut_signed):
        inputs, filters = small_conv_case
        a = approx_conv2d(inputs, filters, mitchell_lut_signed, chunk_size=1)
        b = approx_conv2d(inputs, filters, mitchell_lut_signed, chunk_size=64)
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestApproxConv2D:
    def test_exact_lut_matches_fake_quant_reference(self, small_conv_case,
                                                     exact_lut_signed):
        inputs, filters = small_conv_case
        iq = compute_coeffs_from_tensor(inputs)
        fq = compute_coeffs_from_tensor(filters)
        approx = approx_conv2d(inputs, filters, exact_lut_signed)
        reference = fake_quant_conv2d(inputs, filters, iq, fq)
        np.testing.assert_allclose(approx, reference, atol=1e-9)

    def test_exact_lut_close_to_float_conv(self, small_conv_case, exact_lut_signed):
        inputs, filters = small_conv_case
        approx = approx_conv2d(inputs, filters, exact_lut_signed)
        accurate = conv2d_float(inputs, filters)
        # 8-bit quantisation error only.
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.05 * scale

    def test_gemm_engine_matches_direct_engine(self, small_conv_case,
                                               mitchell_lut_signed):
        inputs, filters = small_conv_case
        iq = compute_coeffs_from_tensor(inputs)
        fq = compute_coeffs_from_tensor(filters)
        gemm_out = approx_conv2d(
            inputs, filters, mitchell_lut_signed,
            input_range=(inputs.min(), inputs.max()),
            filter_range=(filters.min(), filters.max()),
        )
        direct_out = approx_conv2d_direct(inputs, filters, mitchell_lut_signed, iq, fq)
        np.testing.assert_allclose(gemm_out, direct_out, atol=1e-9)

    def test_direct_float_conv_matches_im2col(self, small_conv_case):
        inputs, filters = small_conv_case
        np.testing.assert_allclose(
            conv2d_direct(inputs, filters), conv2d_float(inputs, filters), atol=1e-9)

    def test_strided_convolution(self, rng, exact_lut_signed):
        inputs = rng.normal(size=(1, 8, 8, 2))
        filters = rng.normal(size=(3, 3, 2, 3))
        approx = approx_conv2d(inputs, filters, exact_lut_signed, strides=(2, 2))
        accurate = conv2d_float(inputs, filters, strides=(2, 2))
        assert approx.shape == accurate.shape == (1, 4, 4, 3)
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.05 * scale

    def test_valid_padding_and_dilation(self, rng, exact_lut_signed):
        inputs = rng.normal(size=(1, 10, 10, 2))
        filters = rng.normal(size=(3, 3, 2, 2))
        approx = approx_conv2d(inputs, filters, exact_lut_signed,
                               dilations=(2, 2), padding="VALID")
        accurate = conv2d_float(inputs, filters, dilations=(2, 2), padding="VALID")
        assert approx.shape == accurate.shape
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.06 * scale

    def test_unsigned_range_with_unsigned_lut(self, rng, exact_lut_unsigned):
        inputs = rng.uniform(0, 1, size=(1, 6, 6, 2))
        filters = rng.uniform(0, 1, size=(3, 3, 2, 2))
        approx = approx_conv2d(inputs, filters, exact_lut_unsigned,
                               qrange=UNSIGNED_8BIT)
        accurate = conv2d_float(inputs, filters)
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.05 * scale

    def test_signedness_mismatch_rejected(self, small_conv_case, exact_lut_unsigned):
        inputs, filters = small_conv_case
        with pytest.raises(ConfigurationError):
            approx_conv2d(inputs, filters, exact_lut_unsigned, qrange=SIGNED_8BIT)

    def test_shape_validation(self, exact_lut_signed):
        with pytest.raises(ShapeError):
            approx_conv2d(np.zeros((2, 4, 4)), np.zeros((3, 3, 1, 1)),
                          exact_lut_signed)
        with pytest.raises(ShapeError):
            approx_conv2d(np.zeros((2, 4, 4, 2)), np.zeros((3, 3, 3, 1)),
                          exact_lut_signed)

    def test_stats_counters(self, small_conv_case, exact_lut_signed):
        inputs, filters = small_conv_case
        stats = InferencePipeline("numpy", chunk_size=1).run(
            inputs, filters, exact_lut_signed).report.stats
        positions = 2 * 9 * 9
        expected_lookups = positions * 27 * 4
        assert stats.macs == expected_lookups
        assert stats.chunks == 2
        assert stats.output_values == positions * 4

    def test_explicit_ranges_respected(self, small_conv_case, exact_lut_signed):
        inputs, filters = small_conv_case
        wide = approx_conv2d(inputs, filters, exact_lut_signed,
                             input_range=(-100.0, 100.0))
        tight = approx_conv2d(inputs, filters, exact_lut_signed)
        accurate = conv2d_float(inputs, filters)
        # A vastly oversized range wastes quantisation levels, so its error
        # must be larger than the per-batch range computed from the data.
        assert (np.abs(wide - accurate).mean()
                > np.abs(tight - accurate).mean())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_exact_lut_equals_fake_quant(seed):
    """Eq. 4 with an exact LUT is exactly quantise->int-conv->dequantise."""
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(1, 5, 5, 2))
    filters = rng.normal(size=(3, 3, 2, 2))
    lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
    iq = compute_coeffs_from_tensor(inputs)
    fq = compute_coeffs_from_tensor(filters)
    approx = approx_conv2d(inputs, filters, lut)
    reference = fake_quant_conv2d(inputs, filters, iq, fq)
    np.testing.assert_allclose(approx, reference, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_gemm_and_direct_engines_agree(seed):
    """The GEMM-based engine and the nested-loop engine are interchangeable."""
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(1, 6, 6, 2))
    filters = rng.normal(size=(3, 3, 2, 3))
    lut = LookupTable.from_multiplier(library.create("mul8s_drum4"))
    iq = compute_coeffs_from_tensor(inputs)
    fq = compute_coeffs_from_tensor(filters)
    gemm_out = approx_conv2d(
        inputs, filters, lut,
        input_range=(inputs.min(), inputs.max()),
        filter_range=(filters.min(), filters.max()),
    )
    direct_out = approx_conv2d_direct(inputs, filters, lut, iq, fq)
    np.testing.assert_allclose(gemm_out, direct_out, atol=1e-9)
