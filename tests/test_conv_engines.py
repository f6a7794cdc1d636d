"""Tests of the convolution engines: GEMM, Algorithm 1 and cross-engine equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import InferencePipeline, collect_reports, emulate_conv2d
from repro.conv import (
    CHUNK_SIZE,
    approx_conv2d_direct,
    approx_gemm,
    conv2d_float,
    dequantize_gemm,
    gemm_float,
    lut_matmul,
)
from repro.errors import ShapeError
from repro.gpusim import GPUDevice
from repro.lut import LookupTable
from repro.multipliers import library
from repro.quantization import compute_coeffs, compute_coeffs_from_tensor

from conv_reference import conv2d_direct, fake_quant_conv2d, reference_outputs
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

    def test_dequantize_gemm_validation(self, rng):
        iq = compute_coeffs_from_tensor(rng.normal(size=4))
        with pytest.raises(ShapeError):
            dequantize_gemm(np.zeros((2, 2)), np.zeros(3), np.zeros(2), 4, iq, iq)
        with pytest.raises(ShapeError):
            dequantize_gemm(np.zeros((2, 2)), np.zeros(2), np.zeros(3), 4, iq, iq)


class TestChunking:
    def test_chunk_size_does_not_change_result(self, rng, mitchell_lut_signed):
        """A batch one image over the chunk size runs as two chunks on
        every engine and matches the direct loop over the whole batch."""
        inputs = rng.normal(size=(CHUNK_SIZE + 1, 4, 4, 2))
        filters = rng.normal(size=(3, 3, 2, 2))
        input_range, filter_range = (-3.0, 3.0), (-2.5, 2.5)
        qrange = mitchell_lut_signed.qrange
        expected = approx_conv2d_direct(
            inputs, filters, mitchell_lut_signed,
            compute_coeffs(*input_range, qrange=qrange),
            compute_coeffs(*filter_range, qrange=qrange))
        pipeline = InferencePipeline()
        with collect_reports() as report:
            output = pipeline.run(
                inputs, filters, mitchell_lut_signed,
                input_range=input_range, filter_range=filter_range)
        assert report.stats.chunks == 2
        np.testing.assert_array_equal(output, expected)
        device = GPUDevice()
        prepared = pipeline.prepare(
            inputs, filters, mitchell_lut_signed,
            input_range=input_range, filter_range=filter_range)
        outputs = reference_outputs(inputs, filters, prepared, device)
        assert len(device.counters.launches) == 2 * 2
        for engine, output in outputs.items():
            np.testing.assert_array_equal(output, expected, engine)


class TestApproxConv2D:
    def test_exact_lut_matches_fake_quant_reference(self, small_conv_case,
                                                     exact_lut_signed):
        inputs, filters = small_conv_case
        iq = compute_coeffs_from_tensor(inputs)
        fq = compute_coeffs_from_tensor(filters)
        approx = emulate_conv2d(inputs, filters, exact_lut_signed)
        reference = fake_quant_conv2d(inputs, filters, iq, fq)
        np.testing.assert_allclose(approx, reference, atol=1e-9)

    def test_exact_lut_close_to_float_conv(self, small_conv_case, exact_lut_signed):
        inputs, filters = small_conv_case
        approx = emulate_conv2d(inputs, filters, exact_lut_signed)
        accurate = conv2d_float(inputs, filters)
        # 8-bit quantisation error only.
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.05 * scale

    def test_gemm_engine_matches_direct_engine(self, small_conv_case,
                                               mitchell_lut_signed):
        inputs, filters = small_conv_case
        iq = compute_coeffs_from_tensor(inputs)
        fq = compute_coeffs_from_tensor(filters)
        gemm_out = emulate_conv2d(
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
        approx = emulate_conv2d(inputs, filters, exact_lut_signed, strides=(2, 2))
        accurate = conv2d_float(inputs, filters, strides=(2, 2))
        assert approx.shape == accurate.shape == (1, 4, 4, 3)
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.05 * scale

    def test_valid_padding_and_dilation(self, rng, exact_lut_signed):
        inputs = rng.normal(size=(1, 10, 10, 2))
        filters = rng.normal(size=(3, 3, 2, 2))
        approx = emulate_conv2d(inputs, filters, exact_lut_signed,
                                dilations=(2, 2), padding="VALID")
        accurate = conv2d_float(inputs, filters, dilations=(2, 2), padding="VALID")
        assert approx.shape == accurate.shape
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.06 * scale

    def test_unsigned_range_with_unsigned_lut(self, rng, exact_lut_unsigned):
        inputs = rng.uniform(0, 1, size=(1, 6, 6, 2))
        filters = rng.uniform(0, 1, size=(3, 3, 2, 2))
        approx = emulate_conv2d(inputs, filters, exact_lut_unsigned)
        accurate = conv2d_float(inputs, filters)
        scale = np.abs(accurate).max()
        assert np.max(np.abs(approx - accurate)) < 0.05 * scale

    def test_shape_validation(self, exact_lut_signed):
        with pytest.raises(ShapeError):
            emulate_conv2d(np.zeros((2, 4, 4)), np.zeros((3, 3, 1, 1)),
                           exact_lut_signed)
        with pytest.raises(ShapeError):
            emulate_conv2d(np.zeros((2, 4, 4, 2)), np.zeros((3, 3, 3, 1)),
                           exact_lut_signed)

    def test_direct_loop_rejects_empty_operands(self, exact_lut_signed):
        """An empty batch and an empty filter bank raise in the direct loop
        as in the pipeline's ``prepare``, instead of an empty output."""
        q = compute_coeffs(-1.0, 1.0, qrange=exact_lut_signed.qrange)
        for inputs_shape, filters_shape in [((0, 4, 4, 1), (3, 3, 1, 1)),
                                            ((1, 4, 4, 1), (3, 3, 1, 0))]:
            inputs, filters = np.zeros(inputs_shape), np.zeros(filters_shape)
            with pytest.raises(ShapeError, match="must not be empty"):
                InferencePipeline().prepare(inputs, filters, exact_lut_signed)
            with pytest.raises(ShapeError, match="must not be empty"):
                approx_conv2d_direct(inputs, filters, exact_lut_signed, q, q)

    def test_stats_counters(self, rng, exact_lut_signed):
        inputs = rng.normal(size=(CHUNK_SIZE + 1, 9, 9, 3))
        filters = rng.normal(size=(3, 3, 3, 4))
        with collect_reports() as report:
            InferencePipeline().run(inputs, filters, exact_lut_signed)
        stats = report.stats
        positions = (CHUNK_SIZE + 1) * 9 * 9
        expected_lookups = positions * 27 * 4
        assert stats.macs == expected_lookups
        assert stats.chunks == 2
        assert stats.output_values == positions * 4

    def test_explicit_ranges_respected(self, small_conv_case, exact_lut_signed):
        inputs, filters = small_conv_case
        wide = emulate_conv2d(inputs, filters, exact_lut_signed,
                              input_range=(-100.0, 100.0))
        tight = emulate_conv2d(inputs, filters, exact_lut_signed)
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
    approx = emulate_conv2d(inputs, filters, lut)
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
    gemm_out = emulate_conv2d(
        inputs, filters, lut,
        input_range=(inputs.min(), inputs.max()),
        filter_range=(filters.min(), filters.max()),
    )
    direct_out = approx_conv2d_direct(inputs, filters, lut, iq, fq)
    np.testing.assert_allclose(gemm_out, direct_out, atol=1e-9)
