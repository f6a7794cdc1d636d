"""Tests of the simulated GPU device, kernels and timing model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import InferencePipeline, emulate_conv2d
from repro.conv import CHUNK_SIZE
from repro.errors import DeviceError
from repro.gpusim import (
    DeviceCounters,
    GPUDevice,
    GPUTimingModel,
    PhaseTimes,
    run_approx_gemm_kernel,
    run_gpusim_chunk,
    run_im2cols_kernel,
)
from repro.hwspec import GPUSpec
from repro.lut import LookupTable
from repro.models import conv_workloads_for_depth
from repro.multipliers import library
from repro.quantization import compute_coeffs_from_tensor
from repro.workload import ConvWorkload


class TestGPUDevice:
    def test_launch_config_1d(self):
        dev = GPUDevice()
        grid, block = dev.launch_config_1d(1000, block_size=256)
        assert grid == (4, 1, 1) and block == (256, 1, 1)

    def test_launch_config_validation(self):
        dev = GPUDevice()
        with pytest.raises(DeviceError):
            dev.launch_config_1d(10, block_size=100)  # not a warp multiple
        with pytest.raises(DeviceError):
            dev.launch_config_1d(10, block_size=4096)
        with pytest.raises(DeviceError):
            dev.launch_config_2d(10, 10, tile=64)

    def test_texture_binding_reuse(self, exact_lut_signed,
                                   mitchell_lut_signed):
        dev = GPUDevice()
        dev.bind_texture(exact_lut_signed)
        dev.bind_texture(exact_lut_signed)
        # The table is uploaded once per configuration, not once per bind.
        assert dev.counters.global_bytes_written == exact_lut_signed.nbytes
        dev.bind_texture(mitchell_lut_signed)
        assert dev.counters.global_bytes_written == (
            exact_lut_signed.nbytes + mitchell_lut_signed.nbytes)

    def test_reset_clears_state(self, exact_lut_signed):
        dev = GPUDevice()
        dev.bind_texture(exact_lut_signed)
        dev.counters.texture_fetches = 10
        dev.reset()
        assert dev.counters == DeviceCounters()
        # Reset unbinds the tables, so the next bind uploads again.
        dev.bind_texture(exact_lut_signed)
        assert dev.counters.global_bytes_written == exact_lut_signed.nbytes


class TestKernels:
    def test_im2cols_kernel_matches_host_im2col(self, rng, exact_lut_signed):
        from repro.conv import im2col_quantized
        dev = GPUDevice()
        chunk = rng.normal(size=(2, 6, 6, 3))
        qparams = compute_coeffs_from_tensor(chunk)
        kernel_patches, kernel_sums, kernel_geometry = run_im2cols_kernel(
            dev, chunk, 3, 3, qparams)
        patches, sums, geometry = im2col_quantized(chunk, 3, 3, qparams)
        np.testing.assert_array_equal(kernel_patches, patches)
        np.testing.assert_array_equal(kernel_sums, sums)
        assert kernel_geometry == geometry
        assert dev.counters.atomic_adds > 0
        assert dev.counters.kernel_launches == 1
        assert [launch.name for launch in dev.counters.launches] == [
            "ax_im2cols"]

    def test_gemm_kernel_matches_host_gemm(self, rng, mitchell_lut_signed):
        from repro.conv import approx_gemm, filter_sums
        dev = GPUDevice()
        patches = rng.integers(-128, 128, size=(40, 27))
        sums = patches.sum(axis=1)
        filters = rng.integers(-128, 128, size=(27, 5))
        f_sums = filter_sums(filters)
        iq = compute_coeffs_from_tensor(rng.normal(size=10))
        fq = compute_coeffs_from_tensor(rng.normal(size=10))
        output = run_approx_gemm_kernel(
            dev, patches, sums, filters, f_sums, iq, fq, mitchell_lut_signed)
        host = approx_gemm(patches, sums, filters, f_sums, iq, fq,
                           mitchell_lut_signed)
        np.testing.assert_allclose(output, host, atol=1e-9)
        assert dev.counters.texture_fetches == 40 * 5 * 27
        assert [launch.name for launch in dev.counters.launches] == ["ax_gemm"]

    def test_gemm_kernel_shape_validation(self, rng, exact_lut_signed):
        dev = GPUDevice()
        iq = compute_coeffs_from_tensor(rng.normal(size=4))
        from repro.errors import ShapeError
        with pytest.raises(ShapeError):
            run_approx_gemm_kernel(dev, np.zeros((4, 3)), np.zeros(4),
                                   np.zeros((5, 2)), np.zeros(2), iq, iq,
                                   exact_lut_signed)

    def test_gemm_kernel_rejects_non_integral_operands(self, rng,
                                                       exact_lut_signed):
        """A 2.7 operand raises as in ``lut_matmul``; truncating it to 2
        would return a finite, wrong output."""
        from repro.errors import TruthTableError
        dev = GPUDevice()
        iq = compute_coeffs_from_tensor(rng.normal(size=4))
        patches = np.array([[1.0, 2.7], [3.0, -1.0]])
        filters = np.array([[2.0], [1.0]])
        for a, b in [(patches, filters), (filters.T, patches.T)]:
            with pytest.raises(TruthTableError, match="non-integral"):
                run_approx_gemm_kernel(dev, a, np.zeros(len(a)), b,
                                       np.zeros(b.shape[1]), iq, iq,
                                       exact_lut_signed)
        assert dev.counters.launches == []
        # Integral floats are still operands.
        out = run_approx_gemm_kernel(dev, np.round(patches), np.zeros(2),
                                     filters, np.zeros(1), iq, iq,
                                     exact_lut_signed)
        assert out.shape == (2, 1)

    def test_signed_tables_keep_the_float32_accumulator_exact(self):
        """The paper's kernel sums lookups in float32, exact while
        ``K * max|T| <= 2**24``; every signed library table keeps that bound
        at ResNet-20's deepest conv, so the int64 sums equal the paper's."""
        depth = max(w.patch_length for w in conv_workloads_for_depth(20))
        assert depth == 576
        names = [n for n in library.available() if n.startswith("mul8s_")]
        assert names
        for name in names:
            lut = LookupTable.from_multiplier(library.create(name))
            largest = int(np.abs(lut.flat.astype(np.int64)).max())
            assert depth * largest <= 1 << 24, name


class TestGPUEngine:
    def test_engine_matches_numpy_reference(self, rng, mitchell_lut_signed):
        pipeline = InferencePipeline("gpusim")
        inputs = rng.normal(size=(2 * CHUNK_SIZE + 1, 7, 7, 3))
        filters = rng.normal(size=(3, 3, 3, 4))
        result = pipeline.run(inputs, filters, mitchell_lut_signed)
        ref = emulate_conv2d(inputs, filters, mitchell_lut_signed)
        np.testing.assert_allclose(result.output, ref, atol=1e-9)
        assert result.report.stats.chunks == 3
        assert result.report.gpu.kernel_launches == 6
        assert [launch.name for launch in result.report.gpu.launches] == [
            "ax_im2cols", "ax_gemm"] * 3
        assert result.report.lut_name == mitchell_lut_signed.name

    def test_chunk_on_own_device_records_launches(self, rng,
                                                  mitchell_lut_signed):
        device = GPUDevice()
        inputs = rng.normal(size=(2, 5, 5, 2))
        filters = rng.normal(size=(3, 3, 2, 3))
        prepared = InferencePipeline("gpusim").prepare(
            inputs, filters, mitchell_lut_signed)
        output = run_gpusim_chunk(device, inputs, prepared)
        np.testing.assert_array_equal(
            output, emulate_conv2d(inputs, filters, mitchell_lut_signed))
        assert [launch.name for launch in device.counters.launches] == [
            "ax_im2cols", "ax_gemm"]
        # One fetch per MAC: 2*5*5 patches x 3 filters x 3*3*2 taps.
        assert device.counters.texture_fetches == 2 * 5 * 5 * 3 * 3 * 3 * 2

    def test_engine_validation(self, rng, exact_lut_unsigned):
        from repro.errors import ShapeError
        pipeline = InferencePipeline("gpusim")
        with pytest.raises(ShapeError):
            pipeline.run(np.zeros((1, 4, 4)), np.zeros((3, 3, 1, 1)),
                         exact_lut_unsigned)


class TestGPUTimingModel:
    WORKLOAD = [ConvWorkload("conv", 32, 32, 16, 3, 3, 32)]

    def test_phase_times_accounting(self):
        times = PhaseTimes(1.0, 2.0, 3.0, 4.0)
        assert times.compute == 9.0
        assert times.total == 10.0
        assert sum(times.breakdown().values()) == pytest.approx(1.0)

    def test_compute_scales_linearly_with_images(self):
        model = GPUTimingModel()
        small = model.approximate_inference(self.WORKLOAD, 100)
        large = model.approximate_inference(self.WORKLOAD, 1000)
        assert large.compute == pytest.approx(10 * small.compute, rel=0.01)
        # Initialisation does not scale with the dataset.
        assert large.initialization == pytest.approx(small.initialization, rel=0.05)

    def test_approximate_slower_than_accurate(self):
        model = GPUTimingModel()
        accurate = model.accurate_inference(self.WORKLOAD, 1000)
        approximate = model.approximate_inference(self.WORKLOAD, 1000)
        assert approximate.compute > accurate.compute

    def test_lut_content_does_not_matter_only_workload(self):
        # The timing model depends only on the workload, mirroring the paper's
        # observation that the LUT content has no impact on execution time.
        model = GPUTimingModel()
        a = model.approximate_inference(self.WORKLOAD, 500)
        b = model.approximate_inference(list(self.WORKLOAD), 500)
        assert a == b

    def test_custom_spec_changes_throughput(self):
        slow_spec = GPUSpec(name="slow", sm_count=4)
        fast = GPUTimingModel()
        slow = GPUTimingModel(slow_spec)
        assert slow.approximate_inference(self.WORKLOAD, 100).compute > \
            fast.approximate_inference(self.WORKLOAD, 100).compute
