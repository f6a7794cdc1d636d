"""Tests of the CPU timing model, hardware specs and workload descriptions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conv import approx_conv2d, approx_conv2d_direct
from repro.cpusim import CPUTimingModel
from repro.errors import ConfigurationError, ShapeError
from repro.hwspec import CPUSpec, GPUSpec, PAPER_SYSTEM, SystemSpec
from repro.multipliers import library
from repro.lut import LookupTable
from repro.quantization import compute_coeffs_from_tensor
from repro.workload import ConvWorkload, total_workload


class TestHardwareSpecs:
    def test_paper_system_names(self):
        assert "Xeon" in PAPER_SYSTEM.cpu.name
        assert "1080" in PAPER_SYSTEM.gpu.name
        assert "Xeon" in PAPER_SYSTEM.describe()

    def test_peak_rates_positive(self):
        assert PAPER_SYSTEM.cpu.peak_flops > 1e10
        assert PAPER_SYSTEM.gpu.peak_flops > 1e12
        assert PAPER_SYSTEM.gpu.peak_lut_lookups > PAPER_SYSTEM.cpu.peak_lut_lookups

    def test_texture_cache_smaller_than_lut(self):
        # The 128 kB LUT does not fit into a single SM's texture cache, which
        # is why cache behaviour matters (Section III).
        assert PAPER_SYSTEM.gpu.texture_cache_kb_per_sm * 1024 < 128 * 1024

    def test_invalid_cpu_spec(self):
        with pytest.raises(ConfigurationError):
            CPUSpec(cores=0)
        with pytest.raises(ConfigurationError):
            CPUSpec(frequency_ghz=-1.0)
        with pytest.raises(ConfigurationError):
            CPUSpec(init_overhead_s=-0.1)

    def test_invalid_gpu_spec(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(sm_count=0)
        with pytest.raises(ConfigurationError):
            GPUSpec(max_threads_per_block=1000)  # not a warp multiple
        with pytest.raises(ConfigurationError):
            GPUSpec(memory_bandwidth_gbs=0)

    def test_custom_system(self):
        system = SystemSpec(cpu=CPUSpec(name="laptop", cores=4),
                            gpu=GPUSpec(name="laptop-gpu", sm_count=10))
        assert "laptop" in system.describe()


class TestConvWorkload:
    def test_mac_count_matches_formula(self):
        w = ConvWorkload("conv", 32, 32, 16, 3, 3, 32, stride=1)
        assert w.macs_per_image == 32 * 32 * 3 * 3 * 16 * 32
        assert w.output_height == 32 and w.output_width == 32

    def test_strided_workload(self):
        w = ConvWorkload("conv", 32, 32, 16, 3, 3, 32, stride=2)
        assert (w.output_height, w.output_width) == (16, 16)
        assert w.patch_length == 3 * 3 * 16

    def test_quantization_elements(self):
        w = ConvWorkload("conv", 8, 8, 4, 3, 3, 8)
        assert w.input_elements_per_image == 8 * 8 * 4
        assert w.output_elements_per_image == 8 * 8 * 8
        assert w.quantization_elements_per_image == 2 * (256 + 512)

    def test_invalid_workload(self):
        with pytest.raises(ShapeError):
            ConvWorkload("bad", 0, 8, 4, 3, 3, 8)

    def test_totals_add_up(self):
        a = ConvWorkload("a", 8, 8, 4, 3, 3, 8)
        b = ConvWorkload("b", 4, 4, 8, 3, 3, 16)
        totals = total_workload([a, b], images=10)
        assert totals.macs == 10 * (a.macs_per_image + b.macs_per_image)
        assert totals.layers == 2
        assert totals.patch_matrix_bytes > 0


class TestCPUTimingModel:
    WORKLOAD = [ConvWorkload("conv", 32, 32, 16, 3, 3, 32)]

    def test_emulation_orders_of_magnitude_slower_than_native(self):
        # The motivation of the paper: software emulation of approximate
        # arithmetic is 2-3 orders of magnitude slower than native float.
        model = CPUTimingModel()
        accurate = model.accurate_inference(self.WORKLOAD, 1000)
        approximate = model.approximate_inference(self.WORKLOAD, 1000)
        ratio = approximate.compute / accurate.compute
        assert 30 < ratio < 3000

    def test_compute_linear_in_images(self):
        model = CPUTimingModel()
        t1 = model.approximate_inference(self.WORKLOAD, 100).compute
        t2 = model.approximate_inference(self.WORKLOAD, 300).compute
        assert t2 == pytest.approx(3 * t1, rel=1e-6)

    def test_initialization_small_fraction(self):
        model = CPUTimingModel()
        times = model.approximate_inference(self.WORKLOAD, 10_000)
        assert times.breakdown()["initialization"] < 0.02

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            CPUTimingModel(float_efficiency=2.0)
        with pytest.raises(ConfigurationError):
            CPUTimingModel(remaining_seconds_per_mac=0)

    def test_direct_reference_wrapper_matches_gemm_engine(self, rng):
        inputs = rng.normal(size=(1, 6, 6, 2))
        filters = rng.normal(size=(3, 3, 2, 3))
        lut = LookupTable.from_multiplier(library.create("mul8s_trunc2"))
        iq = compute_coeffs_from_tensor(inputs)
        fq = compute_coeffs_from_tensor(filters)
        direct = approx_conv2d_direct(inputs, filters, lut, iq, fq)
        gemm = approx_conv2d(
            inputs, filters, lut,
            input_range=(inputs.min(), inputs.max()),
            filter_range=(filters.min(), filters.max()),
        )
        np.testing.assert_allclose(direct, gemm, atol=1e-9)
