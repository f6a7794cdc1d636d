"""E6 (ablation) -- GEMM-based emulation vs the direct nested-loop emulation.

Section III motivates the GEMM formulation because the ALWANN-style direct
loop "is difficult to efficiently parallelize".  The same effect shows up in
the Python emulation: the vectorised im2col + LUT-GEMM engine is orders of
magnitude faster than the per-pixel loop, while producing bit-identical
results (checked by the test-suite).  This benchmark quantifies that gap and
also measures the simulated-CUDA engine, which adds launch bookkeeping on top
of the GEMM path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import InferencePipeline, emulate_conv2d
from repro.conv import approx_conv2d_direct
from repro.quantization import compute_coeffs_from_tensor


@pytest.fixture(scope="module")
def small_case():
    rng = np.random.default_rng(3)
    # Small enough that the per-pixel Python loop finishes in a benchmark run.
    inputs = rng.normal(size=(1, 8, 8, 4))
    filters = rng.normal(size=(3, 3, 4, 8))
    return inputs, filters


@pytest.mark.benchmark(group="engines")
def test_gemm_engine(benchmark, small_case, mitchell_lut):
    inputs, filters = small_case
    out = benchmark(emulate_conv2d, inputs, filters, mitchell_lut)
    assert out.shape == (1, 8, 8, 8)


@pytest.mark.benchmark(group="engines")
def test_direct_loop_engine(benchmark, small_case, mitchell_lut):
    inputs, filters = small_case
    iq = compute_coeffs_from_tensor(inputs)
    fq = compute_coeffs_from_tensor(filters)
    out = benchmark(approx_conv2d_direct, inputs, filters, mitchell_lut, iq, fq)
    assert out.shape == (1, 8, 8, 8)


@pytest.mark.benchmark(group="engines")
def test_simulated_cuda_engine(benchmark, small_case, mitchell_lut):
    inputs, filters = small_case
    pipeline = InferencePipeline("gpusim")

    def run():
        return pipeline.run(inputs, filters, mitchell_lut).output

    out = benchmark(run)
    assert out.shape == (1, 8, 8, 8)
