"""Functional GPU engine: one chunk of Algorithm 1 on the simulated device.

:func:`run_gpusim_chunk` reproduces the structure of the CUDA
implementation -- the Im2Cols kernel (patch matrix + ``Sp``), the tiled LUT
GEMM kernel and the Eq. 4 dequantisation -- while recording every launch
and all memory traffic in the :class:`~repro.gpusim.device.GPUDevice`'s
counters.  Callers drive it chunk by chunk over an
``InferencePipeline().prepare(...)`` result on a device of their own and
read that device's counters.  Its numerical output is identical to the
vectorised engine's (:func:`repro.backends.emulate_conv2d`), which the
parity tests verify; its accounting feeds the micro-benchmarks and the
texture-cache ablation study.
"""

from __future__ import annotations

import numpy as np

from ..conv.approx_conv2d import PreparedConv
from .device import GPUDevice
from .kernels.gemm_kernel import run_approx_gemm_kernel
from .kernels.im2cols_kernel import run_im2cols_kernel


def run_gpusim_chunk(device: GPUDevice, chunk: np.ndarray,
                     prepared: PreparedConv, *, strides=(1, 1),
                     dilations=(1, 1), padding: str = "SAME") -> np.ndarray:
    """Execute one chunk of Algorithm 1 on the simulated device.

    Launches the Im2Cols and ApproxGEMM kernels for a single chunk of a
    prepared convolution and returns the NHWC output; the work is charged
    to ``device.counters``.
    """
    patches, patch_sums, geometry = run_im2cols_kernel(
        device, chunk, prepared.kernel_height, prepared.kernel_width,
        prepared.input_q,
        strides=strides, dilations=dilations, padding=padding,
    )
    output = run_approx_gemm_kernel(
        device, patches, patch_sums,
        prepared.flat_filters, prepared.filter_sums,
        prepared.input_q, prepared.filter_q, prepared.lut,
    )
    return output.reshape(
        chunk.shape[0], geometry.output_height, geometry.output_width,
        prepared.filter_count,
    )
