"""Functional GPU engine: one chunk of Algorithm 1 on the simulated device.

:func:`run_gpusim_chunk` reproduces the structure of the CUDA
implementation -- the Im2Cols kernel (patch matrix + ``Sp``), the tiled LUT
GEMM kernel and the Eq. 4 dequantisation -- while recording every launch
and all memory traffic on the :class:`~repro.gpusim.device.GPUDevice`.  The
``gpusim`` backend of :mod:`repro.backends` runs it per chunk (use
``InferencePipeline("gpusim")`` or ``emulate_conv2d(..., backend="gpusim")``
and read ``RunReport.gpu``); code that wants the raw ``KernelLaunch``
records drives it over :func:`repro.conv.approx_conv2d.prepare_conv2d` on
its own device.  Its numerical output is identical to
:func:`repro.conv.approx_conv2d.approx_conv2d`, which the parity tests
verify; its accounting feeds the micro-benchmarks and the texture-cache
ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..conv.approx_conv2d import PreparedConv
from .device import GPUDevice
from .kernels.gemm_kernel import run_approx_gemm_kernel
from .kernels.im2cols_kernel import run_im2cols_kernel


@dataclass
class GPUConvRunReport:
    """Statistics of one approximate convolution executed on the device."""

    chunks: int = 0
    kernel_launches: int = 0
    texture_fetches: int = 0
    atomic_adds: int = 0
    shared_bytes: int = 0
    patch_values: int = 0
    lut_name: str = ""
    per_chunk: list[dict] = field(default_factory=list)

    def merge(self, other: "GPUConvRunReport") -> None:
        """Accumulate another run report (e.g. one chunk's) into this one."""
        self.chunks += other.chunks
        self.kernel_launches += other.kernel_launches
        self.texture_fetches += other.texture_fetches
        self.atomic_adds += other.atomic_adds
        self.shared_bytes += other.shared_bytes
        self.patch_values += other.patch_values
        if other.lut_name:
            self.lut_name = other.lut_name
        self.per_chunk.extend(other.per_chunk)


def run_gpusim_chunk(device: GPUDevice, chunk: np.ndarray,
                     prepared: PreparedConv, *, strides=(1, 1),
                     dilations=(1, 1), padding: str = "SAME",
                     ) -> tuple[np.ndarray, GPUConvRunReport]:
    """Execute one chunk of Algorithm 1 on the simulated device.

    Launches the Im2Cols and ApproxGEMM kernels for a single chunk of a
    prepared convolution and returns the NHWC output together with a
    one-chunk :class:`GPUConvRunReport`.
    """
    im2cols = run_im2cols_kernel(
        device, chunk, prepared.kernel_height, prepared.kernel_width,
        prepared.input_q,
        strides=strides, dilations=dilations, padding=padding,
    )
    gemm = run_approx_gemm_kernel(
        device, im2cols.patches, im2cols.patch_sums,
        prepared.flat_filters, prepared.filter_sums,
        prepared.input_q, prepared.filter_q, prepared.lut,
    )
    geometry = im2cols.geometry
    output = gemm.output.reshape(
        chunk.shape[0], geometry.output_height, geometry.output_width,
        prepared.filter_count,
    )
    report = GPUConvRunReport(
        chunks=1,
        kernel_launches=2,
        texture_fetches=gemm.texture_fetches,
        atomic_adds=im2cols.atomic_adds,
        shared_bytes=im2cols.shared_bytes + gemm.shared_bytes,
        patch_values=int(im2cols.patches.size),
        lut_name=prepared.lut.name,
        per_chunk=[{
            "images": chunk.shape[0],
            "patches": int(im2cols.patches.shape[0]),
            "patch_length": int(im2cols.patches.shape[1]),
            "texture_fetches": gemm.texture_fetches,
        }],
    )
    return output, report
