"""Simulated CUDA device, kernels and the analytical GPU timing model.

:func:`run_gpusim_chunk` runs one chunk of Algorithm 1 on a
:class:`GPUDevice`; its caller owns the device and loops over the chunks.
:class:`DeviceCounters` is the one record of what the simulated device did:
every kernel charges its launch, texture fetches, atomicAdds and memory
traffic there.
"""

from .device import DeviceCounters, GPUDevice, KernelLaunch
from .engine import run_gpusim_chunk
from .kernels import (
    GEMM_TILE,
    IM2COLS_BLOCK_SIZE,
    run_approx_gemm_kernel,
    run_im2cols_kernel,
)
from .timing import GPUTimingModel, PhaseTimes

__all__ = [
    "GPUDevice",
    "DeviceCounters",
    "KernelLaunch",
    "run_gpusim_chunk",
    "GPUTimingModel",
    "PhaseTimes",
    "GEMM_TILE",
    "IM2COLS_BLOCK_SIZE",
    "run_approx_gemm_kernel",
    "run_im2cols_kernel",
]
