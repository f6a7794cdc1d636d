"""Simulated CUDA kernels of the approximate convolution.

Each kernel returns its functional result and charges its launch and
traffic to the device's :class:`~repro.gpusim.device.DeviceCounters`.
"""

from .gemm_kernel import GEMM_TILE, run_approx_gemm_kernel
from .im2cols_kernel import IM2COLS_BLOCK_SIZE, run_im2cols_kernel

__all__ = [
    "GEMM_TILE",
    "run_approx_gemm_kernel",
    "IM2COLS_BLOCK_SIZE",
    "run_im2cols_kernel",
]
