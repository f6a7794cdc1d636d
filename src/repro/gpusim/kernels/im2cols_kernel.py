"""Simulated ``Im2Cols`` CUDA kernel.

Section III(i) of the paper describes the kernel: one thread per output value
of the patch matrix ``Mp``, a fixed thread-block size independent of the
patch length, a shared-memory prefix scan to extract the partial per-patch
sums handled by each block, and ``atomicAdd`` to combine those partial sums
into the ``Sp`` vector because one patch may span several blocks.

The functional result here is produced with the vectorised
:func:`repro.conv.im2col.im2col_quantized`; what this module adds is the
*launch-level accounting*: how many thread blocks run, how many bytes travel
through shared memory for the prefix scan, and how many atomic additions hit
``Sp``.  Those counters feed the timing model and the Fig. 2 breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...conv.im2col import im2col_quantized
from ...conv.padding import ConvGeometry
from ...quantization.affine import QuantParams
from ..device import GPUDevice, KernelLaunch


#: Fixed thread-block size of the kernel ("the thread block size in our
#: solution is fixed and independent of the patch length").
IM2COLS_BLOCK_SIZE = 256


@dataclass
class Im2ColsKernelResult:
    """Output of one simulated Im2Cols launch."""

    patches: np.ndarray
    patch_sums: np.ndarray
    geometry: ConvGeometry
    launch: KernelLaunch
    atomic_adds: int
    shared_bytes: int


def run_im2cols_kernel(device: GPUDevice, chunk: np.ndarray,
                       kernel_height: int, kernel_width: int,
                       input_q: QuantParams, *, strides=(1, 1),
                       dilations=(1, 1), padding: str = "SAME",
                       ) -> Im2ColsKernelResult:
    """Execute the simulated Im2Cols kernel on one input chunk.

    Returns the quantised patch matrix ``Mp``, the per-patch sums ``Sp`` and
    the launch record, while charging the device counters with the traffic
    the real kernel would generate.
    """
    patches, patch_sums, geometry = im2col_quantized(
        chunk, kernel_height, kernel_width, input_q,
        strides=strides, dilations=dilations, padding=padding,
    )

    total_values = int(patches.size)          # one thread per Mp value
    grid, block = device.launch_config_1d(total_values,
                                          block_size=IM2COLS_BLOCK_SIZE)
    # Each block stages its values in shared memory for the prefix scan:
    # one 32-bit word per thread, traversed twice (up-sweep + down-sweep).
    shared_bytes = grid[0] * IM2COLS_BLOCK_SIZE * 4 * 2

    # A patch contributes one atomicAdd per thread block it spans.
    patch_len = patches.shape[1]
    blocks_per_patch = max(1, -(-patch_len // IM2COLS_BLOCK_SIZE))
    atomic_adds = int(patches.shape[0]) * blocks_per_patch

    launch = KernelLaunch(
        name="ax_im2cols",
        grid=grid,
        block=block,
        shared_memory_bytes=IM2COLS_BLOCK_SIZE * 4,
    )
    device.counters.record_launch(launch)
    device.counters.global_bytes_read += int(chunk.size) * 4      # float input
    device.counters.global_bytes_written += total_values          # int8 Mp
    device.counters.global_bytes_written += int(patch_sums.size) * 4
    device.counters.shared_bytes_traffic += shared_bytes
    device.counters.atomic_adds += atomic_adds

    return Im2ColsKernelResult(
        patches=patches,
        patch_sums=patch_sums,
        geometry=geometry,
        launch=launch,
        atomic_adds=atomic_adds,
        shared_bytes=shared_bytes,
    )
