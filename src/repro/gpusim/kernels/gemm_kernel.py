"""Simulated ``ApproxGEMM`` CUDA kernel.

Section III(ii): "The matrix multiplication phase is implemented as a typical
tiled GEMM, in which the threads of the block have to load a 2D tile from
each matrix into the shared memory and each thread computes a single output
value.  The tiles in the shared memory are quantized and stored as uint to
avoid possible shared memory access conflicts.  The multiplication of
quantized 8-bit values is implemented by a lookup table [...] accessed with
``tex1Dfetch<ushort>`` [...] The results of multiplication (lookup)
operations are accumulated in a 32-bit floating point accumulator.  The last
step is to perform dequantization and a correction according to Eq. 4."

The simulated kernel walks the same tile structure (so the launch geometry,
shared-memory traffic and texture-fetch counts are faithful), but evaluates
each tile with vectorised NumPy fetches from the bound LUT.  With an
identical LUT the numerical result matches the host engines bit for bit.

Like every engine here, the simulated kernel sums the lookups in int64, not
in float32.  The two agree while every partial sum is an integer float32
holds exactly, i.e. while ``K * max|T| <= 2**24`` for depth ``K`` and the
table's largest entry magnitude ``max|T|``; then the paper's accumulator is
exact in any summation order.  The deepest such ``K`` is
``(1 << 24) // max|T|``: 1024 for most ``mul8s_*`` library tables, 1023 for
``mul8s_noise64`` and 809 for ``mul8s_drum4``, so every signed table keeps
the bound at ResNet-20's deepest conv (``K = 576``).  The ``mul8u_*`` tables
allow only 257-334, so there the float32 original may round sums that the
int64 emulation keeps exact.
"""

from __future__ import annotations

import numpy as np

from ...conv.gemm import dequantize_gemm
from ...errors import ShapeError
from ...lut.table import LookupTable
from ...quantization.affine import QuantParams
from ..device import GPUDevice, KernelLaunch


#: Side of the square shared-memory tile (16x16 threads = 256 threads/block).
GEMM_TILE = 16


def run_approx_gemm_kernel(device: GPUDevice, patches: np.ndarray,
                           patch_sums: np.ndarray, filters: np.ndarray,
                           filter_sums: np.ndarray, input_q: QuantParams,
                           filter_q: QuantParams, lut: LookupTable,
                           ) -> np.ndarray:
    """Execute the simulated tiled LUT GEMM on one chunk's patch matrix.

    ``patches`` is ``[P, K]`` (quantised), ``filters`` is ``[K, F]``
    (quantised); the result is the dequantised ``[P, F]`` float output.
    Operands outside the table's range raise
    :class:`~repro.errors.TruthTableError` before the launch is recorded,
    as :func:`~repro.conv.gemm.lut_matmul` does.
    """
    patches = np.asarray(patches, dtype=np.int64)
    filters = np.asarray(filters, dtype=np.int64)
    if patches.ndim != 2 or filters.ndim != 2:
        raise ShapeError("ApproxGEMM kernel expects 2D operands")
    if patches.shape[1] != filters.shape[0]:
        raise ShapeError(
            f"inner dimensions do not match: {patches.shape} x {filters.shape}"
        )

    lut.check_operands(patches)
    lut.check_operands(filters)

    device.bind_texture(lut)
    num_patches, depth = patches.shape
    num_filters = filters.shape[1]

    grid, block = device.launch_config_2d(num_patches, num_filters, tile=GEMM_TILE)
    device.counters.record_launch(KernelLaunch(
        name="ax_gemm",
        grid=grid,
        block=block,
        shared_memory_bytes=2 * GEMM_TILE * GEMM_TILE * 4,  # two uint tiles
    ))

    mask = (1 << lut.bit_width) - 1
    filter_bits = filters & mask
    acc = np.zeros((num_patches, num_filters), dtype=np.int64)
    k_tiles = -(-depth // GEMM_TILE)
    shared_bytes = 0

    # Walk the K dimension tile by tile exactly as the CUDA kernel does; the
    # P/F tiling is implicit in the vectorised fetch (it does not change the
    # fetch or traffic counts, only their ordering).
    for kt in range(k_tiles):
        k0 = kt * GEMM_TILE
        k1 = min(k0 + GEMM_TILE, depth)
        a_tile = (patches[:, k0:k1] & mask) << lut.bit_width     # [P, kt]
        b_tile = filter_bits[k0:k1, :]                           # [kt, F]
        idx = a_tile[:, :, None] | b_tile[None, :, :]            # [P, kt, F]
        acc += lut.lookup_flat(idx).sum(axis=1)
        # Every K tile is staged through shared memory once per block row /
        # column: A tile rows x kt ints + kt x B tile columns ints.
        shared_bytes += (num_patches * (k1 - k0) + (k1 - k0) * num_filters) * 4

    device.counters.shared_bytes_traffic += shared_bytes
    device.counters.global_bytes_read += int(patches.size) + int(filters.size) * 4
    device.counters.global_bytes_written += num_patches * num_filters * 4
    device.counters.texture_fetches += num_patches * num_filters * depth

    return dequantize_gemm(acc, patch_sums, filter_sums, depth, input_q, filter_q)
