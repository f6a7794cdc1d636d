"""The bit-exact reference every LUT-GEMM kernel is checked against.

:func:`lut_matmul_naive` is the seed implementation of the ``ApproxGEMM``
product: one stitched index and one table fetch per scalar product, summed
in int64.  It is deliberately simple and slow, and lives with the tests
(and the microbenchmarks, which time the kernels against it) rather than in
:mod:`repro.conv.gemm`.
"""

from __future__ import annotations

import numpy as np

from repro.conv.gemm import lut_matmul_factored, lut_matmul_rowgather


def lut_matmul_naive(patches, filters, lut, *,
                     tile_rows: int = 256) -> np.ndarray:
    """Row tiles over a full-depth ``[T, K, F]`` int64 index tensor.

    ``patches`` is the ``[P, K]`` matrix of quantised patch rows and
    ``filters`` the ``[K, F]`` matrix of quantised filter columns, integer
    operands inside the table's range.  The product is accumulated in int64
    and returned as an ``[P, F]`` int64 matrix of *approximate* dot products.
    """
    patches = np.asarray(patches).astype(np.int64, copy=False)
    filters = np.asarray(filters).astype(np.int64, copy=False)
    result = np.zeros((patches.shape[0], filters.shape[1]), dtype=np.int64)

    # Index = (patch_bits << n) | filter_bits.
    mask = (1 << lut.bit_width) - 1
    filter_bits = filters & mask                            # [K, F]
    for start in range(0, patches.shape[0], tile_rows):
        stop = min(start + tile_rows, patches.shape[0])
        tile_bits = (patches[start:stop] & mask) << lut.bit_width  # [T, K]
        idx = tile_bits[:, :, None] | filter_bits[None, :, :]      # [T, K, F]
        products = lut.lookup_flat(idx)                     # [T, K, F] int64
        result[start:stop] = products.sum(axis=1)
    return result


def kernels_for(lut, depth: int) -> list:
    """The kernel functions that can compute a depth-``depth`` product
    through ``lut``: ``rowgather``, and ``factored`` too when the table has
    exact factors and the depth keeps them inside their float64 bound.

    A test pins a kernel by calling it directly, on the integer arrays
    :func:`repro.conv.gemm.lut_matmul` would pass it after validation.
    """
    factors = lut.factors
    if factors is not None and factors.exact_for_depth(depth):
        return [lut_matmul_factored, lut_matmul_rowgather]
    return [lut_matmul_rowgather]
