"""Matrix-multiplication kernels of the convolution engines.

Two GEMM flavours are provided:

* :func:`gemm_float` -- the plain float matrix product used by the accurate
  GEMM-based convolution (what TensorFlow's own Conv2D reduces to).
* :func:`approx_gemm` -- the ``ApproxGEMM`` step of Algorithm 1: the patch
  matrix of quantised 8-bit values is multiplied with the quantised filter
  matrix using a multiplier *lookup table* for every scalar product, the
  integer accumulations are corrected with the pre-computed patch sums ``Sp``
  and filter sums ``Sf`` and the result is dequantised according to Eq. 4.

The integer LUT product itself -- :func:`lut_matmul` -- dispatches through a
small *kernel registry* mirroring :mod:`repro.backends.registry`.  Three
variants ship by default:

``naive``
    The seed implementation: one row tile at a time, full-depth ``[T, K, F]``
    int64 index tensor.  Kept as the reference the other variants must match
    bit for bit.
``blocked``
    Cache-blocked gather-GEMM: the K dimension is walked in panels sized so
    the stitched-index and product intermediates stay cache-resident, the
    operand-to-index conversion is fused into a narrow pre-computed bit
    plane (one ``&``/``<<`` per operand for the whole product, not per
    tile), and the lookup gathers through :meth:`numpy.ndarray.take` in the
    LUT's native 16-bit storage.  Bit-identical to ``naive`` (integer
    addition is associative) at 2-3x its throughput.
``rowgather``
    Weight-stationary row gather: per K panel it slices the LUT into
    ``W[k * 2**n + v, :] = LUT[v, w[k, :]]`` (native 16-bit storage), then
    every patch row accumulates ``W[a[p, k] + k * 2**n, :]`` -- one
    contiguous F-wide row per operand instead of one stitched index per
    product.  Bit-identical to ``naive``; 1.4-3.7x ``blocked`` on the
    ResNet layer shapes.

When no kernel is named, :func:`lut_matmul` picks by call size: building
``W`` costs ``2**n * K * F`` gathers and the GEMM ``P * K * F``, so
``rowgather`` runs when ``P >= 2 * 2**n`` (512 rows for 8-bit tables) and
``blocked`` below that, where the build would dominate (serve's
single-sample calls).  ``W`` is rebuilt on every call rather than cached:
it is ``K * 2**n * F`` entries per layer, ~137 MB across ResNet-20's 19
tables (18.9 MB for each stage-3 table), over half the ~258 MB peak RSS of
whole-model ResNet-20 inference -- while the per-call build costs at most
1/8 of the GEMM's gathers at ResNet-20's smallest batch-32 call (P=2048),
and needs no invalidation when training rewrites the filter banks.

Every kernel accepts a ``compute_dtype`` (``int32`` or the default
``int64``): the accumulator width of the emulated MAC datapath.  ``int32``
halves the accumulator bandwidth; :func:`lut_matmul` rejects it up front
with :class:`~repro.errors.ConfigurationError` unless
``K * max|LUT| < 2**31``, so no kernel can wrap silently.  Operands outside
the table's range raise :class:`~repro.errors.TruthTableError` there too,
exactly as :meth:`~repro.lut.LookupTable.lookup` does.

``approx_gemm`` stays deliberately engine-agnostic: the kernels here, the
direct CPU loop in :mod:`repro.conv.reference` and the simulated CUDA kernel
in :mod:`repro.gpusim.kernels.gemm_kernel` must all produce bit-identical
results, which the cross-kernel parity grid in the test-suite checks.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

from .. import xp
from ..errors import ConfigurationError, RegistryError, ShapeError
from ..lut.table import LookupTable
from ..quantization.affine import QuantParams

#: Environment variable overriding the size-selected LUT-GEMM kernel.
ENV_KERNEL = "REPRO_GEMM_KERNEL"

#: Default row-panel height of the blocked and rowgather kernels (tuned so
#: one panel's index + product intermediates fit in L2 for the bench shapes).
DEFAULT_BLOCK_ROWS = 128

#: Default K-panel depth of the blocked kernel.
DEFAULT_BLOCK_K = 48

#: Byte budget of one rowgather ``W`` panel; its K depth follows from it
#: (32 taps of a 64-filter 8-bit bank, a single tap of a 12-bit one).
ROWGATHER_PANEL_BYTES = 1 << 20

#: ``rowgather`` is the default once ``P >= ROWGATHER_MIN_ROWS_PER_LEVEL *
#: 2**n``: below that, building ``W`` outweighs the gathers it saves.
ROWGATHER_MIN_ROWS_PER_LEVEL = 2


def gemm_float(a: xp.ndarray, b: xp.ndarray) -> xp.ndarray:
    """Plain float matrix multiplication with shape validation."""
    a = xp.asarray(a, dtype=xp.float64)
    b = xp.asarray(b, dtype=xp.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("gemm_float expects two 2D matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions do not match: {a.shape} x {b.shape}"
        )
    return a @ b


def flat_index_dtype(bit_width: int):
    """Smallest safe integer dtype for stitched flat LUT indices.

    The stitched index ``(a_bits << n) | b_bits`` spans ``2 * n`` bits for an
    ``n``-bit multiplier, so narrow index buffers overflow silently once the
    width grows: int16 already fails at 9 bits and a 16-bit LUT's top index
    (``2**32 - 1``) no longer fits a *signed* 32-bit integer.  Every kernel
    that stitches indices routes them through this choice; the tests pin
    the 12-bit and 16-bit boundaries.
    """
    if bit_width < 2 or bit_width > 16:
        raise ConfigurationError(f"bit width {bit_width} outside [2, 16]")
    return xp.int32 if 2 * bit_width <= 31 else xp.int64


def _resolve_compute_dtype(compute_dtype):
    """Normalise the accumulator dtype parameter (int32/int64, default int64)."""
    if compute_dtype is None:
        return xp.int64
    dtype = xp.dtype(compute_dtype)
    if dtype not in (xp.dtype(xp.int32), xp.dtype(xp.int64)):
        raise ConfigurationError(
            f"compute_dtype must be int32 or int64, got {dtype}"
        )
    return dtype.type


def _wrap_accumulator(values: xp.ndarray, accumulator_bits: int | None,
                      saturate: bool) -> xp.ndarray:
    """Model a finite-width MAC accumulator.

    The paper's accelerator uses a 32-bit accumulator behind the 8-bit
    multiplier; by default the emulation uses int64 so no overflow can occur,
    but callers may opt into modelling the finite accumulator either with
    wrap-around (two's complement) or saturation semantics.
    """
    if accumulator_bits is None:
        return values
    if accumulator_bits < 8 or accumulator_bits > 64:
        raise ConfigurationError("accumulator_bits must lie in [8, 64]")
    lo = -(1 << (accumulator_bits - 1))
    hi = (1 << (accumulator_bits - 1)) - 1
    if saturate:
        return xp.clip(values, lo, hi)
    span = 1 << accumulator_bits
    wrapped = xp.mod(values - lo, span) + lo
    return wrapped


def _validate_lut_matmul_operands(patches, filters):
    patches = xp.asarray(patches, dtype=xp.int64)
    filters = xp.asarray(filters, dtype=xp.int64)
    if patches.ndim != 2 or filters.ndim != 2:
        raise ShapeError("lut_matmul expects 2D operands")
    if patches.shape[1] != filters.shape[0]:
        raise ShapeError(
            f"inner dimensions do not match: {patches.shape} x {filters.shape}"
        )
    return patches, filters


def _check_int32_accumulator(depth: int, lut: LookupTable, acc_dtype) -> None:
    """Reject int32 accumulation whenever ``depth`` products could wrap it."""
    if acc_dtype is xp.int32 and depth * lut.max_abs_product >= 1 << 31:
        raise ConfigurationError(
            f"int32 accumulator can overflow: K={depth} products of up to "
            f"|{lut.max_abs_product}| reach 2**31; use compute_dtype=int64"
        )


def lut_matmul_naive(patches: xp.ndarray, filters: xp.ndarray,
                     lut: LookupTable, *, tile_rows: int = 256,
                     accumulator_bits: int | None = None,
                     saturate: bool = False,
                     compute_dtype=None, **_tuning) -> xp.ndarray:
    """The seed LUT-GEMM kernel: row tiles over a full-depth index tensor.

    ``patches`` has shape ``[P, K]`` (quantised patch rows), ``filters`` has
    shape ``[K, F]`` (quantised filter columns).  The product is accumulated
    in ``compute_dtype`` (default int64, optionally folded into a
    finite-width accumulator) and returned as an ``[P, F]`` int64 matrix of
    *approximate* dot products.

    The computation is tiled over patch rows only, so the intermediate index
    tensor is ``[tile_rows, K, F]`` -- small for the paper's layer shapes but
    far outside cache for deep inputs, which is what the ``blocked`` kernel
    fixes.  Kept verbatim as the bit-exact reference of the parity grid.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    if tile_rows <= 0:
        raise ConfigurationError("tile_rows must be positive")
    acc_dtype = _resolve_compute_dtype(compute_dtype)

    num_patches, depth = patches.shape
    num_filters = filters.shape[1]
    result = xp.zeros((num_patches, num_filters), dtype=xp.int64)

    # Pre-stitch the filter half of the index once; the patch half is added
    # tile by tile.  Index = (patch_bits << n) | filter_bits.
    mask = (1 << lut.bit_width) - 1
    filter_bits = (filters & mask)                      # [K, F]
    for start in range(0, num_patches, tile_rows):
        stop = min(start + tile_rows, num_patches)
        tile = patches[start:stop]                      # [T, K]
        tile_bits = (tile & mask) << lut.bit_width      # [T, K]
        idx = tile_bits[:, :, None] | filter_bits[None, :, :]   # [T, K, F]
        products = lut.lookup_flat(idx)                 # [T, K, F] int64
        acc = products.sum(axis=1, dtype=acc_dtype)     # [T, F]
        result[start:stop] = _wrap_accumulator(
            acc.astype(xp.int64), accumulator_bits, saturate)
    return result


def lut_matmul_blocked(patches: xp.ndarray, filters: xp.ndarray,
                       lut: LookupTable, *,
                       block_rows: int = DEFAULT_BLOCK_ROWS,
                       block_k: int = DEFAULT_BLOCK_K,
                       accumulator_bits: int | None = None,
                       saturate: bool = False,
                       compute_dtype=None, **_tuning) -> xp.ndarray:
    """Cache-blocked gather-GEMM over K panels with a fused index inner loop.

    Same contract as :func:`lut_matmul_naive`, restructured for memory
    locality:

    * the quantise-to-bit-pattern step is *fused* out of the inner loop --
      both operands are converted to stitched-index bit planes exactly once,
      in the narrowest dtype the LUT width allows
      (:func:`flat_index_dtype`), instead of re-masking every row tile;
    * the product is walked in ``[block_rows, block_k, F]`` panels, so the
      stitched-index tensor and the gathered products stay cache-sized for
      any depth ``K`` (the naive kernel's intermediates grow linearly with
      ``K``);
    * the gather reads the LUT's native 16-bit storage via ``take`` and sums
      with an explicit ``compute_dtype`` accumulator, never materialising
      the int64 product tensor the naive kernel allocates.

    Partial K-panel sums are combined by integer addition, so the result is
    bit-identical to the naive kernel for every block size -- the hypothesis
    suite asserts exactly that.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    if block_rows <= 0 or block_k <= 0:
        raise ConfigurationError("block_rows and block_k must be positive")
    acc_dtype = _resolve_compute_dtype(compute_dtype)

    num_patches, depth = patches.shape
    num_filters = filters.shape[1]
    idx_dtype = flat_index_dtype(lut.bit_width)
    mask = (1 << lut.bit_width) - 1
    flat = lut.flat

    # Fused quantise+flat-index preparation: one masked shift per operand
    # element for the whole product.
    patch_bits = ((patches & mask) << lut.bit_width).astype(idx_dtype)
    filter_bits = (filters & mask).astype(idx_dtype)

    result = xp.zeros((num_patches, num_filters), dtype=xp.int64)
    for r0 in range(0, num_patches, block_rows):
        r1 = min(r0 + block_rows, num_patches)
        acc = xp.zeros((r1 - r0, num_filters), dtype=acc_dtype)
        for k0 in range(0, depth, block_k):
            k1 = min(k0 + block_k, depth)
            idx = patch_bits[r0:r1, k0:k1, None] | filter_bits[None, k0:k1, :]
            acc += flat.take(idx).sum(axis=1, dtype=acc_dtype)
        result[r0:r1] = _wrap_accumulator(
            acc.astype(xp.int64), accumulator_bits, saturate)
    return result


def lut_matmul_rowgather(patches: xp.ndarray, filters: xp.ndarray,
                         lut: LookupTable, *,
                         block_rows: int = DEFAULT_BLOCK_ROWS,
                         accumulator_bits: int | None = None,
                         saturate: bool = False,
                         compute_dtype=None, **_tuning) -> xp.ndarray:
    """Weight-stationary row-gather GEMM: one F-wide table row per operand.

    Same contract as :func:`lut_matmul_naive`.  For each K panel the LUT is
    sliced into ``W[k * 2**n + v, f] = LUT[v, w[k, f]]``, so the products of
    patch operand ``v`` with a whole filter row are one contiguous row of
    ``W``; each row block then accumulates ``W.take(a_bits + k * 2**n,
    axis=0).sum(axis=1)``.  Row offsets cost ``P * K`` adds instead of the
    ``P * K * F`` stitched indices of the other kernels.

    A panel holds as many ``k`` as fit :data:`ROWGATHER_PANEL_BYTES` of
    ``W`` (at least one), so wide tables -- 4096 rows of 4-byte entries per
    ``k`` at 12 bits -- keep it cache-sized.  ``W`` is rebuilt on every
    call; the module docstring explains why it is not cached.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    if block_rows <= 0:
        raise ConfigurationError("block_rows must be positive")
    acc_dtype = _resolve_compute_dtype(compute_dtype)

    num_patches, depth = patches.shape
    num_filters = filters.shape[1]
    levels = 1 << lut.bit_width
    mask = levels - 1
    # by_weight[w, v] = LUT[v, w]: one contiguous row per filter operand.
    by_weight = xp.ascontiguousarray(lut.flat.reshape(levels, levels).T)
    panel_k = max(1, ROWGATHER_PANEL_BYTES
                  // (levels * max(num_filters, 1) * by_weight.itemsize))
    filter_bits = filters & mask

    acc = xp.zeros((num_patches, num_filters), dtype=acc_dtype)
    for k0 in range(0, depth, panel_k):
        k1 = min(k0 + panel_k, depth)
        panel = by_weight.take(filter_bits[k0:k1], axis=0)   # [k, F, v]
        weights = xp.ascontiguousarray(panel.transpose(0, 2, 1)).reshape(
            (k1 - k0) * levels, num_filters)                  # [k * 2**n + v, F]
        offsets = xp.arange(0, (k1 - k0) * levels, levels)
        for r0 in range(0, num_patches, block_rows):
            r1 = min(r0 + block_rows, num_patches)
            rows = (patches[r0:r1, k0:k1] & mask) + offsets
            acc[r0:r1] += weights.take(rows, axis=0).sum(axis=1, dtype=acc_dtype)
    return _wrap_accumulator(
        acc.astype(xp.int64, copy=False), accumulator_bits, saturate)


# ----------------------------------------------------------------------
# Kernel registry (mirrors repro.backends.registry)
# ----------------------------------------------------------------------
GemmKernel = Callable[..., "xp.ndarray"]

_KERNELS: dict[str, GemmKernel] = {}
_KERNEL_LOCK = threading.Lock()
_DEFAULT_KERNEL_OVERRIDE: str | None = None


def register_gemm_kernel(name: str, kernel: GemmKernel, *,
                         overwrite: bool = False) -> None:
    """Register a LUT-GEMM kernel variant under ``name``.

    A kernel is a callable ``kernel(patches, filters, lut, *,
    accumulator_bits=None, saturate=False, compute_dtype=None, **tuning)``
    returning the ``[P, F]`` int64 accumulator matrix, bit-identical to
    :func:`lut_matmul_naive`.  Mirrors
    :func:`repro.backends.register_backend`.
    """
    if not callable(kernel):
        raise RegistryError(
            f"gemm kernel must be callable, got {type(kernel).__name__}"
        )
    with _KERNEL_LOCK:
        if not overwrite and name in _KERNELS:
            raise RegistryError(f"gemm kernel {name!r} is already registered")
        _KERNELS[name] = kernel


def unregister_gemm_kernel(name: str) -> None:
    """Remove a registered kernel variant (unknown names raise)."""
    with _KERNEL_LOCK:
        if name not in _KERNELS:
            raise RegistryError(f"gemm kernel {name!r} is not registered")
        del _KERNELS[name]


def available_gemm_kernels() -> list[str]:
    """Sorted names of every registered kernel variant."""
    with _KERNEL_LOCK:
        return sorted(_KERNELS)


def get_gemm_kernel(name: str) -> GemmKernel:
    """Return the kernel registered under ``name`` (unknown names raise)."""
    with _KERNEL_LOCK:
        try:
            return _KERNELS[name]
        except KeyError:
            known = ", ".join(sorted(_KERNELS))
            raise RegistryError(
                f"unknown gemm kernel {name!r}; registered kernels: {known}"
            ) from None


def set_default_gemm_kernel(name: str | None) -> None:
    """Pin the kernel :func:`lut_matmul` dispatches to (None = auto-select)."""
    global _DEFAULT_KERNEL_OVERRIDE
    if name is not None:
        get_gemm_kernel(name)   # validate eagerly
    _DEFAULT_KERNEL_OVERRIDE = name


def default_gemm_kernel(num_patches: int = 0, bit_width: int = 8) -> str:
    """Kernel name :func:`lut_matmul` dispatches to when none is requested.

    Resolution order: :func:`set_default_gemm_kernel` override, then the
    ``REPRO_GEMM_KERNEL`` environment variable, then the size rule --
    ``rowgather`` for calls of ``num_patches >= 2 * 2**bit_width`` rows,
    ``blocked`` below that.
    """
    if _DEFAULT_KERNEL_OVERRIDE is not None:
        return _DEFAULT_KERNEL_OVERRIDE
    env = os.environ.get(ENV_KERNEL)
    if env:
        get_gemm_kernel(env)    # fail fast on typos
        return env
    if num_patches >= ROWGATHER_MIN_ROWS_PER_LEVEL << bit_width:
        return "rowgather"
    return "blocked"


def lut_matmul(patches: xp.ndarray, filters: xp.ndarray, lut: LookupTable, *,
               tile_rows: int = 256,
               accumulator_bits: int | None = None,
               saturate: bool = False,
               kernel: str | None = None,
               compute_dtype=None,
               block_rows: int = DEFAULT_BLOCK_ROWS,
               block_k: int = DEFAULT_BLOCK_K) -> xp.ndarray:
    """Integer matrix product where every multiplication is a LUT lookup.

    ``patches`` has shape ``[P, K]`` (quantised patch rows), ``filters`` has
    shape ``[K, F]`` (quantised filter columns).  The product is returned as
    an ``[P, F]`` int64 matrix of *approximate* dot products.

    ``kernel`` selects the executing variant from the kernel registry
    (``naive``, ``blocked``, ``rowgather``, plus anything added via
    :func:`register_gemm_kernel`); when omitted,
    :func:`default_gemm_kernel` picks one by the call's row count.  All
    variants are bit-identical; ``tile_rows`` tunes the naive kernel,
    ``block_rows`` the blocked and rowgather ones, ``block_k`` the blocked
    one, and ``compute_dtype`` selects the accumulator width (int32 vs
    int64) of any of them.

    Operands outside the table's range raise
    :class:`~repro.errors.TruthTableError`, and an ``int32`` accumulator
    that ``K`` products could overflow raises
    :class:`~repro.errors.ConfigurationError` before any work is done.
    """
    if tile_rows <= 0:
        raise ConfigurationError("tile_rows must be positive")
    if block_rows <= 0 or block_k <= 0:
        raise ConfigurationError("block_rows and block_k must be positive")
    patches, filters = _validate_lut_matmul_operands(patches, filters)
    _check_int32_accumulator(
        patches.shape[1], lut, _resolve_compute_dtype(compute_dtype))
    lut.check_operands(patches)
    lut.check_operands(filters)
    if kernel is None:
        kernel = default_gemm_kernel(patches.shape[0], lut.bit_width)
    run = get_gemm_kernel(kernel)
    return run(
        patches, filters, lut,
        accumulator_bits=accumulator_bits,
        saturate=saturate,
        compute_dtype=compute_dtype,
        tile_rows=tile_rows,
        block_rows=block_rows,
        block_k=block_k,
    )


def _register_default_kernels() -> None:
    register_gemm_kernel("naive", lut_matmul_naive, overwrite=True)
    register_gemm_kernel("blocked", lut_matmul_blocked, overwrite=True)
    register_gemm_kernel("rowgather", lut_matmul_rowgather, overwrite=True)


_register_default_kernels()


def dequantize_gemm(acc: xp.ndarray, patch_sums: xp.ndarray,
                    filter_sums: xp.ndarray, depth: int,
                    input_q: QuantParams, filter_q: QuantParams) -> xp.ndarray:
    """Apply the Eq. 4 correction and dequantisation to integer accumulators.

    ``acc[p, f]`` is the (approximate) sum of quantised products for patch
    ``p`` and filter ``f``; ``patch_sums[p]`` is ``Sp``, ``filter_sums[f]`` is
    ``Sf`` and ``depth`` is the number of accumulated terms ``N``.  The result
    is the real-valued convolution output

    ``alpha1*alpha2 * (acc - beta2*Sp - beta1*Sf + N*beta1*beta2)``.
    """
    acc = xp.asarray(acc, dtype=xp.float64)
    patch_sums = xp.asarray(patch_sums, dtype=xp.float64)
    filter_sums = xp.asarray(filter_sums, dtype=xp.float64)
    if acc.ndim != 2:
        raise ShapeError("accumulator matrix must be 2D")
    if patch_sums.shape[0] != acc.shape[0]:
        raise ShapeError(
            f"patch sums ({patch_sums.shape[0]}) do not match accumulator rows "
            f"({acc.shape[0]})"
        )
    if filter_sums.shape[0] != acc.shape[1]:
        raise ShapeError(
            f"filter sums ({filter_sums.shape[0]}) do not match accumulator "
            f"columns ({acc.shape[1]})"
        )
    alpha1, beta1 = input_q.scale, input_q.zero_point
    alpha2, beta2 = filter_q.scale, filter_q.zero_point
    corrected = (
        acc
        - beta2 * patch_sums[:, None]
        - beta1 * filter_sums[None, :]
        + depth * beta1 * beta2
    )
    return alpha1 * alpha2 * corrected


def approx_gemm(patches: xp.ndarray, patch_sums: xp.ndarray,
                filters: xp.ndarray, filter_sums: xp.ndarray,
                input_q: QuantParams, filter_q: QuantParams,
                lut: LookupTable, *, tile_rows: int = 256,
                accumulator_bits: int | None = None,
                saturate: bool = False,
                kernel: str | None = None,
                compute_dtype=None) -> xp.ndarray:
    """The ``ApproxGEMM`` step of Algorithm 1.

    Multiplies the quantised patch matrix with the quantised filter matrix
    through the multiplier LUT and returns the dequantised float output of
    shape ``[patches, filters]``.  ``kernel`` and ``compute_dtype`` select
    the LUT-GEMM variant and accumulator width (see :func:`lut_matmul`).
    """
    acc = lut_matmul(
        patches, filters, lut,
        tile_rows=tile_rows,
        accumulator_bits=accumulator_bits,
        saturate=saturate,
        kernel=kernel,
        compute_dtype=compute_dtype,
    )
    depth = patches.shape[1]
    return dequantize_gemm(acc, patch_sums, filter_sums, depth, input_q, filter_q)
