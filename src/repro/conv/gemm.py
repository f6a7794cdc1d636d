"""Matrix-multiplication kernels of the convolution engines.

Two GEMM flavours are provided:

* :func:`gemm_float` -- the plain float matrix product used by the accurate
  GEMM-based convolution (what TensorFlow's own Conv2D reduces to).
* :func:`approx_gemm` -- the ``ApproxGEMM`` step of Algorithm 1: the patch
  matrix of quantised 8-bit values is multiplied with the quantised filter
  matrix using a multiplier *lookup table* for every scalar product, the
  integer accumulations are corrected with the pre-computed patch sums ``Sp``
  and filter sums ``Sf`` and the result is dequantised according to Eq. 4.

The integer LUT product itself -- :func:`lut_matmul` -- dispatches to one of
two kernels in the fixed :data:`KERNELS` table, both bit-identical to the
seed's one-gather-per-product reference the test-suite keeps:

``rowgather``
    Weight-stationary row gather: per K panel it slices the LUT into
    ``W[k * 2**n + v, :] = LUT[v, w[k, :]]`` (native 16-bit storage), then
    every patch row accumulates ``W[a[p, k] + k * 2**n, :]`` -- one
    contiguous F-wide row per operand instead of one stitched index per
    product.  The gather is K-major, so a row block's products come out as
    contiguous per-tap ``[rows, F]`` slabs that are summed slab by slab, in
    int32 when the table's storage bounds the panel's partial sums below
    ``2**31`` (every 8-bit table).
``factored``
    Exact BLAS products for low-rank tables.  When the table is an exact
    sum of ``r <= 3`` separable terms, ``d * LUT[a, b] = sum_s C[a, s] *
    dG[s, b]`` in integers (:attr:`~repro.lut.LookupTable.factors`), the
    product of lookups is ``sum_s C[:, s][bits(A)] @ dG[s][bits(W)] / d``:
    one float64 GEMM over the ``r * K`` gathered factor columns, rounded and
    divided exactly by ``d``.  Every product and partial sum is an integer,
    so the GEMM is exact -- in any summation order BLAS picks -- while
    ``K * r * max|C| * max|dG| < 2**53``.  14 of the library's 31 tables
    (exact, truncated-operand, DRUM, UDM, ``bam_h2v4``) qualify; ``mitchell``
    (rank 64) does not.

When no kernel is named, :func:`choose_gemm_kernel` picks one from the table
and the call's depth: ``factored`` whenever the table has factors and the
depth keeps the product exact, else ``rowgather``, at any row count.  With
one BLAS thread, ``factored`` ran 1.3-7.4x the gather kernel on ResNet-20's
batch-32 stage shapes and 3.5-6.5x on serve's single-sample 16x288x64
call, for rank 1-3 tables.

Building ``W`` costs ``2**n * K * F`` gathers and the GEMM ``P * K * F``,
so on a short call (``P < 2 * 2**n``, 512 rows for 8-bit tables) the build
is most of the work.  A filter bank used again need not rebuild it:
:class:`RowTable` holds the whole-depth table next to its filter matrix,
and :func:`lut_matmul` runs ``rowgather`` on it with no build.
``factored`` has a filter side too: it gathers ``dG[s][bits(W)]`` and
copies its transpose on every call, 57-60 us over serve's three
single-sample calls on ``mul8s_exact``/``mul8s_trunc2`` (one BLAS thread).
:class:`FactoredFilters` holds it next to its filter matrix.  These two
are the prebuilt filter operands; the
:class:`~repro.backends.cache.FilterBankCache` alone decides when to
build one and keeps it with its bank, within :data:`ROW_TABLE_CACHE_BYTES`
in total.  It builds a :class:`RowTable` on a (bank, table) pair's second
short call (:data:`ROW_TABLE_ROWS_PER_LEVEL`), and either operand at once
for a bank that a frozen :class:`~repro.graph.ops.AxConv2D` binds.  Tall
unbound calls keep the per-call build: it costs at most 1/8 of the GEMM's
gathers at ResNet-20's smallest batch-32 call (P=2048), whereas caching
its 19 tables would take ~137 MB (18.9 MB for each stage-3 table), over
half the ~258 MB peak RSS of whole-model ResNet-20 inference.

A large gather call runs on two cores.  :func:`lut_matmul` splits the
depth ``K`` of a ``rowgather`` call with at least
:data:`SPLIT_MIN_MACS` (``2**22``) MACs, and at least
:data:`SPLIT_MIN_ROW_MACS` per patch row in each half, when the process
may use two CPUs: the calling thread runs the kernel on taps ``[0,
mid)``, one worker thread on ``[mid, K)``, and the two int64 sums are
added -- exact, so the result is bit-identical.  The split is on the
depth, not the rows, so neither half repeats the other's ``W`` panels or
index build and the threads meet once per call (two threads each on half
the rows measured 0.80-0.83x).  NumPy releases the interpreter lock
inside each gather, so the halves overlap; between ops the threads hand
the lock to each other, which is why narrow calls (the ResNet-20 stem, 27
taps x 16 filters) stay whole and ``rowgather`` gathers
:data:`ROWGATHER_BLOCK_ROWS` rows at a time.  A split ``mul8s_mitchell``
call at ResNet-20's batch-32 stage shapes ran 1.5-1.7x the whole call on
two vCPUs; serve's single-sample calls (at most 295K MACs) never split.
``factored`` runs whole: its GEMM already runs on BLAS's threads.

Every kernel returns int64 sums (``rowgather`` adds its int32 panel
partials into an int64 accumulator; ``factored`` converts its
exact float64 sums).  :func:`lut_matmul` validates once for all of them:
operands outside the table's range, and float operands holding non-integral
values, raise :class:`~repro.errors.TruthTableError` there, exactly as
:meth:`~repro.lut.LookupTable.lookup` does for the former.  Integer operands
of any width -- the int8 patch matrix of
:func:`~repro.conv.im2col.im2col_quantized` among them -- reach the kernels
without an upcast copy.

``approx_gemm`` stays deliberately engine-agnostic: the kernels here, the
direct CPU loop in :mod:`repro.conv.reference` and the simulated CUDA kernel
in :mod:`repro.gpusim.kernels.gemm_kernel` must all produce bit-identical
results, which the cross-kernel parity grid in the test-suite checks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import ConfigurationError, RegistryError, ShapeError, TruthTableError
from ..lut.table import LookupTable
from ..quantization.affine import QuantParams

#: Default row-block height of the rowgather kernel.  A split call's two
#: threads pass the interpreter lock between every NumPy op, so fewer,
#: larger gathers pay (stage 1 of batch-32 ResNet-20, 32768x144x16, split:
#: 128 -> 256 rows took 63 -> 46 ms; whole calls 0.93-1.1x).
ROWGATHER_BLOCK_ROWS = 256

#: Byte budget of one rowgather ``W`` panel; its K depth follows from it
#: (32 taps of a 64-filter 8-bit bank, a single tap of a 12-bit one).
ROWGATHER_PANEL_BYTES = 1 << 20

#: Byte budget of all the prebuilt filter operands (:class:`RowTable`,
#: :class:`FactoredFilters`) one :class:`~repro.backends.cache.FilterBankCache`
#: keeps, least recently used evicted first; an operand larger than this is
#: never built.  Single-sample ``simple_cnn`` on ``mul8s_mitchell`` needs
#: 11.5 MiB of row tables.
ROW_TABLE_CACHE_BYTES = 16 << 20

#: Byte budget of one ``factored`` row block's gathered ``[rows, g * K]``
#: float64 operand, ``g <= 2`` factor columns per gather (the row count
#: follows from it).  Twice L2-sized: with OpenBLAS's default two threads,
#: 256 KiB blocks ran rank-3 calls at ResNet-20's stage 1 (32768x144x16)
#: no faster than ``rowgather`` split over two threads; 512 KiB ran them
#: 1.4-1.6x.  With one BLAS thread the stage-1 calls ran up to 10% slower.
FACTORED_PANEL_BYTES = 1 << 19

#: A call with fewer than ``ROW_TABLE_ROWS_PER_LEVEL * 2**n`` patch rows is
#: *short*: building its ``W`` (``2**n * K * F`` gathers) is over half the
#: GEMM's ``P * K * F``, so a filter bank that makes short calls through a
#: non-factored table earns a cached :class:`RowTable`.
ROW_TABLE_ROWS_PER_LEVEL = 2

#: A :func:`lut_matmul` call of at least this many MACs (``P * K * F``)
#: splits its depth between the calling thread and one worker when the
#: process may use two CPUs.  Every ResNet-20 / ResNet-8 batch call is
#: above it; serve's largest single-sample call (16x288x64, 295K MACs) is
#: far below, where a thread start would cost more than it saves.
SPLIT_MIN_MACS = 1 << 22

#: ... and each depth half has at least this many MACs per patch row
#: (``(K // 2) * F``).  That product sets the size of every gather op in
#: the halves; below it the two threads spend their time handing the
#: interpreter lock to each other between small NumPy ops (the batch-32
#: ResNet-20 stem, 32768x27x16, ran 0.4x split).
SPLIT_MIN_ROW_MACS = 1 << 10


def gemm_float(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain float matrix multiplication with shape validation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("gemm_float expects two 2D matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions do not match: {a.shape} x {b.shape}"
        )
    return a @ b


def _integer_operand(values, lut: LookupTable) -> np.ndarray:
    """One ``lut_matmul`` operand as an integer array the table can address.

    Integer arrays of any width pass through without a copy.  Booleans, and
    floats whose every value is a finite integer (``np.zeros`` operands,
    say), are cast to int64.  Any other float would be truncated silently,
    so it raises :class:`~repro.errors.TruthTableError`, as do values
    outside the table's operand range.  An integer dtype whose every value
    is inside that range (int8 patches on a signed 8-bit table) needs no
    scan.
    """
    kind = values.dtype.kind
    if kind not in "iub" and not (kind == "f"
                                  and np.all(np.isfinite(values))
                                  and np.all(values == np.trunc(values))):
        raise TruthTableError(
            f"lut_matmul operands must be integers; got non-integral "
            f"{values.dtype} values"
        )
    if kind in "iu":
        info = np.iinfo(values.dtype)
        if info.min < lut.operand_min or info.max > lut.operand_max:
            lut.check_operands(values)
        return values
    lut.check_operands(values)
    return values.astype(np.int64)


def _validate_lut_matmul_operands(patches, filters, lut: LookupTable):
    """Both operands as integer arrays the table can address.

    A prebuilt filter operand (:class:`RowTable`, :class:`FactoredFilters`)
    is returned as it is: its filters were checked when it was built and
    are read-only.
    """
    table = filters if type(filters) in _PREBUILT else None
    if table is not None and table.lut is not lut:
        raise ConfigurationError(
            f"{type(table).__name__} was built for {table.lut.name!r}, "
            f"not {lut.name!r}")
    patches = np.asarray(patches)
    filters = table.filters if table is not None else np.asarray(filters)
    if patches.ndim != 2 or filters.ndim != 2:
        raise ShapeError("lut_matmul expects 2D operands")
    if patches.shape[1] != filters.shape[0]:
        raise ShapeError(
            f"inner dimensions do not match: {patches.shape} x {filters.shape}"
        )
    patches = _integer_operand(patches, lut)
    return patches, table if table is not None else _integer_operand(filters, lut)


def _panel_sum_dtype(storage, panel_k: int):
    """Accumulator dtype of one ``rowgather`` K panel's partial sums.

    A partial sum adds ``panel_k`` table entries, so it fits int32 whenever
    ``panel_k * max|entry| < 2**31`` for the table's storage dtype: always
    for 16-bit storage (8-bit tables) at the panel depths the byte budget
    allows.  32-bit storage (wider tables) sums in int64.
    """
    info = np.iinfo(storage)
    if info.bits <= 16 and panel_k * max(-info.min, info.max) < 1 << 31:
        return np.int32
    return np.int64


def _panel_taps(levels: int, num_filters: int, itemsize: int) -> int:
    """Taps per ``rowgather`` ``W`` panel: as many as fit
    :data:`ROWGATHER_PANEL_BYTES`, at least one."""
    return max(1, ROWGATHER_PANEL_BYTES
               // (levels * max(num_filters, 1) * itemsize))


def _by_weight(lut: LookupTable) -> np.ndarray:
    """``by_weight[w, v] = LUT[v, w]``: the table transposed so that each
    filter operand ``w`` owns one contiguous row, as :func:`_fill_rows`
    reads it."""
    levels = 1 << lut.bit_width
    return np.ascontiguousarray(lut.flat.reshape(levels, levels).T)


def _fill_rows(out: np.ndarray, filter_bits: np.ndarray,
               by_weight: np.ndarray) -> np.ndarray:
    """Write ``out[k * 2**n + v, f] = LUT[v, filter_bits[k, f]]`` in place.

    ``by_weight[w, v] = LUT[v, w]`` holds one contiguous row per filter
    operand.  Taps are gathered in groups of at most
    :data:`ROWGATHER_PANEL_BYTES` and transposed straight into their slice
    of ``out``, so no transient grows with ``K``.
    """
    levels = by_weight.shape[0]
    depth, num_filters = filter_bits.shape
    group = _panel_taps(levels, num_filters, by_weight.itemsize)
    for k0 in range(0, depth, group):
        k1 = min(k0 + group, depth)
        panel = by_weight.take(filter_bits[k0:k1], axis=0)     # [k, F, v]
        np.copyto(out[k0 * levels:k1 * levels].reshape(
            k1 - k0, levels, num_filters), panel.transpose(0, 2, 1))
    return out


def _bit_patterns(patches: np.ndarray, lut: LookupTable):
    """``(operand, masked)``: an operand dtype exactly as wide as the table
    (int8 on an 8-bit table) is viewed as unsigned, which makes every value
    its own bit pattern; any other still needs ``& (2**n - 1)`` once
    widened, which ``masked`` says."""
    if patches.dtype.itemsize * 8 == lut.bit_width:
        return patches.view(f"u{patches.dtype.itemsize}"), False
    return patches, True


def _gather_rows(acc: np.ndarray, patches: np.ndarray, rows: np.ndarray,
                 k0: int, k1: int, *, levels: int, block_rows: int,
                 partial_dtype, masked: bool) -> None:
    """``acc += sum_k rows[bits(patches[:, k]) + (k - k0) * 2**n]`` over one
    K panel ``[k0, k1)`` of the row table ``rows`` (``[(k1 - k0) * 2**n, F]``).

    The one gather loop of ``rowgather``, whether its table was built for
    this call or cached with the filter bank.  ``masked`` is
    :func:`_bit_patterns`' flag for ``patches``.
    """
    offsets = np.arange(0, (k1 - k0) * levels, levels)[:, None]
    for r0 in range(0, len(acc), block_rows):
        r1 = min(r0 + block_rows, len(acc))
        index = patches[r0:r1, k0:k1].T.astype(np.intp, order="C")
        if masked:
            index &= levels - 1
        index += offsets                                      # [k, rows]
        acc[r0:r1] += rows.take(index, axis=0).sum(axis=0, dtype=partial_dtype)


class RowTable:
    """A ``[K, F]`` filter operand with its ``rowgather`` table built once.

    ``rows[k * 2**n + v, f] = LUT[v, filters[k, f]]`` for every tap ``k`` and
    patch operand ``v``: the whole-depth weight table that
    :func:`lut_matmul_rowgather` otherwise builds panel by panel on every
    call.  Passed to :func:`lut_matmul` in place of the filter matrix, it
    sends the call to ``rowgather`` with no build.  The filters are
    validated against ``lut`` here, once, and both arrays are private and
    read-only, so the table can never disagree with its operand.
    :class:`~repro.backends.cache.FilterBankCache` builds and keeps these
    for filter banks that are used again.
    """

    def __init__(self, filters, lut: LookupTable) -> None:
        filters = _integer_operand(np.asarray(filters), lut)
        if filters.ndim != 2:
            raise ShapeError("a row table is built from a 2D filter matrix")
        levels = 1 << lut.bit_width
        by_weight = _by_weight(lut)
        rows = np.empty((filters.shape[0] * levels, filters.shape[1]),
                        dtype=by_weight.dtype)
        _fill_rows(rows, filters.astype(np.intp) & (levels - 1), by_weight)
        rows.setflags(write=False)
        self.filters = np.array(filters)
        self.filters.setflags(write=False)
        self.lut = lut
        self.rows = rows

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``[K, F]`` of the filter operand."""
        return self.filters.shape

    @property
    def nbytes(self) -> int:
        """Bytes held by the row table."""
        return self.rows.nbytes

    @staticmethod
    def nbytes_for(depth: int, num_filters: int, lut: LookupTable) -> int:
        """Bytes a ``[depth, num_filters]`` operand's table through ``lut`` takes."""
        return (depth << lut.bit_width) * num_filters * lut.flat.itemsize


def lut_matmul_rowgather(patches: np.ndarray, filters: np.ndarray | RowTable,
                         lut: LookupTable, *,
                         block_rows: int = ROWGATHER_BLOCK_ROWS) -> np.ndarray:
    """Weight-stationary row-gather GEMM: one F-wide table row per operand.

    ``patches`` is the ``[P, K]`` matrix of quantised patch rows and
    ``filters`` the ``[K, F]`` matrix of quantised filter columns, integer
    arrays of any width already validated by :func:`lut_matmul`; the
    ``[P, F]`` int64 result holds the *approximate* dot products.  Partial
    sums are combined by integer addition, so the result is bit-identical
    to the one-gather-per-product reference for every panel and block
    size.  For each K panel the LUT is
    sliced into ``W[k * 2**n + v, f] = LUT[v, w[k, f]]``, so the products of
    patch operand ``v`` with a whole filter row are one contiguous row of
    ``W``.  Each row block gathers K-major: its row offsets
    ``rows[k, p] = bits(a[p, k]) + k * 2**n`` are laid out tap by tap, so
    ``W.take(rows, axis=0)`` is a stack of contiguous ``[block, F]`` slabs,
    one per tap, and ``.sum(axis=0)`` adds whole slabs.  Row offsets cost
    ``P * K`` adds instead of ``P * K * F`` stitched indices.

    A panel holds as many ``k`` as fit :data:`ROWGATHER_PANEL_BYTES` of
    ``W`` (at least one), so wide tables -- 4096 rows of 4-byte entries per
    ``k`` at 12 bits -- keep it cache-sized.  Each panel's partial sums are
    taken in int32 when :func:`_panel_sum_dtype` proves they cannot
    overflow (every 8-bit table), else in int64; either way they are added
    into the int64 accumulator.  ``filters`` may be a :class:`RowTable`:
    its panels are then slices of the prebuilt table, and the call does no
    build at all.
    """
    table = filters if isinstance(filters, RowTable) else None
    num_patches, depth = patches.shape
    num_filters = filters.shape[1]
    levels = 1 << lut.bit_width
    storage = lut.flat.dtype
    panel_k = _panel_taps(levels, num_filters, storage.itemsize)
    partial_dtype = _panel_sum_dtype(storage, panel_k)
    if table is None:
        by_weight = _by_weight(lut)
        filter_bits = filters.astype(np.intp) & (levels - 1)
        buffer = np.empty((min(panel_k, depth) * levels, num_filters),
                          dtype=storage)

    patches, masked = _bit_patterns(patches, lut)
    acc = np.zeros((num_patches, num_filters), dtype=np.int64)
    for k0 in range(0, depth, panel_k):
        k1 = min(k0 + panel_k, depth)
        if table is None:
            rows = _fill_rows(buffer[:(k1 - k0) * levels],
                              filter_bits[k0:k1], by_weight)
        else:
            rows = table.rows[k0 * levels:k1 * levels]
        _gather_rows(acc, patches, rows, k0, k1, levels=levels,
                     block_rows=block_rows, partial_dtype=partial_dtype,
                     masked=masked)
    return acc


def _check_factored(lut: LookupTable, depth: int) -> None:
    """Raise unless ``lut``'s factors compute a depth-``depth`` product
    exactly."""
    if lut.factors is None:
        raise ConfigurationError(
            f"table {lut.name!r} has no exact rank <= 3 factorisation")
    if not lut.factors.exact_for_depth(depth):
        raise ConfigurationError(
            f"a depth-{depth} factored product through {lut.name!r} is not "
            f"exact in float64")


def _factored_terms(filters: np.ndarray, lut: LookupTable) -> tuple:
    """The filter side of ``factored``: per GEMM, the factor columns ``C``
    it gathers patch rows from and its ``[K * g, F]`` right-hand side
    ``dG[s][bits(W)]``, term-major within each tap.  Rank 3 runs a pair and
    a single: 1.1-1.5x one 24-byte gather at the ResNet-20 stage shapes."""
    factors = lut.factors
    depth, num_filters = filters.shape
    filter_bits = filters.astype(np.intp)
    filter_bits &= (1 << lut.bit_width) - 1
    terms = []
    for s0, s1 in ((0, 2), (2, 3)) if factors.rank == 3 else ((0, factors.rank),):
        rhs = factors.scaled_rows[s0:s1].take(filter_bits, axis=1)  # [g, K, F]
        terms.append((np.ascontiguousarray(factors.columns[:, s0:s1]),
                      rhs.transpose(1, 0, 2).reshape(depth * (s1 - s0),
                                                     num_filters)))
    return tuple(terms)


class FactoredFilters:
    """A ``[K, F]`` filter operand with its ``factored`` right-hand sides
    gathered once.

    :func:`lut_matmul_factored` otherwise gathers ``dG[s][bits(W)]`` from
    the table's factors and copies its transpose on every call.  Passed to
    :func:`lut_matmul` in place of the filter matrix, it sends the call to
    ``factored`` with no filter-side work.  The table must have exact
    factors for the operand's depth; the filters are validated against it
    here, once, and every array is private and read-only, so the operand
    can never disagree with its filters.
    :class:`~repro.backends.cache.FilterBankCache` builds and keeps these
    for the filter banks of bound :class:`~repro.graph.ops.AxConv2D` nodes.
    """

    def __init__(self, filters, lut: LookupTable) -> None:
        filters = _integer_operand(np.asarray(filters), lut)
        if filters.ndim != 2:
            raise ShapeError("factored filters are built from a 2D matrix")
        _check_factored(lut, filters.shape[0])
        self.filters = np.array(filters)
        self.filters.setflags(write=False)
        self.lut = lut
        self.terms = _factored_terms(self.filters, lut)
        for _, rhs in self.terms:
            rhs.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``[K, F]`` of the filter operand."""
        return self.filters.shape

    @property
    def nbytes(self) -> int:
        """Bytes held by the gathered right-hand sides."""
        return sum(rhs.nbytes for _, rhs in self.terms)

    @staticmethod
    def nbytes_for(depth: int, num_filters: int, lut: LookupTable) -> int:
        """Bytes a ``[depth, num_filters]`` operand's right-hand sides through
        ``lut`` take."""
        return depth * lut.factors.rank * num_filters * 8


def lut_matmul_factored(patches: np.ndarray,
                        filters: np.ndarray | FactoredFilters,
                        lut: LookupTable) -> np.ndarray:
    """Exact float64 BLAS GEMM via rank <= 3 factors (needs K*bound < 2**53).

    Same contract as :func:`lut_matmul_rowgather`, for tables with
    :attr:`~repro.lut.LookupTable.factors` ``C @ dG == d * LUT``.  The patch
    operands gather their factor rows ``C[bits(a), :]`` into one ``[rows,
    K * r]`` float64 block, the filter operands ``dG[:, bits(w)]`` into a
    matching ``[K * r, F]`` one, and a single GEMM sums all ``r`` terms of
    all ``K`` taps; rank 3 gathers its terms as a pair and a single and
    runs two GEMMs, because ``take`` copies 24-byte items several times
    slower than 16- and 8-byte ones.  The bit patterns are widened into
    ``intp`` first (and masked, unless the operand dtype is exactly as wide
    as the table): ``take`` runs several times slower on negative or narrow
    indices.  Each entry of the float sum is ``d`` times the exact integer
    LUT sum, so ``rint`` and an exact integer division by ``d`` recover it.

    Raises :class:`~repro.errors.ConfigurationError` unless the table has
    factors and ``K * term_bound < 2**53`` -- the bound under which every
    product and partial sum of the GEMM is an exactly representable
    integer, so no result is ever taken from an unverified factorisation or
    a rounded sum.  ``filters`` may be a :class:`FactoredFilters`, whose
    right-hand sides are then used as they are.
    """
    factors = lut.factors
    depth = patches.shape[1]
    _check_factored(lut, depth)
    rank = factors.rank
    mask = (1 << lut.bit_width) - 1
    patches, masked = _bit_patterns(patches, lut)
    terms = (filters.terms if isinstance(filters, FactoredFilters)
             else _factored_terms(filters, lut))
    block_rows = max(1, FACTORED_PANEL_BYTES // max(1, 8 * depth
                                                     * min(rank, 2)))
    sums = np.empty((patches.shape[0], filters.shape[1]), dtype=np.float64)
    for r0 in range(0, patches.shape[0], block_rows):
        bits = patches[r0:r0 + block_rows].astype(np.intp)
        if masked:
            bits &= mask
        out = sums[r0:r0 + block_rows]
        for i, (columns, rhs) in enumerate(terms):
            lhs = columns.take(bits, axis=0)                  # [rows, K, g]
            lhs = lhs.reshape(len(bits), len(rhs))
            if i:
                out += lhs @ rhs
            else:
                np.matmul(lhs, rhs, out=out)
    acc = np.rint(sums, out=sums).astype(np.int64)
    if factors.denominator != 1:
        acc //= factors.denominator
    return acc


#: The LUT-GEMM kernels :func:`lut_matmul` dispatches to, by name.
KERNELS = {
    "rowgather": lut_matmul_rowgather,
    "factored": lut_matmul_factored,
}

#: The prebuilt filter operands and the kernel each was built for.
_PREBUILT = {RowTable: "rowgather", FactoredFilters: "factored"}


def choose_gemm_kernel(lut: LookupTable, depth: int) -> str:
    """``factored`` when exact factors fit the call, else ``rowgather``.

    ``factored`` when the table has exact low-rank factors and a
    depth-``depth`` product through them is exact in float64
    (``K * term_bound < 2**53``); otherwise ``rowgather``, whatever the
    call's row count.  The first call per table pays for
    :func:`~repro.lut.table.factor_table` (a few milliseconds at 8 bits).
    """
    factors = lut.factors
    if factors is not None and factors.exact_for_depth(depth):
        return "factored"
    return "rowgather"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _split_depth(kernel: str, patches_shape: tuple[int, int], num_filters: int,
                lut: LookupTable) -> int:
    """Where :func:`lut_matmul` splits a call's depth; 0 runs it whole.

    A ``rowgather`` call splits when it has at least
    :data:`SPLIT_MIN_MACS` MACs, each half at least
    :data:`SPLIT_MIN_ROW_MACS` MACs per patch row, and the process may use
    two CPUs.  ``factored`` always runs whole: its GEMM already runs on
    BLAS's threads, and a second Python thread calling BLAS at the same
    time ran 0.25-0.9x with OpenBLAS's default two threads.  The split
    point is ``K // 2`` rounded down to the ``W`` panel when a panel fits
    in a half, so the halves walk no more panels than the whole call.
    """
    num_patches, depth = patches_shape
    if (kernel == "factored"
            or num_patches * depth * num_filters < SPLIT_MIN_MACS
            or depth // 2 * num_filters < SPLIT_MIN_ROW_MACS
            or depth < 2 or _usable_cpus() < 2):
        return 0
    panel = _panel_taps(1 << lut.bit_width, num_filters, lut.flat.itemsize)
    mid = depth // 2
    return mid - mid % panel if mid >= panel else mid


def _taps(filters: np.ndarray | RowTable, k0: int, k1: int):
    """Rows ``[k0, k1)`` of a filter operand.

    A :class:`RowTable`'s part is a table over read-only slices of its
    arrays: nothing is copied or validated again.
    """
    if not isinstance(filters, RowTable):
        return filters[k0:k1]
    part = object.__new__(RowTable)
    part.filters = filters.filters[k0:k1]
    part.lut = filters.lut
    part.rows = filters.rows[k0 << filters.lut.bit_width:
                             k1 << filters.lut.bit_width]
    return part


def lut_matmul(patches: np.ndarray,
               filters: np.ndarray | RowTable | FactoredFilters,
               lut: LookupTable, *,
               kernel: str | None = None) -> np.ndarray:
    """Integer matrix product where every multiplication is a LUT lookup.

    ``patches`` has shape ``[P, K]`` (quantised patch rows), ``filters`` has
    shape ``[K, F]`` (quantised filter columns); integer operands of any
    width are used as they are.  The product is returned as an ``[P, F]``
    int64 matrix of *approximate* dot products.

    ``filters`` may instead be a prebuilt operand through ``lut``: a
    :class:`RowTable` (its ``rowgather`` table built) or a
    :class:`FactoredFilters` (its ``factored`` right-hand sides gathered).
    Such a call runs the kernel the operand was built for, with no
    filter-side work, unless ``kernel`` names another kernel, which then
    gets the operand's filter matrix.

    ``kernel`` names one of :data:`KERNELS` (``rowgather``, ``factored``);
    when omitted, :func:`choose_gemm_kernel` picks one from the table's
    factors and the call's depth.  Both kernels are bit-identical; naming
    ``factored`` for a table or depth it cannot compute exactly raises
    :class:`~repro.errors.ConfigurationError`.

    A large ``rowgather`` call, in a process that may use
    two CPUs, runs its kernel on two depth halves at once (see
    :func:`_split_depth`): the calling thread sums ``[0, mid)``, one worker
    thread ``[mid, K)``, and the two int64 sums are added -- exact integer
    addition, so the result is the whole call's bit for bit.

    This is the one validation boundary of the LUT-GEMM path: bad shapes
    raise :class:`~repro.errors.ShapeError`, operands outside the table's
    range or float operands with non-integral values
    :class:`~repro.errors.TruthTableError`, a prebuilt operand built
    through another table :class:`~repro.errors.ConfigurationError` and an
    unknown kernel name
    :class:`~repro.errors.RegistryError`, all before any work is done.
    """
    patches, filters = _validate_lut_matmul_operands(patches, filters, lut)
    built_for = _PREBUILT.get(type(filters))
    if kernel is None:
        kernel = built_for or choose_gemm_kernel(lut, patches.shape[1])
    try:
        run = KERNELS[kernel]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise RegistryError(
            f"unknown gemm kernel {kernel!r}; known kernels: {known}"
        ) from None
    if built_for is not None and kernel != built_for:
        filters = filters.filters
    depth = patches.shape[1]
    mid = _split_depth(kernel, patches.shape, filters.shape[1], lut)
    if not mid:
        return run(patches, filters, lut)
    # The kernels are called directly, never lut_matmul itself, so a split
    # call is still one lut_matmul call to anything that wraps the name.
    with ThreadPoolExecutor(max_workers=1) as pool:
        upper = pool.submit(run, patches[:, mid:], _taps(filters, mid, depth),
                            lut)
        try:
            acc = run(patches[:, :mid], _taps(filters, 0, mid), lut)
        except BaseException:
            upper.exception()       # wait for the worker and read its outcome
            raise
        acc += upper.result()
    return acc


def dequantize_gemm(acc: np.ndarray, patch_sums: np.ndarray,
                    filter_sums: np.ndarray, depth: int,
                    input_q: QuantParams, filter_q: QuantParams) -> np.ndarray:
    """Apply the Eq. 4 correction and dequantisation to integer accumulators.

    ``acc[p, f]`` is the (approximate) sum of quantised products for patch
    ``p`` and filter ``f``; ``patch_sums[p]`` is ``Sp``, ``filter_sums[f]`` is
    ``Sf`` and ``depth`` is the number of accumulated terms ``N``.  The result
    is the real-valued convolution output

    ``alpha1*alpha2 * (acc - beta2*Sp - beta1*Sf + N*beta1*beta2)``.

    ``acc - beta2*Sp`` is taken in exact int64 (in float64 when an operand
    is a float array) and converted once, into the float64 array that is
    returned; ``acc`` is left as it is.  The filter term is an integer
    well below ``2**53``, so subtracting it there is exact as well, and the
    result equals a float64 evaluation of the formula bit for bit.
    """
    acc = np.asarray(acc)
    patch_sums = np.asarray(patch_sums)
    filter_sums = np.asarray(filter_sums)
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
    out = np.empty(acc.shape)
    np.subtract(acc, beta2 * patch_sums[:, None], out=out,
                dtype=np.result_type(acc, patch_sums, np.int64))
    out -= beta1 * filter_sums - depth * beta1 * beta2
    out *= alpha1 * alpha2
    return out


def approx_gemm(patches: np.ndarray, patch_sums: np.ndarray,
                filters: np.ndarray | RowTable | FactoredFilters,
                filter_sums: np.ndarray,
                input_q: QuantParams, filter_q: QuantParams,
                lut: LookupTable) -> np.ndarray:
    """The ``ApproxGEMM`` step of Algorithm 1.

    Multiplies the quantised patch matrix with the quantised filter matrix
    through the multiplier LUT (see :func:`lut_matmul`) and returns the
    dequantised float output of shape ``[patches, filters]``.
    """
    acc = lut_matmul(patches, filters, lut)
    depth = patches.shape[1]
    return dequantize_gemm(acc, patch_sums, filter_sums, depth, input_q, filter_q)
