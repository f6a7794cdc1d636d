"""Property suite for the LUT-GEMM kernels.

Three families of invariants, mostly driven by hypothesis:

* *blocking is invisible*: integer addition is associative, so no choice of
  ``ROWGATHER_BLOCK_ROWS``, ``W`` panel bytes or ``tile_rows`` may change a
  single bit of the result, for any operands;
* *the exact LUT is a real GEMM*: with an exact-product table,
  ``approx_gemm`` must equal the float GEMM of the same quantised operands
  after dequantisation to within 1 ULP (both accumulate integers that are
  exactly representable in float64);
* *degenerate shapes are well-defined*: empty reduction (K=0), empty operand
  panels (P=0 / F=0) and single-row products return the right shapes instead
  of crashing;
* *no silent wrong answers*: operands the table cannot address, and
  non-integral float operands, raise typed errors at the ``lut_matmul``
  boundary, whichever kernel the table would take;
* *operand width is invisible*: int8 / uint8 / int16 operands (the narrow
  patch matrix ``im2col_quantized`` emits) give the int64-operand result on
  every kernel, and the int32 panel partials of ``rowgather`` (16-bit
  table storage) and its int64 ones (32-bit storage) both match the naive
  reference with table entries at the storage extremes;
* *factored products are exact or not taken*: random integer rank-1..3
  tables and every library table match the naive reference through
  ``factored``; a call whose depth breaks the float64 bound, a
  factorisation that fails verification and a table of rank above 3 all
  leave ``lut_matmul`` on ``rowgather``;
* *a prebuilt row table is the operand it was built from*: ``lut_matmul``
  on a :class:`~repro.conv.gemm.RowTable` matches the naive reference on
  random tables, widths and short-call geometry, and refuses a table built
  through another LUT;
* *the operand and the table pick the kernel*: a ``RowTable`` runs
  ``rowgather`` (through a factored table too), a ``FactoredFilters`` runs
  ``factored``, and a plain matrix through a non-factored table takes
  ``rowgather`` at any row count;
* *a depth split is invisible*: a ``rowgather`` call split between the
  calling thread and a worker matches the naive reference on plain filters,
  a ``RowTable`` operand and odd depths, and ``factored`` never splits; the
  split rule takes the calls it names and no others, an error in either
  half reaches the caller, and four threads calling split products at once
  under a short switch interval all get their own results.

The reference, :func:`lut_gemm_reference.lut_matmul_naive`, is the seed's
one-gather-per-product kernel, kept beside the tests.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv import gemm as gemm_mod
from repro.conv.gemm import (
    FactoredFilters,
    RowTable,
    _panel_sum_dtype,
    approx_gemm,
    choose_gemm_kernel,
    dequantize_gemm,
    gemm_float,
    lut_matmul,
    lut_matmul_factored,
    lut_matmul_rowgather,
)
from repro.errors import ConfigurationError, ShapeError, TruthTableError
from repro.lut import LookupTable
from repro.lut import table as table_mod
from repro.lut.table import FLOAT64_EXACT_LIMIT, factor_table
from repro.multipliers import library
from repro.quantization import compute_coeffs_from_tensor

from lut_gemm_reference import kernels_for, lut_matmul_naive


@pytest.fixture(scope="module")
def mitchell_lut():
    return LookupTable.from_multiplier(library.create("mul8s_mitchell"))


@pytest.fixture(scope="module")
def exact_lut():
    return LookupTable.from_multiplier(library.create("mul8s_exact"))


@pytest.fixture(scope="module")
def unsigned_lut():
    return LookupTable.from_multiplier(library.create("mul8u_drum4"))


def _int_case(seed, p, k, f):
    rng = np.random.default_rng(seed)
    return (rng.integers(-128, 128, size=(p, k)),
            rng.integers(-128, 128, size=(k, f)))


class TestBlockingInvariance:
    """No tiling parameter may change a single output bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.integers(1, 40),
        k=st.integers(1, 40),
        f=st.integers(1, 12),
        block_rows=st.integers(1, 48),
        panel_bytes=st.integers(1, 1 << 16),
    )
    def test_block_size_never_changes_results(self, mitchell_lut, seed, p, k,
                                              f, block_rows, panel_bytes):
        patches, filters = _int_case(seed, p, k, f)
        reference = lut_matmul_naive(patches, filters, mitchell_lut)
        # rowgather's K-panel depth follows its W panel byte budget.
        with mock.patch.object(gemm_mod, "ROWGATHER_PANEL_BYTES", panel_bytes), \
                mock.patch.object(gemm_mod, "ROWGATHER_BLOCK_ROWS", block_rows):
            rowgather = lut_matmul_rowgather(patches, filters, mitchell_lut)
        np.testing.assert_array_equal(rowgather, reference)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        tile_rows=st.integers(1, 64),
    )
    def test_naive_tile_rows_never_changes_results(self, mitchell_lut, seed,
                                                   tile_rows):
        patches, filters = _int_case(seed, 23, 17, 5)
        full = lut_matmul_naive(patches, filters, mitchell_lut, tile_rows=4096)
        tiled = lut_matmul_naive(patches, filters, mitchell_lut,
                                 tile_rows=tile_rows)
        np.testing.assert_array_equal(tiled, full)


class TestExactLutIsAGemm:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.integers(1, 24),
        k=st.integers(1, 48),
        f=st.integers(1, 8),
    )
    def test_approx_gemm_matches_gemm_float_within_one_ulp(self, exact_lut,
                                                           seed, p, k, f):
        """With an exact LUT the emulated GEMM *is* a GEMM.

        The integer accumulators and every partial float sum stay far below
        2**53, so the float GEMM of the quantised operands is exact and the
        two paths feed identical values into the dequantisation -- the
        results may differ by rounding of the correction arithmetic only,
        i.e. at most 1 ULP.
        """
        rng = np.random.default_rng(seed)
        patches, filters = _int_case(seed, p, k, f)
        input_q = compute_coeffs_from_tensor(rng.normal(size=8))
        filter_q = compute_coeffs_from_tensor(rng.normal(size=8))
        patch_sums = patches.sum(axis=1)
        filter_sums = filters.sum(axis=0)

        approx = approx_gemm(patches, patch_sums, filters, filter_sums,
                             input_q, filter_q, exact_lut)
        reference = dequantize_gemm(
            gemm_float(patches, filters), patch_sums, filter_sums, k,
            input_q, filter_q)
        np.testing.assert_array_max_ulp(approx, reference, maxulp=1)


#: The prebuilt filter operand that sends a ``lut_matmul`` call to each
#: kernel, whatever the table.
PREBUILT = {"factored": FactoredFilters, "rowgather": RowTable}


class TestDegenerateShapes:
    @pytest.mark.parametrize("kernel", ["naive", *sorted(PREBUILT)])
    @pytest.mark.parametrize("p,k,f", [
        (5, 0, 3),    # empty reduction: a well-defined all-zero product
        (0, 7, 3),    # no patches
        (5, 7, 0),    # no filters
        (1, 1, 1),    # single-element product
        (1, 300, 1),  # single row, deep reduction
    ])
    def test_degenerate_shapes_return_correct_zeros(self, exact_lut, kernel,
                                                    p, k, f):
        rng = np.random.default_rng(k)
        patches = rng.integers(-128, 128, size=(p, k))
        filters = rng.integers(-128, 128, size=(k, f))
        if kernel == "naive":       # the reference itself
            out = lut_matmul_naive(patches, filters, exact_lut)
        else:
            out = lut_matmul(patches, PREBUILT[kernel](filters, exact_lut),
                             exact_lut)
        assert out.shape == (p, f)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, patches @ filters)

    def test_empty_reduction_through_approx_gemm(self, exact_lut):
        """K=0 flows through dequantisation without dividing by the depth."""
        rng = np.random.default_rng(0)
        input_q = compute_coeffs_from_tensor(rng.normal(size=4))
        filter_q = compute_coeffs_from_tensor(rng.normal(size=4))
        patches = np.zeros((3, 0), dtype=np.int64)
        filters = np.zeros((0, 2), dtype=np.int64)
        out = approx_gemm(patches, np.zeros(3), filters, np.zeros(2),
                          input_q, filter_q, exact_lut)
        assert out.shape == (3, 2)
        assert np.all(np.isfinite(out))


class TestDequantize:
    @pytest.mark.parametrize("sums_dtype", [np.int64, np.float64])
    def test_matches_float_eq4_and_keeps_acc(self, sums_dtype):
        """The int64 correction equals the float64 evaluation of Eq. 4 bit
        for bit, and the caller's accumulators are not written."""
        rng = np.random.default_rng(1)
        acc = rng.integers(-(1 << 20), 1 << 20, size=(37, 6))
        patch_sums = rng.integers(-5000, 5000, size=37).astype(sums_dtype)
        filter_sums = rng.integers(-5000, 5000, size=6).astype(sums_dtype)
        input_q = compute_coeffs_from_tensor(rng.normal(size=8))
        filter_q = compute_coeffs_from_tensor(rng.normal(size=8) + 0.7)
        before = acc.copy()
        out = dequantize_gemm(acc, patch_sums, filter_sums, 75, input_q,
                              filter_q)
        b1, b2 = input_q.zero_point, filter_q.zero_point
        expected = input_q.scale * filter_q.scale * (
            acc.astype(np.float64) - b2 * patch_sums[:, None].astype(float)
            - b1 * filter_sums[None, :].astype(float) + 75 * b1 * b2)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(acc, before)


class TestFlatIndexDtype:
    """A 12-bit table's row offsets and panels (the wide-index regression)."""

    def test_12bit_lut_rowgather_kernel_regression(self):
        """At 12 bits one ``W`` tap is 4096 rows of 4-byte entries, so the
        byte budget shrinks the K panel; every panel depth, down to a single
        tap, must still match the naive path bit for bit."""
        n = 1 << 12
        ops = np.arange(n, dtype=np.int64)
        table = np.multiply.outer(ops, ops).astype(np.int32)
        lut = LookupTable(table, bit_width=12, signed=False, name="mul12u_exact")
        assert lut.flat.dtype == np.int32          # wide products: 32-bit storage

        rng = np.random.default_rng(12)
        patches = rng.integers(0, n, size=(9, 7))
        # Include the extreme operands, whose row offsets are the last of
        # each tap.
        patches[0, :] = n - 1
        filters = rng.integers(0, n, size=(7, 4))
        filters[:, 0] = n - 1

        naive = lut_matmul_naive(patches, filters, lut)
        for panel_bytes in (1, 3 * n * 4 * 4, 1 << 20):
            with mock.patch.object(gemm_mod, "ROWGATHER_PANEL_BYTES",
                                   panel_bytes), \
                    mock.patch.object(gemm_mod, "ROWGATHER_BLOCK_ROWS", 4):
                out = lut_matmul_rowgather(patches, filters, lut)
            np.testing.assert_array_equal(out, naive)
        np.testing.assert_array_equal(naive, patches @ filters)


class TestOperandWidth:
    """Narrow integer operands are consumed as they are, on every kernel."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.integers(1, 40),
        k=st.integers(1, 40),
        f=st.integers(1, 8),
        dtype=st.sampled_from([np.int8, np.uint8, np.int16]),
    )
    def test_narrow_operands_match_int64(self, mitchell_lut, unsigned_lut,
                                         seed, p, k, f, dtype):
        lut = unsigned_lut if dtype is np.uint8 else mitchell_lut
        rng = np.random.default_rng(seed)
        patches = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(p, k))
        filters = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(k, f))
        reference = lut_matmul_naive(patches, filters, lut)
        for kernel in (lut_matmul, *kernels_for(lut, k)):
            out = kernel(patches.astype(dtype), filters.astype(dtype), lut)
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, reference)


    def test_narrow_dtype_inside_the_range_is_not_scanned(self,
                                                          mitchell_lut,
                                                          unsigned_lut):
        """int8 operands of a signed 8-bit table cannot leave its range, so
        the min/max scan is skipped; uint8 on that table, or int16, is
        still scanned (and an int16 300 still raises)."""
        calls = []
        with mock.patch.object(LookupTable, "check_operands",
                               lambda self, values: calls.append(
                                   values.dtype)):
            lut_matmul(np.ones((3, 2), np.int8), np.ones((2, 2), np.int8),
                       mitchell_lut)
            lut_matmul(np.ones((3, 2), np.uint8), np.ones((2, 2), np.int64),
                       unsigned_lut)
            assert calls == [np.int64]
            lut_matmul(np.ones((3, 2), np.uint8), np.ones((2, 2), np.int16),
                       mitchell_lut)
            assert calls == [np.int64, np.uint8, np.int16]
        with pytest.raises(TruthTableError, match="300"):
            lut_matmul(np.full((3, 2), 300, np.int16),
                       np.ones((2, 2), np.int8), mitchell_lut)


class TestPanelSums:
    """Both accumulation paths of the per-panel partial sums."""

    #: F = 1 makes an 8-bit ``W`` tap 512 bytes, so a K panel is 2048 taps.
    PANEL_K_8BIT = gemm_mod.ROWGATHER_PANEL_BYTES // (256 * 2)

    def test_partial_dtype_bound(self):
        # |partial| <= panel_k * max|entry| must stay below 2**31.
        assert _panel_sum_dtype(np.int16, 65535) is np.int32
        assert _panel_sum_dtype(np.int16, 65536) is np.int64
        assert _panel_sum_dtype(np.uint16, 32768) is np.int32
        assert _panel_sum_dtype(np.uint16, 32769) is np.int64
        assert _panel_sum_dtype(np.int32, 1) is np.int64

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        p=st.integers(1, 4),
        extra_k=st.integers(1, 2100),
    )
    def test_int16_extremes_take_the_int32_path(self, seed, p, extra_k):
        rng = np.random.default_rng(seed)
        table = rng.choice([-32768, -32767, 32767], size=(256, 256))
        lut = LookupTable(table, bit_width=8, signed=True, name="extremes")
        assert _panel_sum_dtype(lut.flat.dtype, self.PANEL_K_8BIT) is np.int32
        k = self.PANEL_K_8BIT + extra_k                 # two or three panels
        patches = rng.integers(-128, 128, size=(p, k), dtype=np.int8)
        filters = rng.integers(-128, 128, size=(k, 1))
        reference = lut_matmul_naive(patches, filters, lut)
        np.testing.assert_array_equal(
            lut_matmul_rowgather(patches, filters, lut), reference)

    def test_int32_panels_add_into_int64(self):
        """Each panel fits int32, their total does not."""
        lut = LookupTable(np.full((256, 256), -32768), bit_width=8,
                          signed=True, name="min16")
        k = (1 << 16) + 5
        patches = np.ones((2, k), dtype=np.int8)
        filters = np.ones((k, 1), dtype=np.int64)
        out = lut_matmul_rowgather(patches, filters, lut)
        assert out.tolist() == [[-32768 * k]] * 2

    def test_12bit_table_takes_the_int64_path(self):
        """32-bit storage sums in int64: with a deep enough panel, 4096
        entries of ``2**24 - 1`` overflow an int32 partial."""
        n = 1 << 12
        lut = LookupTable(np.full((n, n), (1 << 24) - 1, dtype=np.int32),
                          bit_width=12, signed=False, name="max12u")
        assert lut.flat.dtype == np.int32
        rng = np.random.default_rng(3)
        k = 300
        patches = rng.integers(0, n, size=(3, k), dtype=np.int16)
        filters = rng.integers(0, n, size=(k, 2))
        with mock.patch.object(gemm_mod, "ROWGATHER_PANEL_BYTES", 1 << 25):
            panel_k = gemm_mod.ROWGATHER_PANEL_BYTES // (n * 2 * 4)
            assert panel_k >= k
            assert _panel_sum_dtype(lut.flat.dtype, panel_k) is np.int64
            out = lut_matmul_rowgather(patches, filters, lut)
        assert out.tolist() == [[k * ((1 << 24) - 1)] * 2] * 3
        np.testing.assert_array_equal(
            out, lut_matmul_naive(patches, filters, lut))


class TestDefaultDispatch:
    """On a plain filter matrix, a table with no exact factors takes
    ``rowgather`` at any row count, on either side of the ``2 * 2**n`` rows
    where a filter bank starts to earn a cached row table."""

    @pytest.mark.parametrize("rows,expected", [(1, "rowgather"),
                                               (511, "rowgather"),
                                               (512, "rowgather")])
    def test_size_rule_boundary(self, mitchell_lut, monkeypatch, rows,
                                expected):
        calls = _spy_kernels(monkeypatch)
        patches, filters = _int_case(rows, rows, 20, 6)
        out = lut_matmul(patches, filters, mitchell_lut)
        assert calls == [expected]
        reference = lut_matmul_naive(patches, filters, mitchell_lut)
        np.testing.assert_array_equal(out, reference)


#: A signed and an unsigned table that ``lut_matmul`` sends to each kernel:
#: exact rank-1 factors, or none.
KERNEL_TABLES = {"factored": ("mul8s_exact", "mul8u_drum4"),
                 "rowgather": ("mul8s_mitchell", "mul8u_mitchell")}


class TestOperandValidation:
    """No kernel may mask an operand it cannot address."""

    @pytest.mark.parametrize("kernel", sorted(KERNEL_TABLES))
    def test_out_of_range_operands_raise(self, library_luts, monkeypatch,
                                         kernel):
        signed, unsigned = (library_luts[name]
                            for name in KERNEL_TABLES[kernel])
        # Masked to 8 bits, 300 aliases 44: 44*2 + 1*3 = 91, not 603.
        with pytest.raises(TruthTableError, match="300"):
            lut_matmul([[300, 1]], [[2], [3]], signed)
        with pytest.raises(TruthTableError, match="-129"):
            lut_matmul([[2, 1]], [[-129], [3]], signed)
        with pytest.raises(TruthTableError):
            lut_matmul([[-1, 1]], [[2], [3]], unsigned)
        # In range, both tables reach the kernel.
        calls = _spy_kernels(monkeypatch)
        lut_matmul([[1, 1]], [[2], [3]], signed)
        lut_matmul([[1, 1]], [[2], [3]], unsigned)
        assert calls == [kernel, kernel]

    @pytest.mark.parametrize("kernel", sorted(KERNEL_TABLES))
    def test_non_integral_operands_raise(self, library_luts, monkeypatch,
                                         kernel):
        lut = library_luts[KERNEL_TABLES[kernel][0]]
        # Truncated to int64 these would silently give 1*2 + 2*3 = 8.
        with pytest.raises(TruthTableError, match="non-integral"):
            lut_matmul([[1.7, 2.9]], [[2], [3]], lut)
        with pytest.raises(TruthTableError, match="non-integral"):
            lut_matmul([[1, 2]], np.array([[2.0], [np.nan]]), lut)
        with pytest.raises(TruthTableError, match="non-integral"):
            lut_matmul([[1, 2]], np.array([[2.0], [np.inf]]), lut)
        # Integral floats are still valid operands.
        calls = _spy_kernels(monkeypatch)
        out = lut_matmul(np.array([[1.0, -2.0]]), [[2], [3]], lut)
        assert calls == [kernel]
        assert out.tolist() == [[-4]]


def _rank_r_table(seed, rank, bit_width, signed):
    """A random ``2**n x 2**n`` integer table ``C @ G`` of rank at most
    ``rank`` whose entries fit the ``2n``-bit product range."""
    rng = np.random.default_rng(seed)
    side = 1 << bit_width
    bound = 1 << (2 * bit_width - (1 if signed else 0))
    scale = int((bound // (rank + 1)) ** 0.5)
    lo = -scale if signed else 0
    columns = rng.integers(lo, scale + 1, size=(side, rank))
    rows = rng.integers(lo, scale + 1, size=(rank, side))
    return columns @ rows


def _spy_kernels(monkeypatch):
    """Record which kernels ``lut_matmul`` runs, by name."""
    calls = []
    for name in ("factored", "rowgather"):
        kernel = getattr(gemm_mod, f"lut_matmul_{name}")

        def spy(*args, _name=name, _kernel=kernel):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(gemm_mod, f"lut_matmul_{name}", spy)
    return calls


@pytest.fixture(scope="module")
def library_luts():
    return {name: LookupTable.from_multiplier(library.create(name))
            for name in library.available()}


class TestFactored:
    """The factored kernel is bit-exact whenever ``lut_matmul`` takes it."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rank=st.integers(1, 3),
        bit_width=st.integers(4, 8),
        signed=st.booleans(),
        p=st.one_of(st.just(1), st.integers(1, 40)),
        k=st.one_of(st.just(1), st.integers(1, 60)),
        f=st.one_of(st.just(1), st.integers(1, 9)),
    )
    def test_random_low_rank_tables_match_reference(
            self, seed, rank, bit_width, signed, p, k, f):
        table = _rank_r_table(seed, rank, bit_width, signed)
        lut = LookupTable(table, bit_width=bit_width, signed=signed)
        factors = lut.factors
        assert factors is not None and factors.rank <= rank
        np.testing.assert_array_equal(
            factors.columns @ factors.scaled_rows,
            factors.denominator * table)
        assert choose_gemm_kernel(lut, k) == "factored"

        rng = np.random.default_rng(seed + 1)
        patches = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(p, k))
        filters = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(k, f))
        reference = lut_matmul_naive(patches, filters, lut)
        out = lut_matmul(patches, filters, lut)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(library.available()),
        seed=st.integers(0, 2**31 - 1),
        p=st.integers(1, 30),
        k=st.integers(1, 50),
        f=st.integers(1, 8),
    )
    def test_library_tables_match_reference(self, library_luts, name, seed,
                                            p, k, f):
        lut = library_luts[name]
        rng = np.random.default_rng(seed)
        patches = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(p, k))
        filters = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(k, f))
        expected = "factored" if lut.factors is not None else "rowgather"
        assert choose_gemm_kernel(lut, k) == expected
        np.testing.assert_array_equal(lut_matmul(patches, filters, lut),
                                      lut_matmul_naive(patches, filters, lut))

    def test_library_ranks(self, library_luts):
        """The rank <= 3 tables the factored kernel serves (14 of 31)."""
        ranks = {name: lut.factors.rank for name, lut in library_luts.items()
                 if lut.factors is not None}
        assert ranks == {
            "mul8s_drum4": 1, "mul8s_exact": 1, "mul8s_trunc2": 1,
            "mul8u_drum3": 1, "mul8u_drum4": 1, "mul8u_drum6": 1,
            "mul8u_exact": 1, "mul8u_trunc1": 1, "mul8u_trunc2": 1,
            "mul8u_trunc3": 1, "mul8s_udm": 2, "mul8u_udm": 2,
            "mul8u_mitchell_it1": 2, "mul8u_bam_h2v4": 3,
        }
        for lut in library_luts.values():
            if lut.factors is None:
                assert np.linalg.matrix_rank(lut.dense().astype(float)) > 3

    def test_depth_beyond_the_float64_bound_falls_back(self, monkeypatch):
        """A depth whose partial sums could reach 2**53 takes ``rowgather``,
        and ``factored`` called on it raises."""
        table = _rank_r_table(0, 3, 8, False)
        lut = LookupTable(table, bit_width=8, signed=False)
        factors = lut.factors
        assert factors is not None
        depth = -(-FLOAT64_EXACT_LIMIT // factors.term_bound)  # first unsafe K
        assert factors.exact_for_depth(depth - 1)
        assert not factors.exact_for_depth(depth)
        assert choose_gemm_kernel(lut, depth - 1) == "factored"
        assert choose_gemm_kernel(lut, depth) == "rowgather"

        rng = np.random.default_rng(1)
        patches = rng.integers(0, 256, size=(2, depth))
        filters = rng.integers(0, 256, size=(depth, 2))
        calls = _spy_kernels(monkeypatch)
        out = lut_matmul(patches, filters, lut)
        assert calls == ["rowgather"]
        np.testing.assert_array_equal(
            out, lut_matmul_naive(patches, filters, lut))
        with pytest.raises(ConfigurationError, match="not exact"):
            lut_matmul_factored(patches, filters, lut)

    def test_unverified_factors_are_never_used(self, monkeypatch):
        monkeypatch.setattr(table_mod, "verify_factors",
                            lambda *args: False)
        lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
        assert factor_table(lut.dense()) is None
        assert lut.factors is None
        assert choose_gemm_kernel(lut, 288) == "rowgather"

        patches, filters = _int_case(3, 16, 20, 4)
        calls = _spy_kernels(monkeypatch)
        np.testing.assert_array_equal(lut_matmul(patches, filters, lut),
                                      patches @ filters)
        assert calls == ["rowgather"]
        with pytest.raises(ConfigurationError, match="no exact rank"):
            lut_matmul_factored(patches, filters, lut)

    @pytest.mark.parametrize("case", ["mitchell", "rank4", "random"])
    def test_rank_above_three_has_no_factors(self, mitchell_lut, case):
        if case == "mitchell":
            lut = mitchell_lut
        else:
            table = (_rank_r_table(4, 4, 8, True) if case == "rank4" else
                     np.random.default_rng(4).integers(-9, 10, size=(256, 256)))
            lut = LookupTable(table, bit_width=8, signed=True)
        assert lut.factors is None
        assert choose_gemm_kernel(lut, 288) == "rowgather"
        if case == "rank4":     # exact, but above the cutoff
            assert factor_table(lut.dense(), max_rank=4).rank == 4

    def test_factoring_peaks_below_two_and_a_half_tables(self):
        """The pivot search holds the float64 residual and one scratch
        array; both are gone before the int64 verification runs."""
        ops = np.arange(1 << 10, dtype=np.int64)
        table = np.multiply.outer(ops, ops)
        tracemalloc.start()
        try:
            factors = factor_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factors is not None and factors.rank == 1
        assert peak <= 2.5 * table.nbytes

    def test_factors_are_cached_per_table(self, monkeypatch):
        lut = LookupTable.from_multiplier(library.create("mul8s_trunc2"))
        calls = []
        monkeypatch.setattr(table_mod, "factor_table",
                            lambda table: calls.append(1) or None)
        for _ in range(3):
            assert lut.factors is None
        assert calls == [1]


def _random_table(seed, bit_width, signed):
    """A random full-rank table spanning the whole ``2n``-bit product range."""
    rng = np.random.default_rng(seed)
    bound = 1 << (2 * bit_width - (1 if signed else 0))
    lo, hi = (-bound, bound) if signed else (0, bound - 1)
    side = 1 << bit_width
    return rng.integers(lo, hi + 1, size=(side, side))


class TestRowTable:
    """``lut_matmul`` on a prebuilt row table is the same product."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        bit_width=st.integers(4, 8),
        signed=st.booleans(),
        p=st.one_of(st.just(1), st.integers(1, 30)),
        k=st.one_of(st.just(1), st.integers(1, 40)),
        f=st.one_of(st.just(1), st.integers(1, 9)),
        panel_bytes=st.sampled_from([1, 1 << 12, 1 << 20]),
    )
    def test_matches_reference_below_size_rule(
            self, seed, bit_width, signed, p, k, f, panel_bytes):
        lut = LookupTable(_random_table(seed, bit_width, signed),
                          bit_width=bit_width, signed=signed)
        assert choose_gemm_kernel(lut, k) == "rowgather"
        assert p < gemm_mod.ROW_TABLE_ROWS_PER_LEVEL << bit_width
        rng = np.random.default_rng(seed + 1)
        patches = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(p, k))
        filters = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(k, f))
        # The build and the gather both walk panels of this byte budget.
        with mock.patch.object(gemm_mod, "ROWGATHER_PANEL_BYTES", panel_bytes):
            table = RowTable(filters, lut)
            out = lut_matmul(patches, table, lut)
        reference = lut_matmul_naive(patches, filters, lut)
        np.testing.assert_array_equal(out, reference)

    def test_layout_and_immutability(self, mitchell_lut):
        patches, filters = _int_case(3, 5, 7, 4)
        table = RowTable(filters, mitchell_lut)
        dense = mitchell_lut.dense()
        for k, v in [(0, 0), (3, 255), (6, 128)]:
            np.testing.assert_array_equal(
                table.rows[k * 256 + v], dense[v, filters[k] & 255])
        assert table.shape == (7, 4) and table.nbytes == 7 * 256 * 4 * 2
        assert table.nbytes == RowTable.nbytes_for(7, 4, mitchell_lut)
        for array in (table.rows, table.filters):
            with pytest.raises(ValueError):
                array[0, 0] = 1
        # The table keeps its own copy of the operand.
        filters[0, 0] += 1
        np.testing.assert_array_equal(
            lut_matmul(patches, table, mitchell_lut),
            lut_matmul_naive(patches, table.filters, mitchell_lut))

    def test_dispatch(self, mitchell_lut, exact_lut, monkeypatch):
        calls = _spy_kernels(monkeypatch)
        patches, filters = _int_case(4, 3, 6, 2)
        # A row table runs rowgather, through a factored table too.
        assert choose_gemm_kernel(exact_lut, 6) == "factored"
        for lut in (mitchell_lut, exact_lut):
            out = lut_matmul(patches, RowTable(filters, lut), lut)
            np.testing.assert_array_equal(
                out, lut_matmul_naive(patches, filters, lut))
        assert calls == ["rowgather", "rowgather"]

    def test_validation(self, mitchell_lut, exact_lut):
        table = RowTable([[1, 2], [3, 4]], mitchell_lut)
        with pytest.raises(ConfigurationError, match="mul8s_mitchell"):
            lut_matmul([[1, 1]], table, exact_lut)
        with pytest.raises(ShapeError):
            lut_matmul([[1, 1, 1]], table, mitchell_lut)
        with pytest.raises(TruthTableError):
            lut_matmul([[1, 300]], table, mitchell_lut)
        with pytest.raises(TruthTableError):
            RowTable([[1, 300]], mitchell_lut)
        with pytest.raises(TruthTableError, match="non-integral"):
            RowTable([[1.5]], mitchell_lut)
        with pytest.raises(ShapeError):
            RowTable([1, 2], mitchell_lut)


class TestFactoredFilters:
    """``lut_matmul`` on prebuilt factored filters is the same product."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rank=st.integers(1, 3),
        bit_width=st.integers(4, 8),
        signed=st.booleans(),
        p=st.one_of(st.just(1), st.integers(1, 30)),
        k=st.one_of(st.just(1), st.integers(1, 60)),
        f=st.one_of(st.just(1), st.integers(1, 9)),
    )
    def test_matches_reference(self, seed, rank, bit_width, signed, p, k, f):
        lut = LookupTable(_rank_r_table(seed, rank, bit_width, signed),
                          bit_width=bit_width, signed=signed)
        rng = np.random.default_rng(seed + 1)
        patches = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(p, k))
        filters = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(k, f))
        out = lut_matmul(patches, FactoredFilters(filters, lut), lut)
        np.testing.assert_array_equal(
            out, lut_matmul_naive(patches, filters, lut))

    @pytest.mark.parametrize("name", ["mul8s_exact", "mul8s_trunc2",
                                      "mul8u_drum4"])
    def test_library_tables(self, library_luts, name):
        lut = library_luts[name]
        rng = np.random.default_rng(3)
        patches = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(16, 288)).astype(
                                   np.int8 if lut.signed else np.uint8)
        filters = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(288, 64))
        np.testing.assert_array_equal(
            lut_matmul(patches, FactoredFilters(filters, lut), lut),
            lut_matmul_naive(patches, filters, lut))

    def test_immutability(self, exact_lut):
        patches, filters = _int_case(5, 4, 6, 3)
        operand = FactoredFilters(filters, exact_lut)
        assert operand.shape == (6, 3)
        for array in [operand.filters] + [rhs for _, rhs in operand.terms]:
            with pytest.raises(ValueError):
                array[0, 0] = 1
        # The operand keeps its own copy of the filters.
        filters[0, 0] += 1
        np.testing.assert_array_equal(
            lut_matmul(patches, operand, exact_lut),
            lut_matmul_naive(patches, operand.filters, exact_lut))

    def test_dispatch(self, exact_lut, monkeypatch):
        calls = _spy_kernels(monkeypatch)
        patches, filters = _int_case(4, 3, 6, 2)
        out = lut_matmul(patches, FactoredFilters(filters, exact_lut),
                         exact_lut)
        np.testing.assert_array_equal(
            out, lut_matmul_naive(patches, filters, exact_lut))
        assert calls == ["factored"]

    def test_validation(self, mitchell_lut, exact_lut, library_luts):
        operand = FactoredFilters([[1, 2], [3, 4]], exact_lut)
        with pytest.raises(ConfigurationError, match="mul8s_exact"):
            lut_matmul([[1, 1]], operand,
                       library_luts["mul8s_trunc2"])
        with pytest.raises(ShapeError):
            lut_matmul([[1, 1, 1]], operand, exact_lut)
        with pytest.raises(TruthTableError):
            lut_matmul([[1, 300]], operand, exact_lut)
        with pytest.raises(ConfigurationError, match="factorisation"):
            FactoredFilters([[1, 2]], mitchell_lut)
        with pytest.raises(TruthTableError):
            FactoredFilters([[1, 300]], exact_lut)
        with pytest.raises(ShapeError):
            FactoredFilters([1, 2], exact_lut)


@contextlib.contextmanager
def _forced_split():
    """Split every ``rowgather`` call of depth >= 2, whatever the host's
    CPU count."""
    with mock.patch.object(gemm_mod, "SPLIT_MIN_MACS", 0), \
            mock.patch.object(gemm_mod, "SPLIT_MIN_ROW_MACS", 0), \
            mock.patch.object(gemm_mod, "_usable_cpus", lambda: 2):
        yield


@contextlib.contextmanager
def _recording_panels():
    """Record ``rowgather``'s K panels: ``(thread id, k0, k1)`` per gathered
    panel, and ``(thread id, k1 - k0)`` per panel of ``W`` it builds."""
    gathered, built = [], []
    gather_rows, fill_rows = gemm_mod._gather_rows, gemm_mod._fill_rows

    def gather(acc, patches, rows, k0, k1, **kwargs):
        gathered.append((threading.get_ident(), k0, k1))
        return gather_rows(acc, patches, rows, k0, k1, **kwargs)

    def fill(out, filter_bits, by_weight):
        built.append((threading.get_ident(), len(filter_bits)))
        return fill_rows(out, filter_bits, by_weight)

    with mock.patch.object(gemm_mod, "_gather_rows", gather), \
            mock.patch.object(gemm_mod, "_fill_rows", fill):
        yield gathered, built


class TestDepthSplit:
    """A call split between two threads is the whole call, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        name=st.sampled_from(["mul8s_mitchell", "mul8s_exact", "mul8u_drum4",
                              "mul8s_trunc2"]),
        p=st.integers(1, 30),
        k=st.one_of(st.just(2), st.just(3), st.integers(2, 41)),
        f=st.integers(1, 9),
        as_table=st.booleans(),
        panel_bytes=st.sampled_from([1, 1 << 12, 1 << 20]),
        data=st.data(),
    )
    def test_split_matches_reference(self, library_luts, seed, name, p, k, f,
                                     as_table, panel_bytes, data):
        lut = library_luts[name]
        kernel = data.draw(st.sampled_from(kernels_for(lut, k)))
        rng = np.random.default_rng(seed)
        patches = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(p, k)).astype(np.int8 if lut.signed
                                                   else np.uint8)
        filters = rng.integers(lut.operand_min, lut.operand_max + 1,
                               size=(k, f))
        rowgather = kernel is lut_matmul_rowgather
        with _forced_split(), \
                mock.patch.object(gemm_mod, "ROWGATHER_PANEL_BYTES",
                                  panel_bytes):
            # A prebuilt operand pins its kernel through lut_matmul.
            operand = ((RowTable if rowgather else FactoredFilters)(
                filters, lut) if as_table else filters)
            with _recording_panels() as (gathered, built):
                out = (lut_matmul(patches, operand, lut) if as_table
                       else kernel(patches, operand, lut))
        np.testing.assert_array_equal(out, lut_matmul_naive(patches, filters,
                                                            lut))
        if not rowgather:               # a BLAS kernel runs whole
            assert gathered == built == []
            return
        # Two halves, one on a worker thread, each walking its own panels
        # of one contiguous range of taps; the two ranges cover the depth.
        # A row table is sliced, never built again.
        halves = {}
        for ident, k0, k1 in gathered:
            halves.setdefault(ident, []).append((k0, k1))
        assert len(halves) == 2 and threading.get_ident() in halves
        lower = halves.pop(threading.get_ident())
        (upper,) = halves.values()
        for panels in (lower, upper):
            assert all(a[1] == b[0] for a, b in zip(panels, panels[1:]))
        assert lower[0][0] == 0 and lower[-1][1] == upper[0][0]
        assert upper[-1][1] == k
        # The two threads append in either order.
        assert sorted(built) == ([] if as_table else sorted(
            (ident, k1 - k0) for ident, k0, k1 in gathered))

    def test_split_rule(self, mitchell_lut, monkeypatch):
        split = gemm_mod._split_depth
        monkeypatch.setattr(gemm_mod, "_usable_cpus", lambda: 2)
        # Batch-32 ResNet-20: every stage call splits at a W-panel boundary
        # (128 / 64 / 32 taps for F = 16 / 32 / 64); the stem's 27x16 rows
        # are too narrow.  Serve's largest single-sample call never splits.
        assert split((32768, 144), 16, mitchell_lut) == 72
        assert split((8192, 288), 32, mitchell_lut) == 128
        assert split((2048, 576), 64, mitchell_lut) == 288
        assert split((2048, 577), 64, mitchell_lut) == 288
        assert split((8192, 289), 32, mitchell_lut) == 128
        assert split((8192, 200), 64, mitchell_lut) == 96
        assert split((32768, 27), 16, mitchell_lut) == 0
        assert split((16, 288), 64, mitchell_lut) == 0
        # The MAC threshold is inclusive.
        depth, filters = 64, 32
        rows = gemm_mod.SPLIT_MIN_MACS // (depth * filters)
        assert split((rows, depth), filters, mitchell_lut) == 32
        assert split((rows - 1, depth), filters,
                     mitchell_lut) == 0
        # So is the per-row one: (K // 2) * F >= SPLIT_MIN_ROW_MACS.
        depth = 2 * gemm_mod.SPLIT_MIN_ROW_MACS // 16
        assert split((32768, depth), 16, mitchell_lut) == \
            depth // 2
        assert split((32768, depth - 1), 16, mitchell_lut) == 0
        monkeypatch.setattr(gemm_mod, "_usable_cpus", lambda: 1)
        assert split((2048, 576), 64, mitchell_lut) == 0

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(gemm_mod.os, "sched_getaffinity",
                            lambda pid: {0, 3, 5}, raising=False)
        assert gemm_mod._usable_cpus() == 3
        monkeypatch.delattr(gemm_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(gemm_mod.os, "cpu_count", lambda: None)
        assert gemm_mod._usable_cpus() == 1

    @pytest.mark.parametrize("failing_half", ["caller", "worker"])
    def test_errors_in_either_half_reach_the_caller(self, mitchell_lut,
                                                    failing_half):
        patches, filters = _int_case(5, 6, 9, 3)
        caller = threading.get_ident()
        finished = []

        gather_rows = gemm_mod._gather_rows

        def gather(acc, patches, rows, k0, k1, **kwargs):
            on_caller = threading.get_ident() == caller
            if on_caller == (failing_half == "caller"):
                raise RuntimeError(f"{failing_half} half failed")
            gather_rows(acc, patches, rows, k0, k1, **kwargs)
            finished.append(k1 - k0)

        with _forced_split(), \
                mock.patch.object(gemm_mod, "_gather_rows", gather):
            with pytest.raises(RuntimeError, match=failing_half):
                lut_matmul(patches, filters, mitchell_lut)
        # The other half ran to the end before the call returned.
        assert finished == ([9 - 4] if failing_half == "caller" else [4])


class TestConcurrentSplitCalls:
    """Split calls from several threads at once keep their own results."""

    def test_four_threads_under_a_short_switch_interval(self, mitchell_lut,
                                                        exact_lut):
        cases = []
        for i in range(8):
            lut = (mitchell_lut, exact_lut)[i % 2]
            patches, filters = _int_case(100 + i, 40 + i, 17 + 2 * i, 5)
            cases.append((patches, filters, lut,
                          lut_matmul_naive(patches, filters, lut)))
        errors, done = [], []

        def worker(index):
            try:
                for round_ in range(6):
                    patches, filters, lut, expected = cases[
                        (index + round_) % len(cases)]
                    out = lut_matmul(patches, filters, lut)
                    if not np.array_equal(out, expected):
                        errors.append((index, round_))
                done.append(index)
            except Exception as exc:        # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _forced_split():
                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(done) == [0, 1, 2, 3]
