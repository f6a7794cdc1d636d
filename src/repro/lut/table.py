"""Look-up-table representation of approximate multipliers.

Section III of the paper explains that the 8-bit approximate multiplication
inside the GEMM kernel "is implemented by a lookup table containing 256^2
16-bit values stored in GPU memory and cached in L1 or L1 texture cache", with
the index "created by stitching the multiplied 8-bit values into a single
16-bit value".  :class:`LookupTable` is exactly that object on the host side:
a flat array of products addressed by the concatenated operand bit patterns.

The same class backs every emulation engine in this repository -- the direct
CPU loop, the vectorised NumPy path and the simulated CUDA kernels -- so the
functional behaviour of an accelerator configuration is defined in a single
place.

Many approximate multipliers only approximate their operands or drop whole
partial-product rows (DRUM, operand truncation, UDM, broken arrays), so
their tables are exact sums of a few separable terms,
``T[a, b] = sum_s C[a, s] * G[s, b]``.  :func:`factor_table` finds such a
decomposition in integers and proves it exact; :attr:`LookupTable.factors`
caches the result per table, and the ``factored`` LUT-GEMM kernel of
:mod:`repro.conv.gemm` turns a product of lookups into float64 BLAS GEMMs
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BitWidthError, TruthTableError
from ..multipliers.base import Multiplier
from ..multipliers.truthtable import validate_table
from ..quantization.affine import IntegerRange


#: Highest exact rank :func:`factor_table` factors a table at.  Above it the
#: factored GEMM's ``r``-fold wider operands cost more than the gathers they
#: replace (measured: 1.5x or better at rank 3, 0.7x at rank 6).
MAX_FACTOR_RANK = 3

#: Every factored product, and every sum of them a GEMM forms, must stay
#: below this to be exact in float64, whatever order the sum is taken in.
FLOAT64_EXACT_LIMIT = 1 << 53


@dataclass(frozen=True)
class LutFactors:
    """An exact integer skeleton ``columns @ scaled_rows == denominator * T``.

    ``columns`` is ``C = T[:, cols]`` (``[2**n, r]``) and ``scaled_rows``
    is ``dG = d * M^-1 @ T[rows, :]`` (``[r, 2**n]``) for ``r`` pivot rows
    and columns with pivot block ``M = T[rows][:, cols]``, both indexed by
    operand bit patterns like the table and held as float64 (every entry is
    an integer of magnitude below ``2**53``).  ``term_bound`` is
    ``r * max|C| * max|dG|``: a product of depth ``K`` sums terms whose
    partial sums never exceed ``K * term_bound``.
    """

    columns: np.ndarray
    scaled_rows: np.ndarray
    denominator: int
    term_bound: int

    @property
    def rank(self) -> int:
        """Number of separable terms ``r``."""
        return self.columns.shape[1]

    def exact_for_depth(self, depth: int) -> bool:
        """Whether a depth-``depth`` factored product is exact in float64."""
        return depth * self.term_bound < FLOAT64_EXACT_LIMIT


def _determinant(matrix: list[list[int]]) -> int:
    """Exact determinant by Laplace expansion (pivot blocks are <= 3x3)."""
    if not matrix:
        return 1
    return sum((-1) ** j * matrix[0][j]
               * _determinant([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j in range(len(matrix)))


def _adjugate(matrix: list[list[int]]) -> list[list[int]]:
    """Exact adjugate, ``adj(M) = det(M) * M^-1``."""
    size = len(matrix)

    def minor(i, j):
        return [row[:j] + row[j + 1:] for k, row in enumerate(matrix) if k != i]

    return [[(-1) ** (i + j) * _determinant(minor(j, i)) for j in range(size)]
            for i in range(size)]


def verify_factors(columns: np.ndarray, scaled_rows: np.ndarray,
                   denominator: int, table: np.ndarray) -> bool:
    """Exact check ``columns @ scaled_rows == denominator * table`` in int64.

    The caller bounds every entry of both sides below ``2**53``, so no int64
    product or sum can wrap.
    """
    return bool(np.array_equal(columns @ scaled_rows,
                               denominator * table.astype(np.int64,
                                                          copy=False)))


def factor_table(table: np.ndarray,
                 max_rank: int = MAX_FACTOR_RANK) -> LutFactors | None:
    """Exact low-rank factors of an integer truth table, or ``None``.

    Pivots are chosen by complete pivoting on a float64 residual: up to
    ``max_rank`` times the largest residual entry becomes a pivot and its
    rank-one cross is eliminated.  If a residual entry above rounding noise
    survives ``max_rank`` pivots, the table's rank exceeds the cutoff.  The
    pivot block ``M`` is then inverted exactly, in Python integers
    (``M^-1 = adj(M) / det(M)``), and the common denominator is reduced to
    the smallest ``d`` that makes ``dG = d * M^-1 @ T[rows, :]`` integral.
    The float pivot search only proposes; the factors are returned only when
    :func:`verify_factors` proves ``C @ dG == d * T`` exactly and every
    factored product is exact in float64.  All-zero tables return ``None``.
    """
    table = np.asarray(table, dtype=np.int64)
    residual = table.astype(np.float64)
    # One scratch array holds |residual| and each rank-one update in turn,
    # so the search peaks at two float64 copies of the table.
    scratch = np.abs(residual)
    noise = 1e-9 * float(scratch.max(initial=0.0))
    rows: list[int] = []
    cols: list[int] = []
    while True:
        i, j = np.unravel_index(int(scratch.argmax()), residual.shape)
        if abs(residual[i, j]) <= noise:
            break
        if len(rows) == max_rank:
            return None
        rows.append(int(i))
        cols.append(int(j))
        residual -= np.multiply.outer(residual[:, j],
                                      residual[i] / residual[i, j], out=scratch)
        np.abs(residual, out=scratch)
    del residual, scratch
    if not rows:
        return None

    pivots = [[int(table[i, j]) for j in cols] for i in rows]
    det = _determinant(pivots)
    if det == 0:
        return None
    adjugate = np.array(_adjugate(pivots), dtype=object)
    scaled = adjugate.dot(table[rows].astype(object))   # det * M^-1 @ T[rows]
    divisor = math.gcd(det, *(int(v) for v in scaled.ravel()))
    if det < 0:
        divisor = -divisor
    denominator = det // divisor
    scaled //= divisor
    columns = table[:, cols]
    term_bound = (len(rows) * int(np.abs(columns).max())
                  * max(abs(int(v)) for v in scaled.ravel()))
    if (term_bound >= FLOAT64_EXACT_LIMIT
            or denominator * int(np.abs(table).max()) > term_bound):
        return None
    scaled = scaled.astype(np.int64)
    if not verify_factors(columns, scaled, denominator, table):
        return None
    return LutFactors(columns=columns.astype(np.float64),
                      scaled_rows=scaled.astype(np.float64),
                      denominator=denominator, term_bound=term_bound)


class LookupTable:
    """Flat product table addressed by stitched operand bit patterns.

    Parameters
    ----------
    table:
        Dense ``2**n x 2**n`` truth table indexed by raw operand bit patterns
        (as produced by :meth:`repro.multipliers.Multiplier.truth_table`).
    bit_width:
        Operand width ``n``.
    signed:
        Whether the operands feeding the table are two's-complement values.
        This only affects how quantised operands are translated to bit
        patterns in :meth:`lookup`; the stored products are always plain
        integers.
    name:
        Identifier used in reports; defaults to ``"lut"``.
    """

    def __init__(self, table: np.ndarray, *, bit_width: int = 8,
                 signed: bool = False, name: str = "lut") -> None:
        if bit_width < 2 or bit_width > 16:
            raise BitWidthError(f"bit width {bit_width} outside [2, 16]")
        table = validate_table(table, bit_width, signed=signed)
        self._bit_width = int(bit_width)
        self._signed = bool(signed)
        self._name = name
        # 16-bit storage reproduces the 128 kB footprint quoted by the paper
        # for 8-bit multipliers; wider products fall back to 32 bits.
        if 2 * bit_width <= 16:
            storage = np.int16 if signed else np.uint16
        else:
            storage = np.int32
        self._flat = np.ascontiguousarray(table.reshape(-1).astype(storage))
        self._table_2d = table
        self._factors: LutFactors | None = None
        self._factored = False

    # ------------------------------------------------------------------
    @classmethod
    def from_multiplier(cls, multiplier: Multiplier, *,
                        name: str | None = None) -> "LookupTable":
        """Materialise a multiplier's truth table into a lookup table."""
        return cls(
            multiplier.truth_table(),
            bit_width=multiplier.bit_width,
            signed=multiplier.signed,
            name=name or multiplier.name,
        )

    # ------------------------------------------------------------------
    @property
    def bit_width(self) -> int:
        """Operand width in bits."""
        return self._bit_width

    @property
    def signed(self) -> bool:
        """Whether quantised operands are two's-complement values."""
        return self._signed

    @property
    def name(self) -> str:
        """Identifier of the table (usually the multiplier name)."""
        return self._name

    @property
    def size(self) -> int:
        """Number of entries (``2**(2 * bit_width)``)."""
        return self._flat.size

    @property
    def nbytes(self) -> int:
        """Memory footprint of the flat table in bytes (128 kB for 8-bit)."""
        return self._flat.nbytes

    @property
    def flat(self) -> np.ndarray:
        """Read-only view of the flat table (what the texture object binds)."""
        view = self._flat.view()
        view.setflags(write=False)
        return view

    @property
    def operand_min(self) -> int:
        """Smallest quantised operand accepted by :meth:`lookup`."""
        return -(1 << (self._bit_width - 1)) if self._signed else 0

    @property
    def operand_max(self) -> int:
        """Largest quantised operand accepted by :meth:`lookup`."""
        if self._signed:
            return (1 << (self._bit_width - 1)) - 1
        return (1 << self._bit_width) - 1

    @property
    def qrange(self) -> IntegerRange:
        """Quantised range of both operands of a convolution on this table.

        ``[operand_min, operand_max]``: the only operands the table can
        address, and the one place a conv entry point gets its range.
        """
        return IntegerRange(self.operand_min, self.operand_max)

    @property
    def factors(self) -> LutFactors | None:
        """Exact rank-``r <= 3`` factors of the table, or ``None``.

        Computed by :func:`factor_table` on first use and cached.  Threads
        that race on the first use compute the same factors, so the race
        only duplicates work.
        """
        if not self._factored:
            self._factors = factor_table(self._table_2d)
            self._factored = True
        return self._factors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "signed" if self._signed else "unsigned"
        return (
            f"LookupTable(name={self._name!r}, {self._bit_width}-bit {kind}, "
            f"{self.nbytes // 1024} kB)"
        )

    # ------------------------------------------------------------------
    # Index construction and lookups
    # ------------------------------------------------------------------
    def check_operands(self, values: np.ndarray) -> None:
        """Raise :class:`~repro.errors.TruthTableError` unless every quantised
        operand lies in ``[operand_min, operand_max]``."""
        lo, hi = self.operand_min, self.operand_max
        if values.size:
            vmin, vmax = int(values.min()), int(values.max())
            if vmin < lo or vmax > hi:
                raise TruthTableError(
                    f"quantised operands [{vmin}, {vmax}] outside the table "
                    f"range [{lo}, {hi}]"
                )

    def _to_bits(self, values: np.ndarray) -> np.ndarray:
        """Map quantised operand values to raw bit patterns."""
        values = np.asarray(values, dtype=np.int64)
        self.check_operands(values)
        mask = (1 << self._bit_width) - 1
        return values & mask

    def stitch_index(self, a, b) -> np.ndarray:
        """Stitch two quantised operands into the flat texture index.

        This mirrors the CUDA kernel: ``index = (bits(a) << n) | bits(b)``,
        giving a 16-bit index for 8-bit operands.
        """
        a_bits = self._to_bits(np.asarray(a))
        b_bits = self._to_bits(np.asarray(b))
        return (a_bits << self._bit_width) | b_bits

    def lookup(self, a, b):
        """Return the table product for quantised operands ``a`` and ``b``.

        Operands may be scalars or arrays (broadcast together); the result is
        returned as ``int64`` so downstream accumulation never overflows.
        """
        idx = self.stitch_index(a, b)
        products = self._flat[idx].astype(np.int64)
        if np.isscalar(a) and np.isscalar(b):
            return int(products)
        return products

    def lookup_flat(self, indices: np.ndarray) -> np.ndarray:
        """Fetch products for pre-stitched indices (texture-fetch semantics)."""
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.size):
            raise TruthTableError(
                f"stitched index outside [0, {self.size})"
            )
        return self._flat[indices].astype(np.int64)

    def dense(self) -> np.ndarray:
        """Return the dense ``2**n x 2**n`` truth table (a copy)."""
        return self._table_2d.copy()
