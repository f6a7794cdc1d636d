"""Base classes of the approximate multiplier library.

The TFApprox emulator never executes an approximate multiplier circuit
directly during inference -- it only consumes the multiplier's *truth table*
(the paper stores the full 256x256 table of 16-bit products in GPU texture
memory).  The classes in this package therefore have two jobs:

1. provide a *behavioural model* of each circuit, i.e. a vectorised
   ``multiply(a, b)`` implementing the approximation at Python level, and
2. materialise that behaviour into a dense truth table with
   :meth:`Multiplier.truth_table`, which :mod:`repro.lut` turns into the
   texture-backed lookup table used by the convolution engines.

All multipliers operate on ``bit_width``-bit operands.  Unsigned multipliers
accept operands in ``[0, 2**bit_width - 1]``; signed multipliers accept
operands in ``[-2**(bit_width-1), 2**(bit_width-1) - 1]`` and are implemented
by the sign-magnitude scheme that approximate-multiplier IP libraries
(e.g. EvoApprox) commonly use: the unsigned core multiplies the magnitudes and
the sign of the product is recovered separately.  That keeps every circuit
model written only once, for unsigned operands.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Union

import numpy as np

from ..errors import BitWidthError, ConfigurationError

ArrayLike = Union[int, np.ndarray]

#: Bit-widths accepted by the library.  The paper uses 8-bit multipliers; the
#: smaller widths are useful for exhaustive tests and the larger ones for
#: experimenting with higher-precision accumulation datapaths.
SUPPORTED_BIT_WIDTHS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16)


def _validate_bit_width(bit_width: int) -> None:
    if bit_width not in SUPPORTED_BIT_WIDTHS:
        raise BitWidthError(
            f"bit width {bit_width!r} is not supported; choose one of "
            f"{SUPPORTED_BIT_WIDTHS}"
        )


class Multiplier(ABC):
    """Behavioural model of an ``n x n``-bit (approximate) multiplier.

    Parameters
    ----------
    bit_width:
        Operand width in bits.
    signed:
        When true the multiplier accepts two's-complement operands and the
        approximation is applied to the operand magnitudes (sign-magnitude
        scheme).  When false the operands are plain unsigned integers.
    name:
        Optional identifier; defaults to a name derived from the class and
        its parameters.  Used by :mod:`repro.multipliers.library`.
    """

    def __init__(self, bit_width: int = 8, *, signed: bool = False,
                 name: str | None = None) -> None:
        _validate_bit_width(bit_width)
        self._bit_width = int(bit_width)
        self._signed = bool(signed)
        self._name = name or self._default_name()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bit_width(self) -> int:
        """Operand width in bits."""
        return self._bit_width

    @property
    def signed(self) -> bool:
        """Whether operands are interpreted as two's-complement values."""
        return self._signed

    @property
    def name(self) -> str:
        """Identifier of this multiplier instance."""
        return self._name

    @property
    def operand_min(self) -> int:
        """Smallest representable operand value."""
        return -(1 << (self._bit_width - 1)) if self._signed else 0

    @property
    def operand_max(self) -> int:
        """Largest representable operand value."""
        if self._signed:
            return (1 << (self._bit_width - 1)) - 1
        return (1 << self._bit_width) - 1

    @property
    def product_bits(self) -> int:
        """Number of bits needed to store any product of this multiplier."""
        return 2 * self._bit_width

    def _default_name(self) -> str:
        sign = "s" if self._signed else "u"
        return f"{type(self).__name__.lower()}_{self._bit_width}{sign}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(bit_width={self._bit_width}, "
            f"signed={self._signed}, name={self._name!r})"
        )

    # ------------------------------------------------------------------
    # Core behaviour
    # ------------------------------------------------------------------
    @abstractmethod
    def _multiply_unsigned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply unsigned magnitudes.

        ``a`` and ``b`` are ``int64`` arrays whose values fit in
        ``bit_width`` bits for unsigned multipliers, or in
        ``bit_width`` bits of magnitude (i.e. up to ``2**(bit_width-1)``)
        for the magnitude path of signed multipliers.  Implementations must
        return an ``int64`` array of the same broadcast shape.
        """

    def multiply(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Return the (approximate) product of ``a`` and ``b``.

        Accepts scalars or arrays; the operands are validated against the
        representable range of this multiplier.  Scalar inputs give a scalar
        ``int`` result, array inputs give an ``int64`` array.
        """
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        self._check_range(a_arr, "a")
        self._check_range(b_arr, "b")

        if not self._signed:
            result = self._multiply_unsigned(a_arr, b_arr)
        else:
            sign = np.sign(a_arr) * np.sign(b_arr)
            mag = self._multiply_unsigned(np.abs(a_arr), np.abs(b_arr))
            result = sign * mag

        result = np.asarray(result, dtype=np.int64)
        if np.isscalar(a) and np.isscalar(b):
            return int(result)
        return result

    def exact(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Return the exact product, for error analysis."""
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        result = a_arr * b_arr
        if np.isscalar(a) and np.isscalar(b):
            return int(result)
        return result

    def _check_range(self, values: np.ndarray, label: str) -> None:
        if values.size == 0:
            return
        lo, hi = self.operand_min, self.operand_max
        vmin = int(values.min())
        vmax = int(values.max())
        if vmin < lo or vmax > hi:
            raise ConfigurationError(
                f"operand {label} out of range [{lo}, {hi}] for "
                f"{self._bit_width}-bit {'signed' if self._signed else 'unsigned'} "
                f"multiplier (got values in [{vmin}, {vmax}])"
            )

    # ------------------------------------------------------------------
    # Truth table
    # ------------------------------------------------------------------
    def operand_values(self) -> np.ndarray:
        """All operand values in *bit-pattern order*.

        Index ``i`` of the returned array holds the operand whose raw
        ``bit_width``-bit pattern equals ``i``.  For unsigned multipliers this
        is simply ``0..2**n - 1``; for signed multipliers the upper half of
        the index space wraps to the negative values, exactly as two's
        complement hardware (and the GPU LUT index stitching) sees them.
        """
        n = 1 << self._bit_width
        values = np.arange(n, dtype=np.int64)
        if self._signed:
            half = n >> 1
            values = np.where(values >= half, values - n, values)
        return values

    def truth_table(self) -> np.ndarray:
        """Dense table of products indexed by raw operand bit patterns.

        The entry ``table[i, j]`` is the product returned by the multiplier
        when operand ``a`` has bit pattern ``i`` and operand ``b`` has bit
        pattern ``j``.  For an 8-bit multiplier the table has 256x256 entries
        and, stored as 16-bit integers, occupies the 128 kB quoted in the
        paper.
        """
        values = self.operand_values()
        a_grid, b_grid = np.meshgrid(values, values, indexing="ij")
        products = self.multiply(a_grid, b_grid)
        return np.asarray(products, dtype=np.int32)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def error_on(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Return ``multiply(a, b) - a*b`` (the signed arithmetic error)."""
        return np.asarray(self.multiply(a, b), dtype=np.int64) - np.asarray(
            self.exact(a, b), dtype=np.int64
        )


class ExactMultiplier(Multiplier):
    """Reference multiplier producing exact products.

    Used as the baseline of every error metric and as the "accurate"
    configuration of the emulated accelerator: the paper notes that with an
    exact LUT the accuracy matches TensorFlow's own quantise/dequantise path.
    """

    def _multiply_unsigned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b


class TableMultiplier(Multiplier):
    """Multiplier defined directly by a truth table.

    This is the entry point for external circuits: an EvoApprox-style design
    shipped as a TFApprox binary truth table is read with
    :func:`repro.multipliers.truthtable.load_binary` and wrapped here without
    a Python implementation of the circuit.
    """

    def __init__(self, table: np.ndarray, *, bit_width: int = 8,
                 signed: bool = False, name: str | None = None) -> None:
        super().__init__(bit_width, signed=signed, name=name)
        table = np.asarray(table)
        expected = 1 << bit_width
        if table.shape != (expected, expected):
            raise ConfigurationError(
                f"truth table shape {table.shape} does not match "
                f"{expected}x{expected} for a {bit_width}-bit multiplier"
            )
        self._table = table.astype(np.int64)

    def _bit_pattern(self, values: np.ndarray) -> np.ndarray:
        mask = (1 << self._bit_width) - 1
        return values & mask

    def _multiply_unsigned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # TableMultiplier bypasses the sign-magnitude path entirely: the table
        # is indexed by raw bit patterns and already encodes signed behaviour.
        raise NotImplementedError  # pragma: no cover - multiply() is overridden

    def multiply(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        a_arr = np.asarray(a, dtype=np.int64)
        b_arr = np.asarray(b, dtype=np.int64)
        self._check_range(a_arr, "a")
        self._check_range(b_arr, "b")
        idx_a = self._bit_pattern(a_arr)
        idx_b = self._bit_pattern(b_arr)
        result = self._table[idx_a, idx_b]
        if np.isscalar(a) and np.isscalar(b):
            return int(result)
        return result

    def truth_table(self) -> np.ndarray:
        return self._table.astype(np.int32).copy()
