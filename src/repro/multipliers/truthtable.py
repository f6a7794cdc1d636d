"""Truth-table validation and the TFApprox binary format.

The released TFApprox artefacts ship approximate multipliers as flat binary
truth tables (one product per operand-pair, operand ``a`` in the outer loop),
which the CUDA code memory-maps straight into the texture object.  This module
reads and writes that layout (:func:`save_binary` / :func:`load_binary`);
wrap a loaded table in :class:`~repro.multipliers.base.TableMultiplier` to
use it as a multiplier.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import TruthTableError


def _table_side(bit_width: int) -> int:
    return 1 << bit_width


def validate_table(table: np.ndarray, bit_width: int, *, signed: bool) -> np.ndarray:
    """Validate a truth-table array and return it as ``int32``.

    Checks the shape against the bit width and verifies every product fits in
    the ``2 * bit_width``-bit output range of the corresponding circuit.
    """
    table = np.asarray(table)
    side = _table_side(bit_width)
    if table.ndim != 2 or table.shape != (side, side):
        raise TruthTableError(
            f"expected a {side}x{side} table for bit width {bit_width}, "
            f"got shape {table.shape}"
        )
    if not np.issubdtype(table.dtype, np.integer):
        if not np.all(np.equal(np.mod(table, 1), 0)):
            raise TruthTableError("truth table contains non-integer products")
        table = table.astype(np.int64)
    if signed:
        bound = 1 << (2 * bit_width - 1)
        lo, hi = -bound, bound  # e.g. (-128)*(-128) == +16384 == 2**14
    else:
        lo, hi = 0, (1 << (2 * bit_width)) - 1
    tmin, tmax = int(table.min()), int(table.max())
    if tmin < lo or tmax > hi:
        raise TruthTableError(
            f"products [{tmin}, {tmax}] exceed the {2 * bit_width}-bit "
            f"{'signed' if signed else 'unsigned'} output range [{lo}, {hi}]"
        )
    return table.astype(np.int32)


# ----------------------------------------------------------------------
# Binary format (TFApprox-compatible: row-major, little-endian)
# ----------------------------------------------------------------------
def save_binary(table: np.ndarray, path: str | Path, *, bit_width: int = 8,
                signed: bool = False) -> None:
    """Write a truth table as flat little-endian values.

    Products of 8-bit multipliers are stored as 16-bit integers (the 128 kB
    format quoted in the paper); wider multipliers use 32-bit storage.
    """
    table = validate_table(table, bit_width, signed=signed)
    if 2 * bit_width <= 16:
        dtype = np.int16 if signed else np.uint16
    else:
        dtype = np.int32
    Path(path).write_bytes(table.astype("<" + np.dtype(dtype).str[1:]).tobytes())


def load_binary(path: str | Path, *, bit_width: int = 8,
                signed: bool = False) -> np.ndarray:
    """Read a truth table written by :func:`save_binary`."""
    raw = Path(path).read_bytes()
    side = _table_side(bit_width)
    expected = side * side
    if 2 * bit_width <= 16:
        dtype = np.dtype("<i2") if signed else np.dtype("<u2")
    else:
        dtype = np.dtype("<i4")
    if len(raw) != expected * dtype.itemsize:
        raise TruthTableError(
            f"file {path} holds {len(raw)} bytes, expected "
            f"{expected * dtype.itemsize} for a {bit_width}-bit table"
        )
    table = np.frombuffer(raw, dtype=dtype).astype(np.int64).reshape(side, side)
    return validate_table(table, bit_width, signed=signed)
