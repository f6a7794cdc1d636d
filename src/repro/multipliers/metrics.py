"""Error metrics of approximate multipliers.

The approximate-computing community characterises a circuit by a small set of
standard metrics computed over its full truth table (for 8-bit multipliers the
table is small enough to enumerate exhaustively).  These are the numbers used
to pick candidate multipliers before evaluating them inside a DNN, and the
example scripts plot DNN accuracy against them.

All metrics are defined with respect to the exact product ``a * b``:

* ``error_probability`` (EP): fraction of input pairs with a wrong product.
* ``mean_absolute_error`` (MAE): mean of ``|approx - exact|``.
* ``worst_case_error`` (WCE): maximum of ``|approx - exact|``.
* ``mean_relative_error`` (MRE): mean of ``|approx - exact| / max(1, |exact|)``.
* ``mean_squared_error`` (MSE) and ``root_mean_squared_error`` (RMSE).
* ``mean_error`` (bias): mean of the signed error, showing systematic under-
  or over-estimation.
* ``variance_of_error``: variance of the signed error.

The normalised variants (NMED, WCRE) divide by the largest exact product so
circuits of different bit widths can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Multiplier


@dataclass(frozen=True)
class MultiplierErrorReport:
    """Summary of a multiplier's arithmetic error over its full input domain."""

    name: str
    bit_width: int
    signed: bool
    error_probability: float
    mean_error: float
    mean_absolute_error: float
    normalised_mean_error_distance: float
    worst_case_error: int
    worst_case_relative_error: float
    mean_relative_error: float
    mean_squared_error: float
    root_mean_squared_error: float
    variance_of_error: float

    def summary(self) -> str:
        """One-line human-readable summary used by the example scripts."""
        return (
            f"{self.name}: EP={self.error_probability:.3f} "
            f"MAE={self.mean_absolute_error:.2f} "
            f"WCE={self.worst_case_error} "
            f"MRE={self.mean_relative_error * 100:.2f}%"
        )


def error_report(multiplier: Multiplier) -> MultiplierErrorReport:
    """Compute the full error characterisation of ``multiplier``.

    The computation enumerates the complete truth table, which is exact and
    fast for widths up to 12 bits (16-bit tables are still feasible but take
    a few seconds and ~8 GiB with intermediate arrays, so callers are expected
    to subsample in that case).
    """
    values = multiplier.operand_values()
    a_grid, b_grid = np.meshgrid(values, values, indexing="ij")
    approx = np.asarray(multiplier.multiply(a_grid, b_grid), dtype=np.int64)
    exact = a_grid.astype(np.int64) * b_grid.astype(np.int64)
    return error_report_from_tables(
        approx, exact,
        name=multiplier.name,
        bit_width=multiplier.bit_width,
        signed=multiplier.signed,
    )


def error_report_from_tables(approx: np.ndarray, exact: np.ndarray, *,
                             name: str = "custom", bit_width: int = 8,
                             signed: bool = False) -> MultiplierErrorReport:
    """Compute the error metrics from pre-computed approximate/exact tables."""
    approx = np.asarray(approx, dtype=np.int64)
    exact = np.asarray(exact, dtype=np.int64)
    if approx.shape != exact.shape:
        raise ValueError(
            f"table shapes differ: {approx.shape} vs {exact.shape}"
        )
    error = approx - exact
    abs_error = np.abs(error)
    abs_exact = np.abs(exact)
    max_product = float(abs_exact.max()) if abs_exact.size else 1.0
    max_product = max(max_product, 1.0)

    relative = abs_error / np.maximum(abs_exact, 1)
    mse = float(np.mean(abs_error.astype(np.float64) ** 2))
    return MultiplierErrorReport(
        name=name,
        bit_width=bit_width,
        signed=signed,
        error_probability=float(np.mean(error != 0)),
        mean_error=float(np.mean(error)),
        mean_absolute_error=float(np.mean(abs_error)),
        normalised_mean_error_distance=float(np.mean(abs_error) / max_product),
        worst_case_error=int(abs_error.max()) if abs_error.size else 0,
        worst_case_relative_error=float(relative.max()) if relative.size else 0.0,
        mean_relative_error=float(np.mean(relative)),
        mean_squared_error=mse,
        root_mean_squared_error=float(np.sqrt(mse)),
        variance_of_error=float(np.var(error)),
    )
