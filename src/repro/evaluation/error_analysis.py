"""Numeric error analysis between accurate and approximate inference.

Beyond the end-to-end accuracy, accelerator designers look at how the tensor
values themselves degrade (per layer and at the output) when approximate
multipliers are introduced.  These helpers quantify that degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError


@dataclass(frozen=True)
class TensorErrorReport:
    """Error statistics of one tensor pair (approximate vs reference)."""

    mean_absolute_error: float
    max_absolute_error: float
    mean_squared_error: float
    relative_l2_error: float
    signal_to_noise_db: float

    def summary(self) -> str:
        """One-line summary for logs and examples."""
        return (
            f"MAE={self.mean_absolute_error:.4g} "
            f"max={self.max_absolute_error:.4g} "
            f"rel-L2={self.relative_l2_error:.3%} "
            f"SQNR={self.signal_to_noise_db:.1f} dB"
        )


def tensor_error(reference: np.ndarray, approximate: np.ndarray) -> TensorErrorReport:
    """Compare an approximate tensor with its accurate reference."""
    reference = np.asarray(reference, dtype=np.float64)
    approximate = np.asarray(approximate, dtype=np.float64)
    if reference.shape != approximate.shape:
        raise ShapeError(
            f"tensor shapes differ: {reference.shape} vs {approximate.shape}"
        )
    error = approximate - reference
    abs_error = np.abs(error)
    mse = float(np.mean(error ** 2))
    ref_energy = float(np.mean(reference ** 2))
    rel_l2 = float(
        np.linalg.norm(error) / max(np.linalg.norm(reference), np.finfo(float).tiny)
    )
    if mse == 0.0:
        snr_db = float("inf")
    elif ref_energy == 0.0:
        snr_db = float("-inf")
    else:
        snr_db = float(10.0 * np.log10(ref_energy / mse))
    return TensorErrorReport(
        mean_absolute_error=float(abs_error.mean()),
        max_absolute_error=float(abs_error.max()),
        mean_squared_error=mse,
        relative_l2_error=rel_l2,
        signal_to_noise_db=snr_db,
    )
