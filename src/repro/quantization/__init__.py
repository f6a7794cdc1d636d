"""Affine quantisation (Eq. 1), rounding modes and tensor ranges."""

from .affine import (
    IntegerRange,
    QuantParams,
    SIGNED_8BIT,
    UNSIGNED_8BIT,
    compute_coeffs,
    compute_coeffs_from_tensor,
)
from .ranges import TensorRange
from .rounding import RoundMode, apply_rounding

__all__ = [
    "IntegerRange",
    "QuantParams",
    "SIGNED_8BIT",
    "UNSIGNED_8BIT",
    "compute_coeffs",
    "compute_coeffs_from_tensor",
    "TensorRange",
    "RoundMode",
    "apply_rounding",
]
