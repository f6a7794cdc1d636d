"""Affine quantisation (Eq. 1) and tensor ranges."""

from .affine import (
    IntegerRange,
    QuantParams,
    SIGNED_8BIT,
    UNSIGNED_8BIT,
    compute_coeffs,
    compute_coeffs_from_tensor,
)
from .ranges import TensorRange

__all__ = [
    "IntegerRange",
    "QuantParams",
    "SIGNED_8BIT",
    "UNSIGNED_8BIT",
    "compute_coeffs",
    "compute_coeffs_from_tensor",
    "TensorRange",
]
