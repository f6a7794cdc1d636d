"""Affine quantisation (Eq. 1)."""

from .affine import (
    IntegerRange,
    QuantParams,
    SIGNED_8BIT,
    UNSIGNED_8BIT,
    compute_coeffs,
    compute_coeffs_from_tensor,
)

__all__ = [
    "IntegerRange",
    "QuantParams",
    "SIGNED_8BIT",
    "UNSIGNED_8BIT",
    "compute_coeffs",
    "compute_coeffs_from_tensor",
]
