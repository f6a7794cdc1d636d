"""Affine quantisation scheme of Eq. 1 of the paper.

A real number ``r`` is represented by an integer ``i`` through

    ``r = alpha * (i - beta)``

where ``alpha`` (the *scale*) is a positive real and ``beta`` (the
*zero-point*) is an integer of the same type as ``i``.  The constants are
chosen so that the real value ``0`` is exactly representable, which matters
because zero-padding and ReLU-produced zeros must not inject a quantisation
error into subsequent layers.

:func:`compute_coeffs` is the ``ComputeCoeffs`` step of Algorithm 1; it turns
the per-tensor ``(min, max)`` range delivered by the graph's ``Min``/``Max``
nodes into a :class:`QuantParams` pair, and :class:`QuantParams` provides the
quantise/dequantise primitives every emulation engine shares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import QuantizationError


@dataclass(frozen=True)
class IntegerRange:
    """Representable range of the quantised values.

    The paper supports both signed multipliers (operands in ``[-128, 127]``)
    and unsigned multipliers (operands in ``[0, 255]``); the emulator needs to
    know which one it is targeting to choose the quantised range.
    """

    qmin: int
    qmax: int

    def __post_init__(self) -> None:
        if self.qmin >= self.qmax:
            raise QuantizationError(
                f"empty quantised range [{self.qmin}, {self.qmax}]"
            )

    @property
    def levels(self) -> int:
        """Number of representable integer levels."""
        return self.qmax - self.qmin + 1

    @property
    def signed(self) -> bool:
        """True when the range includes negative values."""
        return self.qmin < 0

    @classmethod
    def for_bits(cls, bits: int = 8, *, signed: bool = True) -> "IntegerRange":
        """Range of a ``bits``-wide two's-complement or unsigned integer."""
        if bits < 2 or bits > 16:
            raise QuantizationError(f"bit width {bits} outside [2, 16]")
        if signed:
            return cls(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
        return cls(0, (1 << bits) - 1)


#: The two ranges named explicitly in the paper.
SIGNED_8BIT = IntegerRange.for_bits(8, signed=True)
UNSIGNED_8BIT = IntegerRange.for_bits(8, signed=False)


#: The largest float64 below ``0.5``: the rounding offset of
#: :meth:`QuantParams.quantize`.
_BELOW_HALF = float(np.nextafter(0.5, 0.0))


@dataclass(frozen=True)
class QuantParams:
    """Scale/zero-point pair of the affine transformation ``r = alpha*(i - beta)``."""

    scale: float
    zero_point: int
    qrange: IntegerRange

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise QuantizationError(f"scale must be a positive finite number, got {self.scale}")
        if not self.qrange.qmin <= self.zero_point <= self.qrange.qmax:
            raise QuantizationError(
                f"zero point {self.zero_point} outside quantised range "
                f"[{self.qrange.qmin}, {self.qrange.qmax}]"
            )

    # ------------------------------------------------------------------
    def quantize(self, values: np.ndarray, *,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Map real values to quantised integers (with clipping).

        Implements ``i = clip(round(r / alpha) + beta)``.  ``round`` rounds
        half away from zero, the one rule here: it is the default round mode
        of TensorFlow's ``tf.quantization.quantize``, and this reproduction
        fixes the paper's "requested round mode" parameter to it.  The
        input is not modified.  The result dtype is
        ``int64`` so it can feed any multiplier bit width.  Given ``out``, an
        integer array (or view) of ``values``' shape -- the interior of a
        padded int8 buffer, say -- the integers are written into it instead
        and ``out`` is returned.  Rounding, the zero-point and the clip are
        applied in one float64 buffer; every step is exact for integers
        below ``2**53``, so the values equal an int64 evaluation's.
        The rounding is exact for every float64 quotient ``r / alpha``:
        truncating its magnitude plus :data:`_BELOW_HALF` rounds ``k + 0.5``
        up and everything else to nearest, where adding ``0.5`` itself
        would round ``0.49999999999999994`` up (the sum rounds to ``1.0``);
        when the input has negative values the sign is then copied back
        from it (``alpha > 0``).  Every step runs in place, with no mask and
        no temporary: a masked negate ran 3-4x slower on mixed-sign
        inputs, and the sign passes cost 1.2-1.3x on non-negative ones
        (post-ReLU activations), which skip them.
        """
        values = np.asarray(values, dtype=np.float64)
        low = values.min() if values.size else 0.0
        if values.size and not (np.isfinite(low)
                                and np.isfinite(values.max())):
            raise QuantizationError("cannot quantise non-finite values")
        scaled = np.divide(values, self.scale, out=np.empty(values.shape))
        if low < 0:
            np.abs(scaled, out=scaled)
        scaled += _BELOW_HALF
        np.trunc(scaled, out=scaled)
        if low < 0:
            np.copysign(scaled, values, out=scaled)
        scaled += self.zero_point
        np.clip(scaled, self.qrange.qmin, self.qrange.qmax, out=scaled)
        if out is None:
            return scaled.astype(np.int64)
        np.copyto(out, scaled, casting="unsafe")
        return out

    def dequantize(self, values: np.ndarray) -> np.ndarray:
        """Map quantised integers back to real values: ``r = alpha * (i - beta)``."""
        values = np.asarray(values, dtype=np.float64)
        return self.scale * (values - self.zero_point)


def compute_coeffs(range_min: float, range_max: float, *,
                   qrange: IntegerRange = SIGNED_8BIT) -> QuantParams:
    """Derive the affine coefficients from a tensor's real-valued range.

    This is ``ComputeCoeffs`` of Algorithm 1.  The range is first *nudged* so
    it contains zero (a requirement stated explicitly in Section II), then the
    scale is chosen to spread the range over all integer levels and the
    zero-point is rounded to the nearest integer that keeps ``0`` exactly
    representable.

    Degenerate ranges (all values identical, e.g. an all-zero tensor) fall
    back to a unit scale so downstream arithmetic stays well defined.

    Results are memoised on ``(range_min, range_max, qrange)``:
    every input is immutable, and a frozen serving graph asks for the same
    few ranges on every call.
    """
    return _compute_coeffs(float(range_min), float(range_max), qrange)


@functools.lru_cache(maxsize=1024)
def _compute_coeffs(range_min: float, range_max: float,
                    qrange: IntegerRange) -> QuantParams:
    if not (math.isfinite(range_min) and math.isfinite(range_max)):
        raise QuantizationError(
            f"tensor range [{range_min}, {range_max}] is not finite"
        )
    if range_min > range_max:
        raise QuantizationError(
            f"tensor range is inverted: min {range_min} > max {range_max}"
        )

    # Zero must be representable: extend the range to include it.
    range_min = min(range_min, 0.0)
    range_max = max(range_max, 0.0)

    if range_max == range_min:
        # Degenerate (all-zero) tensor: any positive scale works; pick 1.0 and
        # put the zero-point at the closest representable integer to zero.
        zero_point = int(np.clip(0, qrange.qmin, qrange.qmax))
        return QuantParams(1.0, zero_point, qrange)

    scale = (range_max - range_min) / (qrange.qmax - qrange.qmin)
    if scale == 0.0:
        # A subnormal span (e.g. [0, 5e-324]) underflows to a zero scale when
        # divided by the integer range; treat the tensor as degenerate like
        # the all-zero case above instead of dividing by zero below.
        zero_point = int(np.clip(0, qrange.qmin, qrange.qmax))
        return QuantParams(1.0, zero_point, qrange)
    # The zero-point is the (integer) quantised value that represents r == 0.
    zero_point_real = qrange.qmin - range_min / scale
    # Symmetric signed ranges land on the -0.5 tie; ``round`` (ties to even)
    # keeps their zero point at 0.
    zero_point = int(round(zero_point_real))
    zero_point = int(np.clip(zero_point, qrange.qmin, qrange.qmax))
    return QuantParams(scale, zero_point, qrange)


def compute_coeffs_from_tensor(values: np.ndarray, *,
                               qrange: IntegerRange = SIGNED_8BIT) -> QuantParams:
    """Convenience wrapper deriving the coefficients directly from a tensor."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise QuantizationError("cannot derive a range from an empty tensor")
    if not np.all(np.isfinite(values)):
        raise QuantizationError("tensor contains non-finite values")
    return compute_coeffs(
        float(values.min()), float(values.max()), qrange=qrange,
    )
