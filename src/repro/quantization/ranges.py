"""Tensor ranges.

The transformed graph of Fig. 1 inserts ``Min``/``Max`` reduction nodes in
front of every approximate layer so the quantisation range of each input is
"determined once per a batch"; :class:`TensorRange` is that interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QuantizationError


@dataclass(frozen=True)
class TensorRange:
    """Closed real interval ``[min_value, max_value]`` covered by a tensor."""

    min_value: float
    max_value: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.min_value) and np.isfinite(self.max_value)):
            raise QuantizationError("tensor range must be finite")
        if self.min_value > self.max_value:
            raise QuantizationError(
                f"inverted range [{self.min_value}, {self.max_value}]"
            )

    @classmethod
    def of(cls, values: np.ndarray) -> "TensorRange":
        """Range of an array (the per-batch Min/Max of the transformed graph)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise QuantizationError("cannot take the range of an empty tensor")
        if not np.all(np.isfinite(values)):
            raise QuantizationError("tensor contains non-finite values")
        return cls(float(values.min()), float(values.max()))

    @property
    def span(self) -> float:
        """Width of the interval."""
        return self.max_value - self.min_value

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(min, max)`` as plain floats."""
        return self.min_value, self.max_value

