"""Rounding modes applied when quantising real values to integers.

The approximate convolutional layer of the paper takes a "requested round
mode for the rounding applied during the quantization" as one of its
parameters.  TensorFlow Lite uses round-half-away-from-zero, hardware
quantisers frequently use round-half-to-even to avoid bias, and stochastic
rounding appears in training-oriented accelerators; all of them are provided
here behind a single enum so every emulation engine agrees on the semantics.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import ConfigurationError


class RoundMode(enum.Enum):
    """Supported quantisation rounding modes."""

    #: Round to the nearest integer, ties away from zero (TFLite reference).
    HALF_AWAY_FROM_ZERO = "half_away_from_zero"
    #: Round to the nearest integer, ties to the even integer (IEEE default).
    HALF_TO_EVEN = "half_to_even"
    #: Always round towards negative infinity.
    FLOOR = "floor"
    #: Always round towards positive infinity.
    CEIL = "ceil"
    #: Always round towards zero (plain integer truncation).
    TRUNCATE = "truncate"
    #: Round up or down with probability proportional to the fraction.
    STOCHASTIC = "stochastic"

    @classmethod
    def from_any(cls, value: "RoundMode | str") -> "RoundMode":
        """Coerce a mode name (string) or instance to a :class:`RoundMode`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ConfigurationError(
                f"unknown round mode {value!r}; valid modes: {valid}"
            ) from None


def round_in_place(values: np.ndarray,
                   mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO, *,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Round the float64 array ``values`` to integral values in place.

    The one implementation of every :class:`RoundMode`; returns ``values``.
    ``STOCHASTIC`` requires an ``rng`` (or creates a fixed-seed one so
    results stay reproducible).
    """
    mode = RoundMode.from_any(mode)
    if mode is RoundMode.HALF_AWAY_FROM_ZERO:
        negative = np.signbit(values)
        np.abs(values, out=values)
        values += 0.5
        np.floor(values, out=values)
        np.negative(values, out=values, where=negative)
    elif mode is RoundMode.HALF_TO_EVEN:
        np.rint(values, out=values)
    elif mode is RoundMode.FLOOR:
        np.floor(values, out=values)
    elif mode is RoundMode.CEIL:
        np.ceil(values, out=values)
    elif mode is RoundMode.TRUNCATE:
        np.trunc(values, out=values)
    elif mode is RoundMode.STOCHASTIC:
        if rng is None:
            rng = np.random.default_rng(0)
        floor = np.floor(values)
        values -= floor                                     # the fraction
        np.add(floor, rng.random(values.shape) < values, out=values)
    else:  # pragma: no cover - exhaustive over the enum
        raise ConfigurationError(f"unhandled round mode {mode}")
    return values


def apply_rounding(values: np.ndarray, mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO,
                   *, rng: np.random.Generator | None = None) -> np.ndarray:
    """Round a float array to integers according to ``mode``.

    The result is returned as ``int64``; ``values`` is not modified (see
    :func:`round_in_place`).
    """
    rounded = np.array(values, dtype=np.float64)
    return round_in_place(rounded, mode, rng=rng).astype(np.int64)
