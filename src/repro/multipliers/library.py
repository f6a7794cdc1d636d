"""Named registry of approximate multipliers.

TFApprox users refer to approximate multipliers by library identifiers (the
EvoApprox naming scheme, e.g. ``mul8u_L40``).  This module provides the same
experience for the behavioural models shipped with this reproduction: every
multiplier configuration has a stable string name, the registry can build an
instance from that name, and user code can register additional designs
(including ones loaded from truth-table files).

The registry is intentionally a plain module-level dictionary of factory
functions so examples and benchmarks can iterate over the whole catalogue.
"""

from __future__ import annotations

from typing import Callable

from ..errors import RegistryError
from .base import ExactMultiplier, Multiplier
from .broken_array import BrokenArrayMultiplier
from .drum import DRUMMultiplier
from .kulkarni import UnderdesignedMultiplier
from .loa import LOAMultiplier
from .mitchell import MitchellLogMultiplier
from .perturbed import BitFlipMultiplier, BoundedNoiseMultiplier
from .truncated import TruncatedOperandMultiplier, TruncatedProductMultiplier

MultiplierFactory = Callable[[], Multiplier]

_REGISTRY: dict[str, MultiplierFactory] = {}


def register(name: str, factory: MultiplierFactory, *,
             overwrite: bool = False) -> None:
    """Register a multiplier factory under ``name``.

    Raises :class:`~repro.errors.RegistryError` when the name is already in
    use, unless ``overwrite`` is requested.
    """
    if not overwrite and name in _REGISTRY:
        raise RegistryError(f"multiplier {name!r} is already registered")
    _REGISTRY[name] = factory


def create(name: str) -> Multiplier:
    """Instantiate the registered multiplier called ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise RegistryError(
            f"unknown multiplier {name!r}; known multipliers: {known}"
        ) from None
    return factory()


def available() -> list[str]:
    """Return the sorted names of all registered multipliers."""
    return sorted(_REGISTRY)


def _register_defaults() -> None:
    """Populate the registry with the built-in 8-bit catalogue.

    The names follow the EvoApprox convention ``mul8u_*`` / ``mul8s_*`` so
    scripts written against the original tf-approximate repository read
    naturally, with a suffix describing the behavioural family.
    """
    defaults: dict[str, MultiplierFactory] = {
        # Exact references
        "mul8u_exact": lambda: ExactMultiplier(8, signed=False, name="mul8u_exact"),
        "mul8s_exact": lambda: ExactMultiplier(8, signed=True, name="mul8s_exact"),
        # Operand truncation
        "mul8u_trunc1": lambda: TruncatedOperandMultiplier(
            8, trunc_a=1, signed=False, name="mul8u_trunc1"),
        "mul8u_trunc2": lambda: TruncatedOperandMultiplier(
            8, trunc_a=2, signed=False, name="mul8u_trunc2"),
        "mul8u_trunc3": lambda: TruncatedOperandMultiplier(
            8, trunc_a=3, signed=False, name="mul8u_trunc3"),
        "mul8s_trunc2": lambda: TruncatedOperandMultiplier(
            8, trunc_a=2, signed=True, name="mul8s_trunc2"),
        # Product truncation (with and without compensation)
        "mul8u_ptrunc4": lambda: TruncatedProductMultiplier(
            8, dropped_bits=4, signed=False, name="mul8u_ptrunc4"),
        "mul8u_ptrunc6": lambda: TruncatedProductMultiplier(
            8, dropped_bits=6, signed=False, name="mul8u_ptrunc6"),
        "mul8u_ptrunc6c": lambda: TruncatedProductMultiplier(
            8, dropped_bits=6, compensate=True, signed=False, name="mul8u_ptrunc6c"),
        "mul8s_ptrunc4": lambda: TruncatedProductMultiplier(
            8, dropped_bits=4, signed=True, name="mul8s_ptrunc4"),
        # Broken-array multipliers
        "mul8u_bam_v4": lambda: BrokenArrayMultiplier(
            8, vertical_break=4, signed=False, name="mul8u_bam_v4"),
        "mul8u_bam_v6": lambda: BrokenArrayMultiplier(
            8, vertical_break=6, signed=False, name="mul8u_bam_v6"),
        "mul8u_bam_h2v4": lambda: BrokenArrayMultiplier(
            8, horizontal_break=2, vertical_break=4, signed=False,
            name="mul8u_bam_h2v4"),
        "mul8s_bam_v5": lambda: BrokenArrayMultiplier(
            8, vertical_break=5, signed=True, name="mul8s_bam_v5"),
        # Logarithmic multipliers
        "mul8u_mitchell": lambda: MitchellLogMultiplier(
            8, signed=False, name="mul8u_mitchell"),
        "mul8u_mitchell_it1": lambda: MitchellLogMultiplier(
            8, iterations=1, signed=False, name="mul8u_mitchell_it1"),
        "mul8s_mitchell": lambda: MitchellLogMultiplier(
            8, signed=True, name="mul8s_mitchell"),
        # DRUM
        "mul8u_drum3": lambda: DRUMMultiplier(
            8, segment_bits=3, signed=False, name="mul8u_drum3"),
        "mul8u_drum4": lambda: DRUMMultiplier(
            8, segment_bits=4, signed=False, name="mul8u_drum4"),
        "mul8u_drum6": lambda: DRUMMultiplier(
            8, segment_bits=6, signed=False, name="mul8u_drum6"),
        "mul8s_drum4": lambda: DRUMMultiplier(
            8, segment_bits=4, signed=True, name="mul8s_drum4"),
        # Lower-part-OR accumulation
        "mul8u_loa4": lambda: LOAMultiplier(
            8, lower_bits=4, signed=False, name="mul8u_loa4"),
        "mul8u_loa6": lambda: LOAMultiplier(
            8, lower_bits=6, signed=False, name="mul8u_loa6"),
        "mul8u_loa8": lambda: LOAMultiplier(
            8, lower_bits=8, signed=False, name="mul8u_loa8"),
        # Kulkarni under-designed multiplier
        "mul8u_udm": lambda: UnderdesignedMultiplier(
            8, signed=False, name="mul8u_udm"),
        "mul8s_udm": lambda: UnderdesignedMultiplier(
            8, signed=True, name="mul8s_udm"),
        # Synthetic error-injected designs (EvoApprox stand-ins)
        "mul8u_bitflip_lo": lambda: BitFlipMultiplier(
            8, flip_probability=0.005, affected_bits=6, seed=7,
            signed=False, name="mul8u_bitflip_lo"),
        "mul8u_bitflip_hi": lambda: BitFlipMultiplier(
            8, flip_probability=0.05, affected_bits=10, seed=11,
            signed=False, name="mul8u_bitflip_hi"),
        "mul8u_noise64": lambda: BoundedNoiseMultiplier(
            8, max_error=64, seed=3, signed=False, name="mul8u_noise64"),
        "mul8u_noise256": lambda: BoundedNoiseMultiplier(
            8, max_error=256, seed=5, signed=False, name="mul8u_noise256"),
        "mul8s_noise64": lambda: BoundedNoiseMultiplier(
            8, max_error=64, seed=3, signed=True, name="mul8s_noise64"),
    }
    for name, factory in defaults.items():
        register(name, factory, overwrite=True)


_register_defaults()
