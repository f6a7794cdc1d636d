"""Approximate multiplier library.

This package provides behavioural models of the approximate multiplier
circuits that the emulated DNN accelerator may employ, a named registry to
instantiate them, truth-table import/export compatible with the original
TFApprox artefacts, and the standard error metrics used to characterise them.
"""

from .base import (
    ExactMultiplier,
    Multiplier,
    SUPPORTED_BIT_WIDTHS,
    TableMultiplier,
)
from .broken_array import BrokenArrayMultiplier
from .drum import DRUMMultiplier
from .hwcost import HardwareCostEstimate, estimate_cost
from .kulkarni import UnderdesignedMultiplier
from .loa import LOAMultiplier
from .metrics import (
    MultiplierErrorReport,
    error_report,
    error_report_from_tables,
)
from .mitchell import MitchellLogMultiplier
from .perturbed import BitFlipMultiplier, BoundedNoiseMultiplier
from .truncated import TruncatedOperandMultiplier, TruncatedProductMultiplier
from . import library, truthtable

__all__ = [
    "Multiplier",
    "ExactMultiplier",
    "TableMultiplier",
    "SUPPORTED_BIT_WIDTHS",
    "TruncatedOperandMultiplier",
    "TruncatedProductMultiplier",
    "BrokenArrayMultiplier",
    "MitchellLogMultiplier",
    "DRUMMultiplier",
    "LOAMultiplier",
    "UnderdesignedMultiplier",
    "BitFlipMultiplier",
    "BoundedNoiseMultiplier",
    "HardwareCostEstimate",
    "estimate_cost",
    "MultiplierErrorReport",
    "error_report",
    "error_report_from_tables",
    "library",
    "truthtable",
]
