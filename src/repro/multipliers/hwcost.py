"""First-order hardware cost estimates of the approximate multipliers.

The whole point of replacing exact multipliers with approximate ones is the
energy/area saving of the simpler circuit; a design-space exploration
therefore needs a cost axis next to the error axis.  Synthesising the
circuits is out of scope for this reproduction, so this module provides
*unit-gate* estimates of area, power and delay, the classic first-order model
used in approximate-arithmetic papers when no technology library is at hand:

* an ``n x n`` array multiplier consists of ``n**2`` AND gates (partial
  products) and roughly ``n * (n - 2)`` full adders plus ``n`` half adders;
* a full adder counts as 9 gate equivalents (GE) of area and 2 units of
  delay, a half adder as 4 GE, an AND gate as 1 GE;
* dynamic power is taken proportional to area (activity factors are assumed
  uniform), so the numbers are *relative* -- meaningful as ratios against
  the exact multiplier of the same width, not as absolute mW.

Each approximate family removes specific parts of that structure (omitted
partial-product cells for BAM/truncation, a narrower internal multiplier for
DRUM, shifters and one adder for Mitchell, OR gates instead of adders for
LOA).  The estimates below follow those structural simplifications, so the
returned relative savings land in the ranges the original papers report,
without pretending synthesis-level accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import ExactMultiplier, Multiplier, TableMultiplier
from .broken_array import BrokenArrayMultiplier
from .drum import DRUMMultiplier
from .kulkarni import UnderdesignedMultiplier
from .loa import LOAMultiplier
from .mitchell import MitchellLogMultiplier
from .perturbed import BitFlipMultiplier, BoundedNoiseMultiplier
from .truncated import TruncatedOperandMultiplier, TruncatedProductMultiplier

#: Gate-equivalent cost of the elementary cells of the unit-gate model.
FULL_ADDER_GE = 9.0
HALF_ADDER_GE = 4.0
AND_GATE_GE = 1.0
OR_GATE_GE = 1.0


@dataclass(frozen=True)
class HardwareCostEstimate:
    """Relative area / power / delay of one multiplier instance."""

    name: str
    area_gate_equivalents: float
    relative_area: float
    relative_power: float
    relative_delay: float

    def summary(self) -> str:
        """One-line summary used by the trade-off example."""
        return (
            f"{self.name}: area {self.relative_area:.2f}x, "
            f"power {self.relative_power:.2f}x, "
            f"delay {self.relative_delay:.2f}x of the exact multiplier"
        )


def _exact_array_cost(bits: int) -> tuple[float, float]:
    """(area in GE, delay in cell levels) of an exact n x n array multiplier."""
    and_gates = bits * bits
    full_adders = max(bits * (bits - 2), 0)
    half_adders = bits
    area = (and_gates * AND_GATE_GE + full_adders * FULL_ADDER_GE
            + half_adders * HALF_ADDER_GE)
    delay = 2.0 * (2 * bits - 2)          # carry-save array critical path
    return area, max(delay, 1.0)


def estimate_cost(multiplier: Multiplier) -> HardwareCostEstimate:
    """Estimate the relative hardware cost of ``multiplier``.

    The exact multiplier of the same bit width defines the 1.0 baseline.
    Truth-table-only multipliers (loaded from files) cannot be attributed a
    structure, so they are conservatively reported at the exact cost.
    """
    bits = multiplier.bit_width
    exact_area, exact_delay = _exact_array_cost(bits)
    area = exact_area
    delay = exact_delay

    if isinstance(multiplier, ExactMultiplier) or isinstance(multiplier, TableMultiplier):
        pass

    elif isinstance(multiplier, (BitFlipMultiplier, BoundedNoiseMultiplier)):
        # Synthetic stand-ins: treat as mildly simplified exact multipliers.
        area = exact_area * 0.95

    elif isinstance(multiplier, TruncatedOperandMultiplier):
        kept_a = bits - multiplier.trunc_a
        kept_b = bits - multiplier.trunc_b
        scaled_area, _ = _exact_array_cost(max(min(kept_a, kept_b), 2))
        # Rows/columns removed from the array, roughly a (kept/bits)^2 scaling.
        area = exact_area * (kept_a * kept_b) / (bits * bits)
        area = max(area, scaled_area * 0.5)
        delay = exact_delay * max(kept_a, kept_b) / bits

    elif isinstance(multiplier, TruncatedProductMultiplier):
        dropped = multiplier.dropped_bits
        # Output columns 0..dropped-1 and the cells feeding only them vanish.
        removed_cells = dropped * (dropped + 1) / 2.0
        area = exact_area - removed_cells * (AND_GATE_GE + FULL_ADDER_GE * 0.5)
        if multiplier.compensated:
            area += HALF_ADDER_GE          # the constant-correction adder
        delay = exact_delay * (2 * bits - dropped / 2.0) / (2.0 * bits)

    elif isinstance(multiplier, BrokenArrayMultiplier):
        total_cells = bits * bits
        kept_cells = total_cells - multiplier.omitted_cell_count()
        area = exact_area * kept_cells / total_cells
        delay = exact_delay * max(
            (2 * bits - multiplier.vertical_break) / (2.0 * bits), 0.25)

    elif isinstance(multiplier, DRUMMultiplier):
        k = multiplier.segment_bits
        core_area, core_delay = _exact_array_cost(max(k, 2))
        # Leading-one detectors + two shifters ~ 3 GE per operand bit each.
        steering = 2 * (3.0 * bits) + 2 * (2.0 * bits)
        area = core_area + steering
        delay = core_delay + 4.0

    elif isinstance(multiplier, MitchellLogMultiplier):
        # Two leading-one detectors, two shifters, one (n+frac)-bit adder and
        # one output shifter; iterations add one block each.
        blocks = 1 + multiplier.iterations
        adder_bits = bits + multiplier.fraction_bits
        block_area = (2 * 3.0 * bits) + (3 * 2.0 * bits) + adder_bits * FULL_ADDER_GE
        area = blocks * block_area + (blocks - 1) * 2 * bits * FULL_ADDER_GE
        delay = 4.0 + 2.0 * adder_bits / bits + 2.0 * (blocks - 1)

    elif isinstance(multiplier, LOAMultiplier):
        lower = multiplier.lower_bits
        # Low columns lose their adders and keep one OR per partial product.
        removed_adders = lower * (lower + 1) / 2.0
        area = exact_area - removed_adders * FULL_ADDER_GE * 0.5 \
            + lower * OR_GATE_GE
        delay = exact_delay * (2 * bits - lower / 2.0) / (2.0 * bits)

    elif isinstance(multiplier, UnderdesignedMultiplier):
        # Kulkarni et al. report ~31.8 % power saving for the 2x2 block and
        # ~30-45 % area saving after recomposition; model it as a flat factor.
        area = exact_area * 0.68
        delay = exact_delay * 0.9

    else:
        # Unknown behavioural families: leave the exact cost (conservative).
        pass

    area = max(area, 1.0)
    return HardwareCostEstimate(
        name=multiplier.name,
        area_gate_equivalents=area,
        relative_area=area / exact_area,
        relative_power=area / exact_area,     # activity-proportional model
        relative_delay=max(delay / exact_delay, 0.05),
    )
