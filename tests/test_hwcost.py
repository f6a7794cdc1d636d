"""Tests of the first-order hardware cost model of the multiplier library."""

from __future__ import annotations

import pytest

from repro.multipliers import (
    BrokenArrayMultiplier,
    DRUMMultiplier,
    ExactMultiplier,
    LOAMultiplier,
    MitchellLogMultiplier,
    TruncatedOperandMultiplier,
    TruncatedProductMultiplier,
    UnderdesignedMultiplier,
    estimate_cost,
    library,
)


class TestHardwareCostModel:
    def test_exact_multiplier_is_the_baseline(self):
        estimate = estimate_cost(ExactMultiplier(8))
        assert estimate.relative_area == pytest.approx(1.0)
        assert estimate.relative_power == pytest.approx(1.0)
        assert estimate.relative_delay == pytest.approx(1.0)
        assert estimate.area_gate_equivalents > 100

    def test_every_library_multiplier_has_a_cost(self):
        # The iterative Mitchell variant may exceed the exact array area in
        # the unit-gate model (two log blocks plus the combining adder), so
        # the upper bound is generous; everything else stays at or below 1.0.
        for name in library.available():
            estimate = estimate_cost(library.create(name))
            assert 0.0 < estimate.relative_area <= 1.25
            assert 0.0 < estimate.relative_delay <= 1.2
            assert estimate.name == name

    def test_approximations_never_cost_more_area_than_exact(self):
        for m in (TruncatedOperandMultiplier(8, trunc_a=3),
                  TruncatedProductMultiplier(8, dropped_bits=6),
                  BrokenArrayMultiplier(8, vertical_break=6),
                  DRUMMultiplier(8, segment_bits=4),
                  LOAMultiplier(8, lower_bits=8),
                  UnderdesignedMultiplier(8)):
            assert estimate_cost(m).relative_area < 1.0

    def test_more_aggressive_truncation_saves_more(self):
        mild = estimate_cost(TruncatedProductMultiplier(8, dropped_bits=2))
        harsh = estimate_cost(TruncatedProductMultiplier(8, dropped_bits=8))
        assert harsh.relative_area < mild.relative_area
        assert harsh.relative_delay <= mild.relative_delay

    def test_bam_savings_track_omitted_cells(self):
        small = estimate_cost(BrokenArrayMultiplier(8, vertical_break=2))
        large = estimate_cost(BrokenArrayMultiplier(8, vertical_break=10))
        assert large.relative_area < small.relative_area

    def test_drum_and_mitchell_are_much_smaller_than_exact(self):
        # Both families are known to save well over a third of the array area
        # at 8 bits; the unit-gate model must land in that regime.
        assert estimate_cost(DRUMMultiplier(8, segment_bits=4)).relative_area < 0.7
        assert estimate_cost(MitchellLogMultiplier(8)).relative_area < 0.8

    def test_iterative_mitchell_costs_more_than_plain(self):
        plain = estimate_cost(MitchellLogMultiplier(8))
        iterative = estimate_cost(MitchellLogMultiplier(8, iterations=1))
        assert iterative.relative_area > plain.relative_area

    def test_summary_text(self):
        text = estimate_cost(DRUMMultiplier(8, segment_bits=4)).summary()
        assert "area" in text and "power" in text
