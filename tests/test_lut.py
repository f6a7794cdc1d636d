"""Tests of the lookup-table and texture-memory emulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BitWidthError, DeviceError, TruthTableError
from repro.lut import LookupTable, TextureCacheModel
from repro.multipliers import ExactMultiplier, MitchellLogMultiplier, library


class TestLookupTable:
    def test_footprint_matches_paper(self, exact_lut_signed):
        # "the truth table for an 8-bit multiplier occupies only 128 kB"
        assert exact_lut_signed.nbytes == 128 * 1024
        assert exact_lut_signed.size == 256 * 256

    def test_lookup_matches_multiplier_signed(self, rng):
        m = MitchellLogMultiplier(8, signed=True)
        lut = LookupTable.from_multiplier(m)
        a = rng.integers(-128, 128, size=500)
        b = rng.integers(-128, 128, size=500)
        np.testing.assert_array_equal(lut.lookup(a, b), m.multiply(a, b))

    def test_lookup_matches_multiplier_unsigned(self, rng):
        m = library.create("mul8u_drum4")
        lut = LookupTable.from_multiplier(m)
        a = rng.integers(0, 256, size=500)
        b = rng.integers(0, 256, size=500)
        np.testing.assert_array_equal(lut.lookup(a, b), m.multiply(a, b))

    def test_scalar_lookup(self, exact_lut_signed):
        assert exact_lut_signed.lookup(-128, -128) == 16384
        assert exact_lut_signed.lookup(127, 127) == 16129

    def test_index_stitching_layout(self, exact_lut_unsigned):
        # index = (a << 8) | b, matching tex1Dfetch addressing.
        idx = exact_lut_unsigned.stitch_index(3, 7)
        assert idx == (3 << 8) | 7
        assert exact_lut_unsigned.lookup_flat(np.array([idx]))[0] == 21

    def test_signed_bit_pattern_stitching(self, exact_lut_signed):
        # -1 has the bit pattern 0xFF.
        idx = exact_lut_signed.stitch_index(-1, -1)
        assert idx == (0xFF << 8) | 0xFF

    def test_out_of_range_operand_rejected(self, exact_lut_signed):
        with pytest.raises(TruthTableError):
            exact_lut_signed.lookup(128, 0)

    def test_out_of_range_flat_index_rejected(self, exact_lut_signed):
        with pytest.raises(TruthTableError):
            exact_lut_signed.lookup_flat(np.array([256 * 256]))

    def test_is_exact_flag(self, exact_lut_signed, mitchell_lut_signed):
        assert exact_lut_signed.is_exact()
        assert not mitchell_lut_signed.is_exact()

    def test_error_versus_exact_zero_for_exact(self, exact_lut_unsigned):
        assert not np.any(exact_lut_unsigned.error_versus_exact())

    def test_invalid_bit_width(self):
        with pytest.raises(BitWidthError):
            LookupTable(np.zeros((2, 2)), bit_width=1)

    def test_flat_view_is_read_only(self, exact_lut_unsigned):
        with pytest.raises(ValueError):
            exact_lut_unsigned.flat[0] = 1

    def test_storage_dtype_16bit(self, exact_lut_signed, exact_lut_unsigned):
        assert exact_lut_signed.flat.dtype == np.int16
        assert exact_lut_unsigned.flat.dtype == np.uint16

    @settings(max_examples=150, deadline=None)
    @given(a=st.integers(min_value=-128, max_value=127),
           b=st.integers(min_value=-128, max_value=127))
    def test_lut_agrees_with_behavioural_model(self, a, b):
        m = library.create("mul8s_drum4")
        lut = LookupTable.from_multiplier(m)
        assert lut.lookup(a, b) == m.multiply(a, b)


class TestTextureCacheModel:
    def test_repeated_access_hits(self):
        cache = TextureCacheModel(size_bytes=4096, line_bytes=32, ways=4)
        cache.access(0)
        assert cache.access(0) is True
        assert cache.hits == 1
        assert cache.misses == 1

    def test_small_working_set_has_high_hit_rate(self, rng):
        cache = TextureCacheModel(size_bytes=48 * 1024)
        indices = rng.integers(0, 1024, size=5000)  # 2 kB working set
        rate = cache.replay(indices, limit=None)
        assert rate > 0.9

    def test_large_working_set_has_lower_hit_rate(self, rng):
        cache = TextureCacheModel(size_bytes=4 * 1024)
        small = cache.replay(rng.integers(0, 512, size=4000), limit=None)
        cache.reset()
        large = cache.replay(rng.integers(0, 65536, size=4000), limit=None)
        assert large < small

    def test_invalid_geometry_rejected(self):
        with pytest.raises(DeviceError):
            TextureCacheModel(size_bytes=0)
        with pytest.raises(DeviceError):
            TextureCacheModel(size_bytes=1000, line_bytes=32, ways=3)

    def test_histogram_estimate_brackets_replay(self, rng):
        cache = TextureCacheModel(size_bytes=48 * 1024)
        indices = rng.integers(0, 2048, size=8000)
        estimate = cache.estimate_hit_rate_from_histogram(indices)
        cache.reset()
        replay = cache.replay(indices, limit=None)
        assert abs(estimate - replay) < 0.15

    def test_empty_stream(self):
        cache = TextureCacheModel()
        assert cache.estimate_hit_rate_from_histogram(np.array([])) == 0.0
        assert cache.hit_rate == 0.0
