"""Tests of the multiplier base classes and exact references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BitWidthError, ConfigurationError
from repro.multipliers import ExactMultiplier, Multiplier, TableMultiplier


class TestExactMultiplier:
    def test_scalar_product_unsigned(self):
        m = ExactMultiplier(8, signed=False)
        assert m.multiply(200, 100) == 20000

    def test_scalar_product_signed(self):
        m = ExactMultiplier(8, signed=True)
        assert m.multiply(-128, -128) == 16384
        assert m.multiply(-128, 127) == -16256
        assert m.multiply(0, -77) == 0

    def test_array_product(self):
        m = ExactMultiplier(8, signed=True)
        a = np.array([-128, -1, 0, 1, 127])
        b = np.array([127, -1, 5, -128, 127])
        np.testing.assert_array_equal(m.multiply(a, b), a.astype(np.int64) * b)

    def test_operand_ranges(self):
        unsigned = ExactMultiplier(8, signed=False)
        signed = ExactMultiplier(8, signed=True)
        assert (unsigned.operand_min, unsigned.operand_max) == (0, 255)
        assert (signed.operand_min, signed.operand_max) == (-128, 127)

    def test_out_of_range_operand_rejected(self):
        m = ExactMultiplier(8, signed=False)
        with pytest.raises(ConfigurationError):
            m.multiply(256, 1)
        with pytest.raises(ConfigurationError):
            m.multiply(1, -1)

    def test_signed_out_of_range_rejected(self):
        m = ExactMultiplier(8, signed=True)
        with pytest.raises(ConfigurationError):
            m.multiply(128, 0)

    def test_unsupported_bit_width(self):
        with pytest.raises(BitWidthError):
            ExactMultiplier(13)

    def test_truth_table_matches_products_unsigned(self):
        m = ExactMultiplier(4, signed=False)
        table = m.truth_table()
        assert table.shape == (16, 16)
        for a in range(16):
            for b in range(16):
                assert table[a, b] == a * b

    def test_truth_table_matches_products_signed(self):
        m = ExactMultiplier(4, signed=True)
        table = m.truth_table()
        values = m.operand_values()
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert table[i, j] == a * b

    def test_operand_values_bit_pattern_order(self):
        m = ExactMultiplier(4, signed=True)
        values = m.operand_values()
        # Index 0b1000 (8) must hold -8 in two's complement.
        assert values[8] == -8
        assert values[0] == 0
        assert values[7] == 7
        assert values[15] == -1

    def test_error_on_is_zero_for_exact(self):
        m = ExactMultiplier(6, signed=False)
        a = np.arange(0, 64)
        np.testing.assert_array_equal(m.multiply(a, a[::-1]), a * a[::-1])

    def test_default_name_and_repr(self):
        m = ExactMultiplier(8, signed=True)
        assert "8s" in m.name


class TestTableMultiplier:
    def test_round_trip_from_exact(self):
        base = ExactMultiplier(4, signed=True)
        table = TableMultiplier(base.truth_table(), bit_width=4, signed=True)
        values = base.operand_values()
        a, b = np.meshgrid(values, values, indexing="ij")
        np.testing.assert_array_equal(table.multiply(a, b), base.multiply(a, b))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            TableMultiplier(np.zeros((16, 8)), bit_width=4)

    def test_scalar_lookup(self):
        base = ExactMultiplier(4, signed=False)
        table = TableMultiplier(base.truth_table(), bit_width=4, signed=False)
        assert table.multiply(15, 15) == 225

    def test_truth_table_is_copy(self):
        base = ExactMultiplier(4, signed=False)
        table = TableMultiplier(base.truth_table(), bit_width=4, signed=False)
        t = table.truth_table()
        t[0, 0] = 999
        assert table.multiply(0, 0) == 0


@settings(max_examples=200, deadline=None)
@given(a=st.integers(min_value=-128, max_value=127),
       b=st.integers(min_value=-128, max_value=127))
def test_exact_multiplier_matches_python_product(a, b):
    m = ExactMultiplier(8, signed=True)
    assert m.multiply(a, b) == a * b


@settings(max_examples=100, deadline=None)
@given(a=st.integers(min_value=0, max_value=255),
       b=st.integers(min_value=0, max_value=255))
def test_exact_truth_table_entry_matches_multiply(a, b):
    m = ExactMultiplier(8, signed=False)
    table = m.truth_table()
    assert table[a, b] == m.multiply(a, b)


def test_custom_multiplier_subclass_uses_sign_magnitude():
    class PlusOneMagnitude(Multiplier):
        """Test multiplier adding one to the magnitude product."""

        def _multiply_unsigned(self, a, b):
            return a * b + 1

    m = PlusOneMagnitude(8, signed=True)
    # sign(a)*sign(b) * (|a|*|b| + 1)
    assert m.multiply(-3, 5) == -(15 + 1)
    assert m.multiply(-3, -5) == 16
    assert m.multiply(0, 5) == 0  # sign() of zero kills the +1
