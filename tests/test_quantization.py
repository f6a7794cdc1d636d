"""Tests of the affine quantisation scheme (Eq. 1), rounding and ranges."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import QuantizationError
from conv_reference import fake_quantize
from repro.quantization import (
    IntegerRange,
    QuantParams,
    SIGNED_8BIT,
    UNSIGNED_8BIT,
    compute_coeffs,
    compute_coeffs_from_tensor,
)


class TestIntegerRange:
    def test_signed_unsigned_defaults(self):
        assert (SIGNED_8BIT.qmin, SIGNED_8BIT.qmax) == (-128, 127)
        assert (UNSIGNED_8BIT.qmin, UNSIGNED_8BIT.qmax) == (0, 255)
        assert SIGNED_8BIT.signed and not UNSIGNED_8BIT.signed
        assert SIGNED_8BIT.levels == 256

    def test_for_bits(self):
        r = IntegerRange.for_bits(4, signed=True)
        assert (r.qmin, r.qmax) == (-8, 7)

    def test_invalid_ranges(self):
        with pytest.raises(QuantizationError):
            IntegerRange(5, 5)
        with pytest.raises(QuantizationError):
            IntegerRange.for_bits(1)


class TestRounding:
    """``QuantParams.quantize`` rounds half away from zero."""

    def test_half_away_from_zero(self):
        q = QuantParams(1.0, 0, SIGNED_8BIT)
        vals = np.array([0.5, 1.5, -0.5, -1.5, 2.4, 2.5, -2.5])
        np.testing.assert_array_equal(q.quantize(vals), [1, 2, -1, -2, 2, 3, -3])

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=40),
        scale=st.floats(1e-3, 50.0),
        zero_point=st.integers(-128, 127),
    )
    # The quotient just below 0.5, which ``floor(|q| + 0.5)`` sends to 1.
    @example(values=[0.49999999999999994, -0.49999999999999994], scale=1.0,
             zero_point=0)
    def test_quantize_matches_int64_reference(self, values, scale, zero_point):
        """``quantize`` -- also into a narrow ``out`` -- gives what the
        integer evaluation ``clip(int64(round(r / alpha)) + beta)`` gives,
        with the quotient rounded exactly (:meth:`_exact`)."""
        q = QuantParams(scale, zero_point, SIGNED_8BIT)
        values = np.array(values)
        rounded = self._exact(values, scale)
        expected = np.clip(rounded + zero_point, -128, 127).astype(np.int64)
        out = q.quantize(values)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, expected)
        narrow = np.zeros(len(values) + 2, dtype=np.int8)
        q.quantize(values, out=narrow[1:-1])
        np.testing.assert_array_equal(narrow[1:-1], expected)
        assert narrow[0] == narrow[-1] == 0

    #: Quotients where rounding goes wrong easily: signed zeros, the float
    #: just below 0.5 (``+ 0.5`` rounds it up to 1.0), and integers above
    #: ``2**52``, where ``+ 0.5`` is itself a tie.
    EDGES = [0.0, -0.0, 0.49999999999999994, -0.49999999999999994, 0.5,
             -0.5, 2.0 ** 52 + 1, -(2.0 ** 52 + 1), 2.0 ** 53 - 1]

    @staticmethod
    def _exact(values, scale):
        """``clip(round(r / alpha))`` with the float64 quotient rounded half
        away from zero in exact rational arithmetic."""
        expected = []
        for quotient in np.asarray(values) / scale:
            magnitude = math.floor(abs(Fraction(float(quotient)))
                                   + Fraction(1, 2))
            expected.append(-magnitude if quotient < 0 else magnitude)
        return np.array(expected, dtype=object)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        scale=st.sampled_from([1.0, 0.25]) | st.floats(1e-3, 50.0),
        target=st.sampled_from([
            (np.int8, SIGNED_8BIT), (np.uint8, UNSIGNED_8BIT),
            (np.int16, IntegerRange.for_bits(16, signed=True))]),
    )
    def test_rounding_matches_exact_fractions(self, data, scale, target):
        """Half away from zero, exactly, on every float64 quotient: exact
        ``k + 0.5`` ties, the edge quotients above, and values clipped at
        both ends, into int64 and into each narrow ``out=`` dtype."""
        dtype, qrange = target
        zero_point = data.draw(st.integers(qrange.qmin, qrange.qmax))
        values = np.array(data.draw(st.lists(
            st.floats(-1e300, 1e300)
            | st.integers(-3 * qrange.qmax, 3 * qrange.qmax).map(
                lambda k: (k + 0.5) * scale)
            | st.sampled_from(self.EDGES).map(lambda q: q * scale),
            min_size=1, max_size=40)))
        q = QuantParams(scale, zero_point, qrange)
        rounded = self._exact(values, scale)
        expected = np.clip(rounded + zero_point, qrange.qmin,
                           qrange.qmax).astype(np.int64)
        np.testing.assert_array_equal(q.quantize(values), expected)
        narrow = np.zeros(len(values), dtype=dtype)
        assert q.quantize(values, out=narrow) is narrow
        np.testing.assert_array_equal(narrow, expected)

    def test_quantize_leaves_its_input(self):
        vals = np.array([0.5, -1.5, 2.25])
        QuantParams(0.25, 3, SIGNED_8BIT).quantize(vals)
        np.testing.assert_array_equal(vals, [0.5, -1.5, 2.25])


class TestComputeCoeffs:
    def test_zero_always_representable(self):
        params = compute_coeffs(0.5, 2.0, qrange=SIGNED_8BIT)
        assert params.dequantize(params.zero_point) == 0.0
        params = compute_coeffs(-3.0, -1.0, qrange=UNSIGNED_8BIT)
        assert params.dequantize(params.zero_point) == 0.0

    def test_symmetric_range_signed(self):
        params = compute_coeffs(-1.0, 1.0, qrange=SIGNED_8BIT)
        assert params.zero_point == 0
        assert params.scale == pytest.approx(2.0 / 255.0)

    def test_unsigned_positive_range(self):
        params = compute_coeffs(0.0, 10.0, qrange=UNSIGNED_8BIT)
        assert params.zero_point == 0
        assert params.scale == pytest.approx(10.0 / 255.0)

    def test_degenerate_range(self):
        params = compute_coeffs(0.0, 0.0)
        assert params.scale == 1.0
        assert params.quantize(np.zeros(3)).tolist() == [0, 0, 0]

    def test_subnormal_range_does_not_underflow(self):
        # A span so small that span / 255 underflows to 0.0 must fall back to
        # the degenerate path instead of dividing by a zero scale
        # (regression: hypothesis found values=[0.0, 5e-324]).
        params = compute_coeffs(0.0, 5e-324, qrange=UNSIGNED_8BIT)
        assert params.scale == 1.0
        q = params.quantize(np.array([0.0, 5e-324]))
        assert q.min() >= 0 and q.max() <= 255

    def test_invalid_ranges(self):
        with pytest.raises(QuantizationError):
            compute_coeffs(float("nan"), 1.0)
        with pytest.raises(QuantizationError):
            compute_coeffs(2.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(allow_nan=False, allow_infinity=False),
        hi=st.floats(allow_nan=False, allow_infinity=False),
        signed=st.booleans(),
    )
    def test_memo_equals_unmemoised(self, lo, hi, signed):
        from repro.quantization.affine import _compute_coeffs

        def outcome(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except QuantizationError as exc:   # e.g. a span overflowing to inf
                return type(exc)

        lo, hi = min(lo, hi), max(lo, hi)
        qrange = SIGNED_8BIT if signed else UNSIGNED_8BIT
        memoised = outcome(compute_coeffs, lo, hi, qrange=qrange)
        assert memoised == outcome(_compute_coeffs.__wrapped__,
                                   lo, hi, qrange)
        if isinstance(memoised, QuantParams):
            assert compute_coeffs(lo, hi, qrange=qrange) is memoised

    @pytest.mark.parametrize("lo,hi", [(float("nan"), 1.0), (0.0, float("inf")),
                                       (float("-inf"), 0.0), (2.0, 1.0)])
    def test_memo_still_raises(self, lo, hi):
        for _ in range(2):
            with pytest.raises(QuantizationError):
                compute_coeffs(lo, hi)

    def test_from_tensor(self, rng):
        data = rng.normal(size=(4, 4))
        params = compute_coeffs_from_tensor(data)
        assert params.scale > 0
        with pytest.raises(QuantizationError):
            compute_coeffs_from_tensor(np.array([]))
        with pytest.raises(QuantizationError):
            compute_coeffs_from_tensor(np.array([np.inf]))


class TestQuantParams:
    def test_quantize_clips_to_range(self):
        params = compute_coeffs(-1.0, 1.0, qrange=SIGNED_8BIT)
        out = params.quantize(np.array([-50.0, 50.0]))
        assert out.tolist() == [-128, 127]

    def test_quantize_rejects_nan(self):
        params = compute_coeffs(-1.0, 1.0)
        with pytest.raises(QuantizationError):
            params.quantize(np.array([np.nan]))

    def test_round_trip_error_bounded_by_half_step(self, rng):
        data = rng.uniform(-3.0, 5.0, size=1000)
        params = compute_coeffs(float(data.min()), float(data.max()))
        recovered = fake_quantize(params, data)
        assert np.max(np.abs(recovered - data)) <= params.scale / 2 + 1e-12

    def test_real_range_covers_input(self):
        params = compute_coeffs(-2.0, 6.0)
        lo, hi = params.dequantize([params.qrange.qmin, params.qrange.qmax])
        assert lo <= -2.0 + params.scale and hi >= 6.0 - params.scale

    def test_invalid_params_rejected(self):
        with pytest.raises(QuantizationError):
            QuantParams(scale=0.0, zero_point=0, qrange=SIGNED_8BIT)
        with pytest.raises(QuantizationError):
            QuantParams(scale=1.0, zero_point=300, qrange=SIGNED_8BIT)

    @settings(max_examples=100, deadline=None)
    @given(lo=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
           span=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False))
    def test_roundtrip_property(self, lo, span):
        hi = lo + span
        params = compute_coeffs(lo, hi, qrange=SIGNED_8BIT)
        values = np.linspace(min(lo, 0.0), max(hi, 0.0), 17)
        recovered = fake_quantize(params, values)
        assert np.max(np.abs(recovered - values)) <= params.scale * 0.5 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(min_value=-100, max_value=100,
                                     allow_nan=False, allow_infinity=False),
                           min_size=2, max_size=40))
    def test_quantized_values_stay_in_range(self, values):
        data = np.asarray(values)
        params = compute_coeffs_from_tensor(data, qrange=UNSIGNED_8BIT)
        q = params.quantize(data)
        assert q.min() >= 0 and q.max() <= 255
