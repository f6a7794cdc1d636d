"""Differential fuzzing of the three engines against the direct loop.

Every engine of :mod:`repro.backends` -- ``numpy``, ``cpusim`` and
``gpusim`` -- runs through :class:`~repro.backends.InferencePipeline` on
randomly drawn geometry and tables, and must equal
:func:`repro.conv.reference.approx_conv2d_direct` bit for bit, given the
same data-derived coefficients.  Some draws hold one image more than
:data:`~repro.conv.approx_conv2d.CHUNK_SIZE`, so they run as two chunks.
The ``numpy`` pipeline runs twice per draw:
for a table without exact factors, the second call finds the filter bank
cached and runs ``rowgather`` on its prebuilt row table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import FilterBankCache, InferencePipeline, LUTCache
from repro.conv import CHUNK_SIZE, approx_conv2d_direct
from repro.conv.padding import resolve_geometry
from repro.errors import ShapeError
from repro.quantization import IntegerRange, compute_coeffs_from_tensor

#: Signed and unsigned tables, with (exact, trunc2, drum4) and without
#: (mitchell, loa4) the exact low-rank factors that select ``factored``.
TABLES = ["mul8s_exact", "mul8u_trunc2", "mul8s_drum4", "mul8s_mitchell",
          "mul8u_loa4"]

LUTS = LUTCache()


@st.composite
def _draws(draw):
    """Batch 1-3 at H/W 1-7, or one in five draws ``CHUNK_SIZE + 1`` at
    H/W 1-3; kernel 1-3, stride/dilation 1-2, SAME/VALID, C 1-3, F 1-4 and
    one table of :data:`TABLES`."""
    if draw(st.integers(0, 4)) == 0:
        batch, side = CHUNK_SIZE + 1, 3
    else:
        batch, side = draw(st.integers(1, 3)), 7
    shape = (batch, draw(st.integers(1, side)), draw(st.integers(1, side)),
             draw(st.integers(1, 3)))
    filter_shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                    shape[3], draw(st.integers(1, 4)))
    geometry = dict(
        strides=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
        dilations=(draw(st.integers(1, 2)), draw(st.integers(1, 2))),
        padding=draw(st.sampled_from(["SAME", "VALID"])),
    )
    return (shape, filter_shape, geometry, draw(st.sampled_from(TABLES)),
            draw(st.integers(0, 2**31 - 1)))


def _pipeline(engine: str) -> InferencePipeline:
    return InferencePipeline(engine, lut_cache=LUTS,
                             filter_cache=FilterBankCache())


def _fits(shape, filter_shape, geometry) -> bool:
    try:
        resolve_geometry(shape[1], shape[2], filter_shape[0], filter_shape[1],
                         **geometry)
    except ShapeError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(case=_draws())
def test_engines_match_direct_loop(case):
    shape, filter_shape, geometry, table, seed = case
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=shape)
    filters = rng.normal(size=filter_shape)
    lut = LUTS.resolve(table)
    engines = ["numpy", "numpy", "cpusim", "gpusim"]
    pipelines = {name: _pipeline(name) for name in set(engines)}

    if not _fits(shape, filter_shape, geometry):
        for name in engines:
            with pytest.raises(ShapeError):
                pipelines[name].run(inputs, filters, lut, **geometry)
        return

    qrange = IntegerRange.for_bits(lut.bit_width, signed=lut.signed)
    expected = approx_conv2d_direct(
        inputs, filters, lut,
        compute_coeffs_from_tensor(inputs, qrange=qrange),
        compute_coeffs_from_tensor(filters, qrange=qrange),
        **geometry,
    )
    for name in engines:
        output = pipelines[name].run(inputs, filters, lut, **geometry).output
        assert np.array_equal(output, expected), (name, table)
