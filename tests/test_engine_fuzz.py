"""Differential fuzzing of the three engines against the direct loop.

The vectorised engine of :class:`~repro.backends.InferencePipeline`
(``numpy``) and the two reference engines, run chunk by chunk over its
prepared convolution (``cpusim``, the direct loop, and ``gpusim``, the
simulated GPU; see ``conv_reference.reference_outputs``), get randomly
drawn geometry and tables, and each must equal
:func:`repro.conv.reference.approx_conv2d_direct` over the whole batch bit
for bit, given the same data-derived coefficients.  Some draws hold one
image more than :data:`~repro.conv.approx_conv2d.CHUNK_SIZE`, so they run as
two chunks.  The pipeline runs twice per draw:
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
from repro.gpusim import GPUDevice, run_gpusim_chunk
from repro.quantization import IntegerRange, compute_coeffs_from_tensor

from conv_reference import reference_outputs

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
    pipeline = InferencePipeline(lut_cache=LUTS, filter_cache=FilterBankCache())
    qrange = IntegerRange.for_bits(lut.bit_width, signed=lut.signed)
    input_q = compute_coeffs_from_tensor(inputs, qrange=qrange)
    filter_q = compute_coeffs_from_tensor(filters, qrange=qrange)

    if not _fits(shape, filter_shape, geometry):
        with pytest.raises(ShapeError):
            pipeline.run(inputs, filters, lut, **geometry)
        with pytest.raises(ShapeError):
            approx_conv2d_direct(inputs, filters, lut, input_q, filter_q,
                                 **geometry)
        # SAME at stride 1 always fits, so only the chunk's geometry fails.
        prepared = pipeline.prepare(inputs, filters, lut)
        with pytest.raises(ShapeError):
            run_gpusim_chunk(GPUDevice(), inputs, prepared, **geometry)
        return

    expected = approx_conv2d_direct(inputs, filters, lut, input_q, filter_q,
                                    **geometry)
    outputs = [("numpy", pipeline.run(inputs, filters, lut, **geometry))
               for _ in range(2)]
    outputs += reference_outputs(
        inputs, filters, pipeline.prepare(inputs, filters, lut, **geometry),
        GPUDevice(), **geometry).items()
    for name, output in outputs:
        assert np.array_equal(output, expected), (name, table)
