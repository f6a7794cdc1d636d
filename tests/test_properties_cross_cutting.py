"""Cross-cutting property-based tests tying several subsystems together."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import DEFAULT_LUT_CACHE, emulate_conv2d
from repro.conv import (conv2d_float, flatten_filters, im2col_quantized,
                        lut_matmul)
from repro.conv.gemm import FactoredFilters, RowTable
from repro.graph import Executor, Graph, approximate_graph, freeze_ranges
from repro.graph.ops import Constant, Conv2D, Placeholder, ReLU
from repro.lut import LookupTable
from repro.multipliers import (
    BoundedNoiseMultiplier,
    TruncatedProductMultiplier,
    error_report,
    library,
)
from repro.quantization import compute_coeffs_from_tensor


@settings(max_examples=30, deadline=None)
@given(max_error=st.integers(min_value=0, max_value=200),
       seed=st.integers(min_value=0, max_value=99))
def test_lut_matmul_error_bounded_by_wce_times_depth(max_error, seed):
    """An integer LUT dot product can be wrong by at most WCE per term."""
    multiplier = BoundedNoiseMultiplier(8, max_error=max_error, seed=seed)
    lut = LookupTable.from_multiplier(multiplier)
    wce = error_report(multiplier).worst_case_error
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, size=(4, 12))
    b = rng.integers(0, 256, size=(12, 3))
    approx = lut_matmul(a, b, lut)
    exact = a @ b
    assert np.max(np.abs(approx - exact)) <= wce * a.shape[1]


@settings(max_examples=20, deadline=None)
@given(dropped=st.integers(min_value=0, max_value=8),
       seed=st.integers(min_value=0, max_value=50))
def test_conv_error_scales_with_multiplier_error(dropped, seed):
    """A much coarser product truncation always increases the convolution error.

    Mild truncation levels can swap order with each other because their error
    is comparable to the 8-bit quantisation noise, so the property compares
    every level against a clearly coarser reference (12 dropped bits).
    """
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(1, 5, 5, 2))
    filters = rng.normal(size=(3, 3, 2, 2))
    accurate = conv2d_float(inputs, filters)

    def mean_error(bits):
        lut = LookupTable.from_multiplier(
            TruncatedProductMultiplier(8, dropped_bits=bits, signed=True))
        out = emulate_conv2d(inputs, filters, lut)
        return float(np.abs(out - accurate).mean())

    assert mean_error(dropped) <= mean_error(12) + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000),
       layers=st.integers(min_value=1, max_value=3))
def test_transform_preserves_validity_and_shapes_on_random_chains(seed, layers):
    """Fig. 1 applied to random conv chains keeps the graph valid and the
    output shape unchanged."""
    rng = np.random.default_rng(seed)
    g = Graph()
    x = Placeholder(g, (None, 8, 8, 2), name="in")
    node = x
    channels = 2
    for i in range(layers):
        out_channels = int(rng.integers(1, 5))
        w = Constant(g, rng.normal(size=(3, 3, channels, out_channels)),
                     name=f"w{i}")
        node = ReLU(g, Conv2D(g, node, w, name=f"conv{i}"), name=f"relu{i}")
        channels = out_channels
    batch = rng.normal(size=(1, 8, 8, 2))
    reference = Executor(g).run(node, {x: batch})

    report = approximate_graph(g, library.create("mul8s_exact"))
    assert report.converted_layers == layers
    g.validate()
    approx = Executor(g).run(node, {x: batch})
    assert approx.shape == reference.shape
    assert np.all(np.isfinite(approx))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_quantized_conv_commutes_with_scaling(seed):
    """Scaling inputs by a positive constant scales the emulated output.

    The affine quantisation derives its range per batch, so a global positive
    scaling of the input tensor must (up to quantisation noise) simply scale
    the approximate convolution output -- a useful sanity property of the
    range handling in Algorithm 1.
    """
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.5, 4.0))
    inputs = rng.normal(size=(1, 5, 5, 2))
    filters = rng.normal(size=(3, 3, 2, 2))
    lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
    base = emulate_conv2d(inputs, filters, lut)
    scaled = emulate_conv2d(inputs * scale, filters, lut)
    tolerance = 0.1 * np.abs(base * scale).max() + 1e-6
    assert np.max(np.abs(scaled - base * scale)) < tolerance


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_quant_params_from_conv_inputs_always_cover_zero(seed):
    """Whatever the activation statistics, zero stays exactly representable."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(rng.uniform(-10, 0), rng.uniform(0.1, 10), size=50)
    params = compute_coeffs_from_tensor(data)
    assert params.dequantize(params.zero_point) == 0.0
    lo, hi = params.dequantize([params.qrange.qmin, params.qrange.qmax])
    assert lo <= float(data.min()) + params.scale
    assert hi >= float(data.max()) - params.scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       batch=st.integers(min_value=1, max_value=3),
       side=st.integers(min_value=3, max_value=7),
       channels=st.integers(min_value=1, max_value=3),
       count=st.integers(min_value=1, max_value=4),
       kernel=st.sampled_from([1, 3]),
       stride=st.sampled_from([1, 2]),
       padding=st.sampled_from(["SAME", "VALID"]),
       table=st.sampled_from(["mul8s_exact", "mul8s_mitchell",
                              "mul8u_drum4"]))
def test_conv_entry_points_leave_their_operands_unchanged(
        seed, batch, side, channels, count, kernel, stride, padding, table):
    """Every public conv entry point reads its operands and never writes
    them: ``im2col_quantized``; ``lut_matmul`` on a plain filter matrix, a
    ``RowTable`` and a ``FactoredFilters``; ``emulate_conv2d``; and a bound
    ``AxConv2D`` (frozen ranges, run twice)."""
    kept = {}   # name -> (operand, its copy before any entry point ran)

    def keep(name, array):
        kept[name] = (array, array.copy())
        return array

    rng = np.random.default_rng(seed)
    inputs = keep("inputs", rng.normal(size=(batch, side, side, channels)))
    filters = keep("filters", rng.normal(size=(kernel, kernel, channels, count)))
    geometry = dict(strides=(stride, stride), padding=padding)
    lut = DEFAULT_LUT_CACHE.resolve(table)
    # A table with exact factors and the same operand range.
    factored_lut = DEFAULT_LUT_CACHE.resolve(
        "mul8s_exact" if lut.signed else "mul8u_trunc2")

    input_q = compute_coeffs_from_tensor(inputs, qrange=lut.qrange)
    patches, _, _ = im2col_quantized(inputs, kernel, kernel, input_q,
                                     **geometry)
    keep("patches", patches)
    flat = keep("flat", flatten_filters(compute_coeffs_from_tensor(
        filters, qrange=lut.qrange).quantize(filters)))
    row_table = RowTable(flat, lut)
    factored = FactoredFilters(flat, factored_lut)
    keep("rows", row_table.rows)
    for index, (_, rhs) in enumerate(factored.terms):
        keep(f"factored term {index}", rhs)
    lut_matmul(patches, flat, lut)
    lut_matmul(patches, row_table, lut)
    lut_matmul(patches, factored, factored_lut)
    emulate_conv2d(inputs, filters, lut, **geometry)

    g = Graph("one_conv")
    x = Placeholder(g, (None, side, side, channels), name="input")
    Conv2D(g, x, Constant(g, filters, name="w"), name="conv", **geometry)
    approximate_graph(g, lut)
    freeze_ranges(g, {x: inputs})
    (ax,) = g.nodes_by_type("AxConv2D")
    for _ in range(2):
        Executor(g).run(ax, {x: inputs})
    assert ax.pipeline.filter_cache.bound(ax) is not None

    for name, (array, copy) in kept.items():
        np.testing.assert_array_equal(array, copy, err_msg=name)
