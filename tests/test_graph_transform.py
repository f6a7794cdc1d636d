"""Tests of the Fig. 1 graph transformation (Conv2D -> AxConv2D + Min/Max)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import shared_pipeline
from repro.errors import ConfigurationError, GraphError
from repro.graph import (
    Executor,
    Graph,
    approximate_graph,
    approximate_graph_layerwise,
    freeze_ranges,
)
from repro.graph.ops import (
    AxConv2D,
    BiasAdd,
    Constant,
    Conv2D,
    Placeholder,
    ReLU,
)
from repro.graph.transform import RANGE_MARGIN
from repro.lut import LookupTable
from repro.models import build_simple_cnn
from repro.multipliers import ExactMultiplier, library
from repro.quantization import UNSIGNED_8BIT, IntegerRange


def op_counts(graph, *op_types):
    """Node count of each named op type, zero for absent ones."""
    histogram = graph.op_type_histogram()
    return {t: histogram.get(t, 0) for t in op_types}


def build_two_layer_graph(rng):
    """Small two-convolution graph used throughout these tests."""
    g = Graph("two_conv")
    x = Placeholder(g, (None, 8, 8, 3), name="input")
    w1 = Constant(g, rng.normal(size=(3, 3, 3, 4)), name="w1")
    w2 = Constant(g, rng.normal(size=(3, 3, 4, 5)), name="w2")
    b1 = Constant(g, rng.normal(size=(4,)), name="b1")
    conv1 = Conv2D(g, x, w1, name="conv1")
    act1 = ReLU(g, BiasAdd(g, conv1, b1, name="bias1"), name="relu1")
    conv2 = Conv2D(g, act1, w2, strides=(2, 2), name="conv2")
    out = ReLU(g, conv2, name="out")
    return g, x, out


def assert_quantises_to_table_range(ax, rng):
    """Both operands of ``ax``'s convolution quantise to its table's operand
    range, through the node's own pipeline and through a shared one."""
    lut = ax.pipeline.multiplier
    expected = IntegerRange.for_bits(lut.bit_width, signed=lut.signed)
    inputs = rng.normal(size=(1, 6, 6, 3))
    filters = rng.normal(size=(3, 3, 3, 2))
    for prepared in (ax.pipeline.prepare(inputs, filters),
                     shared_pipeline().prepare(inputs, filters, lut)):
        assert prepared.input_q.qrange == expected
        assert prepared.filter_q.qrange == expected


class TestApproximateGraph:
    def test_structure_matches_fig1(self, rng):
        g, x, out = build_two_layer_graph(rng)
        report = approximate_graph(g, ExactMultiplier(8, signed=True))
        assert report.converted_layers == 2
        assert report.inserted_range_nodes == 8
        counts = op_counts(g, "Conv2D", "AxConv2D", "ReduceMin", "ReduceMax")
        assert counts == {"Conv2D": 0, "AxConv2D": 2,
                          "ReduceMin": 4, "ReduceMax": 4}

    def test_axconv_inputs_are_data_filters_and_ranges(self, rng):
        g, x, out = build_two_layer_graph(rng)
        approximate_graph(g, ExactMultiplier(8, signed=True))
        ax = g.nodes_by_type("AxConv2D")[0]
        assert len(ax.inputs) == 6
        assert ax.inputs[2].op_type == "ReduceMin"
        assert ax.inputs[3].op_type == "ReduceMax"
        # The range nodes observe the same tensors the AxConv2D consumes.
        assert ax.inputs[2].inputs[0] is ax.inputs[0]
        assert ax.inputs[4].inputs[0] is ax.inputs[1]

    def test_exact_multiplier_preserves_output_within_quantisation(self, rng):
        g, x, out = build_two_layer_graph(rng)
        batch = rng.normal(size=(2, 8, 8, 3))
        reference = Executor(g).run(out, {x: batch})
        approximate_graph(g, ExactMultiplier(8, signed=True))
        approx = Executor(g).run(out, {x: batch})
        assert approx.shape == reference.shape
        scale = np.abs(reference).max()
        assert np.max(np.abs(approx - reference)) < 0.1 * scale

    def test_conv_attributes_preserved(self, rng):
        g, x, out = build_two_layer_graph(rng)
        approximate_graph(g, ExactMultiplier(8, signed=True))
        strided = [n for n in g.nodes_by_type("AxConv2D")
                   if n.name.startswith("conv2")]
        assert strided and strided[0].strides == (2, 2)

    def test_layer_filter_keeps_selected_layers_accurate(self, rng):
        g, x, out = build_two_layer_graph(rng)
        report = approximate_graph(
            g, ExactMultiplier(8, signed=True),
            layer_filter=lambda conv: conv.name != "conv1")
        assert report.converted_layers == 1
        assert report.skipped == ["conv1"]
        counts = op_counts(g, "Conv2D", "AxConv2D")
        assert counts == {"Conv2D": 1, "AxConv2D": 1}

    def test_accepts_lookup_table_directly(self, rng):
        g, x, out = build_two_layer_graph(rng)
        lut = LookupTable.from_multiplier(library.create("mul8s_mitchell"))
        report = approximate_graph(g, lut)
        assert report.lut_name == "mul8s_mitchell"

    def test_unsigned_multiplier_uses_unsigned_range(self, rng):
        g, x, out = build_two_layer_graph(rng)
        approximate_graph(g, library.create("mul8u_drum4"))
        ax = g.nodes_by_type("AxConv2D")[0]
        prepared = ax.pipeline.prepare(rng.normal(size=(1, 8, 8, 3)),
                                       rng.normal(size=(3, 3, 3, 4)))
        assert prepared.input_q.qrange == UNSIGNED_8BIT
        assert prepared.filter_q.qrange == UNSIGNED_8BIT

    def test_default_range_follows_the_table_width(self, rng):
        """A 4-bit table quantises to its own range ([-8, 7] or [0, 15]),
        not to 8 bits, so the transformed graph runs."""
        for bits in (4, 8):
            for signed in (True, False):
                model = build_simple_cnn(input_size=8)
                approximate_graph(model.graph,
                                  ExactMultiplier(bits, signed=signed))
                for ax in model.graph.nodes_by_type("AxConv2D"):
                    assert_quantises_to_table_range(ax, rng)
                logits = Executor(model.graph).run(
                    model.logits,
                    {model.input_node: rng.normal(size=(2, 8, 8, 3))})
                assert logits.shape == (2, model.num_classes)
                assert np.all(np.isfinite(logits))

    def test_layerwise_range_follows_the_table_width(self, rng, monkeypatch):
        # Choosing a kernel factors the table, which at 12 bits (2**24
        # entries) costs ~0.7 GB; the quantised range does not depend on it.
        monkeypatch.setattr("repro.backends.cache.choose_gemm_kernel",
                            lambda lut, depth: "rowgather")
        n = 1 << 12
        for signed in (True, False):
            operands = np.arange(n, dtype=np.int32)
            if signed:
                operands[n // 2:] -= n           # bit pattern -> signed value
            lut = LookupTable(np.multiply.outer(operands, operands),
                              bit_width=12, signed=signed, name="mul12_exact")
            model = build_simple_cnn(input_size=8)
            approximate_graph_layerwise(model.graph, {"conv1": lut})
            (ax,) = model.graph.nodes_by_type("AxConv2D")
            assert_quantises_to_table_range(ax, rng)

    def test_invalid_multiplier_argument(self, rng):
        g, x, out = build_two_layer_graph(rng)
        with pytest.raises(GraphError):
            approximate_graph(g, "not a multiplier")

    def test_transform_is_idempotent_on_axconv(self, rng):
        g, x, out = build_two_layer_graph(rng)
        approximate_graph(g, ExactMultiplier(8, signed=True))
        report = approximate_graph(g, ExactMultiplier(8, signed=True))
        # No Conv2D nodes remain, so a second pass converts nothing.
        assert report.converted_layers == 0

    def test_report_summary_text(self, rng):
        g, x, out = build_two_layer_graph(rng)
        report = approximate_graph(g, ExactMultiplier(8, signed=True))
        assert "2 Conv2D" in report.summary()


class TestFreezeRanges:
    def test_frozen_ranges_make_samples_batch_invariant(self, rng):
        g = Graph("one_conv")
        x = Placeholder(g, (None, 6, 6, 2), name="input")
        filters = rng.normal(size=(3, 3, 2, 3))
        Conv2D(g, x, Constant(g, filters, name="w"), name="conv")
        approximate_graph(g, library.create("mul8s_mitchell"))
        (ax,) = g.nodes_by_type(AxConv2D.op_type)
        calibration = rng.normal(size=(4, 6, 6, 2))

        assert freeze_ranges(g, {x: calibration}) == 4
        assert op_counts(g, "ReduceMin", "ReduceMax") == {
            "ReduceMin": 0, "ReduceMax": 0}
        in_min, in_max, f_min, f_max = (
            float(node.value) for node in ax.inputs[2:6])
        low, high = float(calibration.min()), float(calibration.max())
        widen = RANGE_MARGIN * (high - low)
        assert (in_min, in_max) == (low - widen, high + widen)
        assert (f_min, f_max) == (filters.min(), filters.max())

        sample = 0.5 * calibration[:1]
        outlier = 10.0 * calibration[1:2]
        assert outlier.max() > in_max
        alone = Executor(g).run(ax, {x: sample})
        batched = Executor(g).run(ax, {x: np.concatenate([sample, outlier])})
        np.testing.assert_array_equal(batched[:1], alone)


class TestAxConv2DNode:
    def test_requires_lookup_table(self, rng):
        g = Graph()
        x = Placeholder(g, (None, 4, 4, 1))
        w = Constant(g, rng.normal(size=(3, 3, 1, 2)))
        mins = Constant(g, -1.0)
        maxs = Constant(g, 1.0)
        with pytest.raises(ConfigurationError):
            AxConv2D(g, x, w, mins, maxs, mins, maxs, lut="not a lut")

