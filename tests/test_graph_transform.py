"""Tests of the Fig. 1 graph transformation (Conv2D -> AxConv2D + Min/Max)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphError
from repro.graph import (
    Executor,
    Graph,
    approximate_graph,
    count_op_types,
    remove_dead_nodes,
    restore_accurate_graph,
)
from repro.graph.ops import (
    AxConv2D,
    BiasAdd,
    Constant,
    Conv2D,
    Placeholder,
    ReLU,
)
from repro.lut import LookupTable
from repro.multipliers import ExactMultiplier, library
from repro.quantization import SIGNED_8BIT, UNSIGNED_8BIT


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


class TestApproximateGraph:
    def test_structure_matches_fig1(self, rng):
        g, x, out = build_two_layer_graph(rng)
        report = approximate_graph(g, ExactMultiplier(8, signed=True))
        assert report.converted_layers == 2
        assert report.inserted_range_nodes == 8
        counts = count_op_types(g, "Conv2D", "AxConv2D", "ReduceMin", "ReduceMax")
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
        counts = count_op_types(g, "Conv2D", "AxConv2D")
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
        assert ax.qrange == UNSIGNED_8BIT

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


class TestRestoreAccurateGraph:
    def test_round_trip_restores_structure_and_values(self, rng):
        g, x, out = build_two_layer_graph(rng)
        batch = rng.normal(size=(1, 8, 8, 3))
        reference = Executor(g).run(out, {x: batch})
        approximate_graph(g, ExactMultiplier(8, signed=True))
        restored = restore_accurate_graph(g)
        assert restored == 2
        counts = count_op_types(g, "Conv2D", "AxConv2D", "ReduceMin", "ReduceMax")
        assert counts == {"Conv2D": 2, "AxConv2D": 0,
                          "ReduceMin": 0, "ReduceMax": 0}
        np.testing.assert_allclose(Executor(g).run(out, {x: batch}), reference)


class TestAxConv2DNode:
    def test_requires_lookup_table(self, rng):
        g = Graph()
        x = Placeholder(g, (None, 4, 4, 1))
        w = Constant(g, rng.normal(size=(3, 3, 1, 2)))
        mins = Constant(g, -1.0)
        maxs = Constant(g, 1.0)
        with pytest.raises(ConfigurationError):
            AxConv2D(g, x, w, mins, maxs, mins, maxs, lut="not a lut")

    def test_signedness_mismatch_rejected(self, rng):
        g = Graph()
        x = Placeholder(g, (None, 4, 4, 1))
        w = Constant(g, rng.normal(size=(3, 3, 1, 2)))
        mins = Constant(g, -1.0)
        maxs = Constant(g, 1.0)
        lut = LookupTable.from_multiplier(library.create("mul8u_exact"))
        with pytest.raises(ConfigurationError):
            AxConv2D(g, x, w, mins, maxs, mins, maxs, lut=lut,
                     qrange=SIGNED_8BIT)


class TestDeadNodeRemoval:
    def test_dead_chain_removed(self):
        g = Graph()
        a = Constant(g, 1.0)
        b = Constant(g, 2.0)
        keep = Constant(g, 3.0)
        from repro.graph.ops import Add
        dead = Add(g, a, b)
        removed = remove_dead_nodes(g, keep=[keep])
        assert removed == 3
        assert len(g) == 1
