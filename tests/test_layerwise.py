"""Tests of the ALWANN-style layer-wise (heterogeneous) approximation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphError
from repro.graph import (
    Executor,
    approximate_graph_layerwise,
)
from repro.models import build_simple_cnn
from repro.multipliers import library
from repro.lut import LookupTable


class TestLayerwiseApproximation:
    def test_partial_assignment_keeps_other_layers_accurate(self):
        model = build_simple_cnn(seed=0)
        report = approximate_graph_layerwise(
            model.graph, {"conv1": "mul8s_mitchell"})
        assert report.converted_layers == 1
        assert report.per_layer == {"conv1": "mul8s_mitchell"}
        assert sorted(report.accurate_layers) == ["conv2", "conv3"]
        histogram = model.graph.op_type_histogram()
        assert histogram["AxConv2D"] == 1
        assert histogram["Conv2D"] == 2

    def test_heterogeneous_assignment(self):
        model = build_simple_cnn(seed=0)
        report = approximate_graph_layerwise(model.graph, {
            "conv1": "mul8s_exact",
            "conv2": "mul8s_drum4",
            "conv3": library.create("mul8s_mitchell"),
        })
        assert report.converted_layers == 3
        assert set(report.per_layer.values()) == {
            "mul8s_exact", "mul8s_drum4", "mul8s_mitchell"}
        assert report.accurate_layers == []
        assert "3 multiplier(s)" in report.summary()

    def test_unknown_layer_rejected(self):
        model = build_simple_cnn(seed=0)
        with pytest.raises(GraphError):
            approximate_graph_layerwise(model.graph, {"does_not_exist": "mul8s_exact"})

    def test_invalid_multiplier_value_rejected(self):
        model = build_simple_cnn(seed=0)
        with pytest.raises(ConfigurationError):
            approximate_graph_layerwise(model.graph, {"conv1": 42})

    def test_same_named_multipliers_keep_distinct_tables(self):
        """Grouping is by LUT instance, not display name.

        Two behavioural models can share a default name while holding
        different tables; each layer must still receive its own multiplier
        (regression: name-keyed grouping silently merged them).
        """
        import numpy as np
        from repro.multipliers import ExactMultiplier, TableMultiplier
        from repro.graph.ops.conv import AxConv2D

        exact_table = LookupTable.from_multiplier(
            ExactMultiplier(8, signed=True)).dense()
        zero_table = np.zeros_like(exact_table)
        ta = TableMultiplier(exact_table, bit_width=8, signed=True)
        tb = TableMultiplier(zero_table, bit_width=8, signed=True)
        assert ta.name == tb.name  # the hazard under test

        model = build_simple_cnn(seed=0)
        approximate_graph_layerwise(model.graph, {"conv1": ta, "conv2": tb})
        luts = {node.name: node.pipeline.multiplier
                for node in model.graph.nodes_by_type(AxConv2D.op_type)}
        assert luts["conv1/approx"].lookup(3, 5) == 15
        assert luts["conv2/approx"].lookup(3, 5) == 0

    def test_accepts_lookup_table_values(self):
        model = build_simple_cnn(seed=0)
        lut = LookupTable.from_multiplier(library.create("mul8s_trunc2"))
        report = approximate_graph_layerwise(model.graph, {"conv2": lut})
        assert report.per_layer == {"conv2": "mul8s_trunc2"}

    def test_transformed_graph_still_executes(self, rng):
        model = build_simple_cnn(seed=0)
        batch = rng.normal(size=(2, 32, 32, 3))
        reference = Executor(model.graph).run(model.logits,
                                              {model.input_node: batch})
        approximate_graph_layerwise(model.graph, dict.fromkeys(
            ("conv1", "conv2", "conv3"), "mul8s_exact"))
        approx = Executor(model.graph).run(model.logits,
                                           {model.input_node: batch})
        assert approx.shape == reference.shape
        # Exact multiplier everywhere: only quantisation error remains.
        scale = np.abs(reference).max()
        assert np.max(np.abs(approx - reference)) < 0.15 * scale

    def test_layerwise_quality_between_uniform_extremes(self):
        """Approximating only one layer hurts less than approximating all."""
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(2, 32, 32, 3))

        def logits_with(assignment):
            model = build_simple_cnn(seed=0)
            reference = Executor(model.graph).run(model.logits,
                                                  {model.input_node: batch})
            approximate_graph_layerwise(model.graph, assignment)
            approx = Executor(model.graph).run(model.logits,
                                               {model.input_node: batch})
            return float(np.abs(approx - reference).mean())

        one_layer = logits_with({"conv1": "mul8s_trunc2"})
        all_layers = logits_with(dict.fromkeys(
            ("conv1", "conv2", "conv3"), "mul8s_trunc2"))
        assert one_layer < all_layers
