"""Tests of the inference runner plus failure-injection across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import emulate_conv2d
from repro.datasets import generate_cifar_like
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    GraphError,
    QuantizationError,
    ShapeError,
    TFApproxError,
    TruthTableError,
)
from repro.evaluation import compare_accurate_vs_approximate, run_inference
from repro.graph import Executor, Graph
from repro.graph.ops import Add, Constant, Identity, Placeholder
from repro.lut import LookupTable
from repro.models import build_simple_cnn
from repro.multipliers import library
from repro.quantization import compute_coeffs


class TestInferenceRunner:
    def test_run_inference_collects_all_batches(self):
        dataset = generate_cifar_like(10, seed=2)
        model = build_simple_cnn(seed=0)
        result = run_inference(model, dataset, batch_size=4)
        assert result.logits.shape == (10, 10)
        assert result.batches == 3
        assert result.images == 10
        assert 0.0 <= result.accuracy <= 1.0
        assert result.wall_seconds > 0.0

    def test_invalid_batch_size(self):
        dataset = generate_cifar_like(4, seed=2)
        model = build_simple_cnn(seed=0)
        with pytest.raises(ConfigurationError):
            run_inference(model, dataset, batch_size=0)

    def test_unnormalized_inputs_option(self):
        dataset = generate_cifar_like(4, seed=2)
        model = build_simple_cnn(seed=0)
        a = run_inference(model, dataset, batch_size=4, normalize_inputs=True)
        b = run_inference(model, dataset, batch_size=4, normalize_inputs=False)
        assert not np.allclose(a.logits, b.logits)

    def test_compare_uses_fresh_models(self):
        dataset = generate_cifar_like(6, seed=2)
        builds = []

        def builder():
            model = build_simple_cnn(seed=0)
            builds.append(model)
            return model

        result = compare_accurate_vs_approximate(
            builder, dataset, library.create("mul8s_exact"), batch_size=3)
        assert len(builds) == 2
        # The first build stays accurate, the second is transformed.
        assert builds[0].graph.op_type_histogram().get("AxConv2D", 0) == 0
        assert builds[1].graph.op_type_histogram()["AxConv2D"] == 3
        assert result.multiplier_name == "mul8s_exact"
        assert result.accurate.images == result.approximate.images == 6


class TestExceptionHierarchy:
    def test_all_library_errors_share_a_base(self):
        for exc in (ConfigurationError, QuantizationError, ShapeError,
                    GraphError, ExecutionError, TruthTableError):
            assert issubclass(exc, TFApproxError)

    def test_errors_carry_messages(self):
        with pytest.raises(QuantizationError, match="inverted"):
            compute_coeffs(2.0, 1.0)


class TestFailureInjection:
    """Corrupted inputs must be rejected loudly, never silently mis-emulated."""

    def test_nan_activations_rejected(self, exact_lut_signed):
        inputs = np.full((1, 4, 4, 1), np.nan)
        filters = np.ones((3, 3, 1, 1))
        with pytest.raises(TFApproxError):
            emulate_conv2d(inputs, filters, exact_lut_signed)

    def test_inf_range_rejected(self):
        with pytest.raises(QuantizationError):
            compute_coeffs(0.0, float("inf"))

    def test_corrupt_truth_table_rejected(self):
        table = library.create("mul8s_exact").truth_table().astype(np.int64)
        table[0, 0] = 10 ** 9   # impossible 8-bit product
        with pytest.raises(TruthTableError):
            LookupTable(table, bit_width=8, signed=True)

    def test_cyclic_graph_detected(self):
        g = Graph()
        a = Constant(g, 1.0)
        b = Identity(g, a)
        c = Add(g, a, b)
        # Force a cycle by rewiring b to consume c.
        b.replace_input(a, c)
        with pytest.raises(GraphError):
            g.topological_order()
        with pytest.raises(GraphError):
            Executor(g)

    def test_executor_wraps_node_failures(self):
        g = Graph()
        x = Placeholder(g, (None, 2, 2, 3))
        bias = Constant(g, np.ones(5))       # wrong channel count
        from repro.graph.ops import BiasAdd
        node = BiasAdd(g, x, bias)
        with pytest.raises(ExecutionError, match="bias"):
            Executor(g).run(node, {x: np.zeros((1, 2, 2, 3))})

    def test_mismatched_channels_rejected_by_conv(self, exact_lut_signed):
        inputs = np.zeros((1, 4, 4, 3))
        filters = np.zeros((3, 3, 2, 4))
        with pytest.raises(ShapeError):
            emulate_conv2d(inputs, filters, exact_lut_signed)

    def test_empty_batch_is_rejected(self, exact_lut_signed):
        inputs = np.zeros((0, 4, 4, 1))
        filters = np.ones((3, 3, 1, 1))
        with pytest.raises(TFApproxError):
            emulate_conv2d(inputs, filters, exact_lut_signed)
