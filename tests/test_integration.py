"""End-to-end integration tests across subsystems.

These tests tie the whole flow of the paper together: build a model, apply
the Fig. 1 transformation with a multiplier from the library, run inference
over the synthetic dataset on the host engine and on the simulated GPU
device, and check the quality/consistency claims (Section IV) at small scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_cifar_like, normalize
from repro.evaluation import (
    compare_accurate_vs_approximate,
    prediction_agreement,
    run_inference,
)
from repro.backends import InferencePipeline
from repro.graph import Executor, approximate_graph
from repro.gpusim import GPUDevice, run_gpusim_chunk
from repro.lut import LookupTable
from repro.models import build_resnet, build_simple_cnn, calibrate_classifier
from repro.multipliers import library


@pytest.fixture(scope="module")
def calibration_data():
    return generate_cifar_like(80, seed=11)


@pytest.fixture(scope="module")
def test_data():
    return generate_cifar_like(24, seed=23)


class TestEndToEndSimpleCNN:
    def test_exact_lut_preserves_predictions(self, calibration_data, test_data):
        """Section IV: with an accurate multiplier the approximate layer gives
        the same results as quantise/dequantise, so predictions barely move."""
        def builder():
            model = build_simple_cnn(seed=0)
            calibrate_classifier(model, calibration_data)
            return model

        result = compare_accurate_vs_approximate(
            builder, test_data, library.create("mul8s_exact"), batch_size=12)
        assert result.accurate.accuracy > 0.5
        assert result.agreement >= 0.9
        assert abs(result.accuracy_drop) <= 0.1
        assert result.logits_error.relative_l2_error < 0.1
        assert "AxConv2D" in result.transform_summary or "Conv2D" in \
            result.transform_summary

    def test_coarser_multipliers_increase_error(self, calibration_data, test_data):
        """The tool's purpose: numeric error grows as the multiplier degrades."""
        def builder():
            model = build_simple_cnn(seed=0)
            calibrate_classifier(model, calibration_data)
            return model

        errors = {}
        for name in ("mul8s_exact", "mul8s_trunc2"):
            result = compare_accurate_vs_approximate(
                builder, test_data, library.create(name), batch_size=12)
            errors[name] = result.logits_error.relative_l2_error
        assert errors["mul8s_trunc2"] > errors["mul8s_exact"]


class TestEndToEndResNet:
    def test_resnet8_accurate_vs_approximate_small_batch(self, calibration_data):
        model = build_resnet(8, seed=0)
        calibrate_classifier(model, calibration_data)
        small = generate_cifar_like(8, seed=31)

        accurate = run_inference(model, small, batch_size=8)

        approx_model = build_resnet(8, seed=0)
        calibrate_classifier(approx_model, calibration_data)
        report = approximate_graph(approx_model.graph,
                                   library.create("mul8s_exact"))
        assert report.converted_layers == 7
        approximate = run_inference(approx_model, small, batch_size=8)

        assert accurate.logits.shape == approximate.logits.shape == (8, 10)
        assert prediction_agreement(accurate.logits, approximate.logits) >= 0.75

    def test_transformed_graph_counts(self):
        model = build_resnet(14, seed=0)
        report = approximate_graph(model.graph, library.create("mul8s_drum4"))
        assert report.converted_layers == 13
        histogram = model.graph.op_type_histogram()
        assert histogram["ReduceMin"] + histogram["ReduceMax"] == 4 * 13
        assert histogram.get("Conv2D", 0) == 0
        assert histogram["AxConv2D"] == 13


class TestGPUDeviceEndToEnd:
    def test_gpu_engine_matches_graph_axconv_layer(self, rng):
        """The simulated CUDA kernels and the host AxConv2D op agree exactly."""
        lut = LookupTable.from_multiplier(library.create("mul8s_mitchell"))
        inputs = rng.normal(size=(4, 8, 8, 3))
        filters = rng.normal(size=(3, 3, 3, 8))

        gpu_out = InferencePipeline("gpusim").run(
            inputs, filters, lut).output

        from repro.graph import Graph
        from repro.graph.ops import AxConv2D, Constant, Placeholder, ReduceMax, ReduceMin
        g = Graph()
        x = Placeholder(g, (None, 8, 8, 3))
        w = Constant(g, filters)
        ax = AxConv2D(g, x, w,
                      ReduceMin(g, x), ReduceMax(g, x),
                      ReduceMin(g, w), ReduceMax(g, w), lut=lut)
        host_out = Executor(g).run(ax, {x: inputs})
        np.testing.assert_allclose(gpu_out, host_out, atol=1e-9)

    def test_device_counters_scale_with_work(self, rng):
        lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
        device = GPUDevice()
        small = rng.normal(size=(2, 6, 6, 2))
        large = rng.normal(size=(4, 6, 6, 2))
        filters = rng.normal(size=(3, 3, 2, 4))
        pipeline = InferencePipeline("gpusim", multiplier=lut)
        run_gpusim_chunk(device, small, pipeline.prepare(small, filters))
        fetches_small = device.counters.texture_fetches
        device.reset()
        run_gpusim_chunk(device, large, pipeline.prepare(large, filters))
        fetches_large = device.counters.texture_fetches
        assert fetches_large == 2 * fetches_small


class TestDatasetToLogitsPipeline:
    def test_normalized_batches_flow_through_graph(self):
        dataset = generate_cifar_like(6, seed=3)
        model = build_simple_cnn(seed=1)
        executor = Executor(model.graph)
        for images, labels in dataset.batches(3):
            logits = executor.run(model.logits,
                                  {model.input_node: normalize(images)})
            assert logits.shape == (3, 10)
            assert np.all(np.isfinite(logits))
