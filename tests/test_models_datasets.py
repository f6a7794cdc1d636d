"""Tests of the model zoo, calibration helper and the synthetic dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    DatasetSplit,
    NUM_CLASSES,
    generate_cifar_like,
    normalize,
)
from repro.errors import ConfigurationError
from repro.evaluation import run_inference
from repro.graph import Executor, infer_shapes
from repro.models import (
    PAPER_DEPTHS,
    build_resnet,
    build_simple_cnn,
    blocks_per_stage,
    calibrate_classifier,
    conv_workloads_for_depth,
    extract_features,
)

from conv_reference import conv_workloads_from_graph


class TestResNetBuilder:
    def test_conv_layer_count_matches_table1(self):
        # Table I: L = 7 for ResNet-8 and 61 for ResNet-62.
        assert build_resnet(8).conv_layer_count == 7
        assert conv_workloads_for_depth(62) and len(conv_workloads_for_depth(62)) == 61
        for depth in PAPER_DEPTHS:
            assert len(conv_workloads_for_depth(depth)) == depth - 1

    def test_depth_validation(self):
        with pytest.raises(ConfigurationError):
            build_resnet(9)
        with pytest.raises(ConfigurationError):
            blocks_per_stage(7)
        with pytest.raises(ConfigurationError):
            build_resnet(8, shortcut="bogus")

    def test_macs_grow_linearly_with_depth(self):
        macs = [sum(w.macs_per_image for w in conv_workloads_for_depth(d))
                for d in (8, 14, 20)]
        step1 = macs[1] - macs[0]
        step2 = macs[2] - macs[1]
        assert step1 == pytest.approx(step2, rel=1e-6)
        # The paper reports ~14e6 additional MACs per 6 added layers.
        assert 12e6 < step1 < 16e6

    def test_workload_helper_matches_built_model(self):
        model = build_resnet(14)
        expected = conv_workloads_for_depth(14)
        assert [(w.name, w.macs_per_image) for w in model.conv_workloads] == \
            [(w.name, w.macs_per_image) for w in expected]

    def test_projection_variant_has_more_layers(self):
        identity = build_resnet(8, shortcut="identity")
        projection = build_resnet(8, shortcut="projection")
        assert projection.conv_layer_count == identity.conv_layer_count + 2
        assert conv_workloads_for_depth(8, shortcut="projection") \
            and len(conv_workloads_for_depth(8, shortcut="projection")) == 9

    def test_forward_pass_shapes(self, rng):
        model = build_resnet(8)
        batch = rng.normal(size=(2, 32, 32, 3))
        logits = Executor(model.graph).run(model.logits,
                                           {model.input_node: batch})
        assert logits.shape == (2, 10)
        probs = Executor(model.graph).run(model.probabilities,
                                          {model.input_node: batch})
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(2), atol=1e-9)

    def test_deterministic_weights(self):
        a = build_resnet(8, seed=3)
        b = build_resnet(8, seed=3)
        wa = a.graph.get("stem/conv/weights").value
        wb = b.graph.get("stem/conv/weights").value
        np.testing.assert_array_equal(wa, wb)

    def test_describe_mentions_depth(self):
        assert "ResNet-8" in build_resnet(8).describe()


class TestModelSummary:
    def test_graph_workloads_match_recorded_workloads(self):
        model = build_resnet(8)
        derived = conv_workloads_from_graph(model.graph)
        assert len(derived) == model.conv_layer_count
        assert sum(w.macs_per_image for w in derived) == model.macs_per_image

    def test_simple_cnn_summary(self):
        cnn = build_simple_cnn()
        assert len(cnn.conv_workloads) == 3
        assert cnn.macs_per_image > 0
        shapes = infer_shapes(cnn.graph)
        assert shapes[cnn.logits.name] == (None, 10)


class TestSyntheticDataset:
    def test_shapes_and_determinism(self):
        a = generate_cifar_like(50, seed=1)
        b = generate_cifar_like(50, seed=1)
        assert a.images.shape == (50, 32, 32, 3)
        assert a.labels.shape == (50,)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_values_in_unit_range(self):
        ds = generate_cifar_like(20, seed=0)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_all_classes_present(self):
        ds = generate_cifar_like(100, seed=0)
        assert set(np.unique(ds.labels)) == set(range(NUM_CLASSES))

    def test_batching_covers_everything(self):
        ds = generate_cifar_like(25, seed=0)
        batches = list(ds.batches(10))
        assert [len(b[0]) for b in batches] == [10, 10, 5]
        recombined = np.concatenate([b[0] for b in batches])
        np.testing.assert_array_equal(recombined, ds.images)

    def test_subset_and_validation(self):
        ds = generate_cifar_like(10, seed=0)
        assert len(ds.subset(4)) == 4
        with pytest.raises(ConfigurationError):
            ds.subset(0)
        with pytest.raises(ConfigurationError):
            ds.batches(0).__next__()
        with pytest.raises(ConfigurationError):
            generate_cifar_like(0)
        with pytest.raises(ConfigurationError):
            DatasetSplit(np.zeros((2, 4, 4, 3)), np.zeros(3, dtype=int))

    def test_normalize(self):
        images = np.full((1, 2, 2, 3), 0.5)
        np.testing.assert_allclose(normalize(images), 0.0)
        with pytest.raises(ConfigurationError):
            normalize(images, std=0.0)


class TestCalibration:
    def test_calibrated_model_beats_chance(self):
        dataset = generate_cifar_like(100, seed=5)
        cnn = build_simple_cnn(seed=0)
        train_acc = calibrate_classifier(cnn, dataset)
        assert train_acc > 0.5
        test = generate_cifar_like(50, seed=9)
        result = run_inference(cnn, test, batch_size=25)
        assert result.accuracy > 0.5

    def test_feature_extraction_shape(self):
        dataset = generate_cifar_like(20, seed=5)
        cnn = build_simple_cnn(seed=0)
        features = extract_features(cnn, dataset, batch_size=10)
        assert features.shape[0] == 20

    def test_calibration_requires_classifier_nodes(self):
        dataset = generate_cifar_like(10, seed=5)
        cnn = build_simple_cnn(seed=0)
        cnn.classifier_weights = None
        with pytest.raises(ConfigurationError):
            calibrate_classifier(cnn, dataset)
