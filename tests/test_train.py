"""Tests of the training subsystem: losses, the optimiser and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import clear_caches
from repro.datasets import generate_cifar_like
from repro.errors import ConfigurationError, ShapeError
from repro.graph import Graph, approximate_graph, freeze_ranges
from repro.graph.ops import Constant, Identity
from repro.models import build_simple_cnn
from repro.multipliers import library
from repro.train import (
    SGD,
    Trainer,
    one_hot,
    softmax_cross_entropy,
    trainable_constants,
)


class TestLosses:
    def test_one_hot_encoding_and_validation(self):
        encoded = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        with pytest.raises(ShapeError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ShapeError):
            one_hot(np.array([[0, 1]]), 3)

    def test_cross_entropy_value(self):
        # Uniform logits over C classes => loss == log(C).
        logits = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(4.0))
        assert grad.shape == logits.shape

    def test_cross_entropy_gradient_matches_finite_difference(self, rng):
        logits = rng.normal(size=(3, 5))
        labels = np.array([1, 4, 0])
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for idx in np.ndindex(logits.shape):
            lp, lm = logits.copy(), logits.copy()
            lp[idx] += eps
            lm[idx] -= eps
            numeric = (softmax_cross_entropy(lp, labels)[0]
                       - softmax_cross_entropy(lm, labels)[0]) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, abs=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros(3), np.array([0]))


def _param(graph, value, name):
    return Constant(graph, value, name=name)


class TestOptimizers:
    def test_sgd_plain_update(self):
        graph = Graph("sgd")
        w = _param(graph, np.array([1.0, -2.0]), "w")
        opt = SGD([w], lr=0.1)
        opt.step({w: np.array([0.5, -0.5])})
        np.testing.assert_allclose(w.value, [0.95, -1.95])

    def test_sgd_momentum_accumulates_velocity(self):
        graph = Graph("sgd-m")
        w = _param(graph, np.zeros(1), "w")
        opt = SGD([w], lr=1.0, momentum=0.5)
        opt.step({w: np.ones(1)})
        np.testing.assert_allclose(w.value, [-1.0])     # v = 1
        opt.step({w: np.ones(1)})
        np.testing.assert_allclose(w.value, [-2.5])     # v = 1.5

    def test_missing_gradient_leaves_parameter_untouched(self):
        graph = Graph("sgd-skip")
        w = _param(graph, np.array([3.0]), "w")
        other = _param(graph, np.array([4.0]), "other")
        opt = SGD([w, other], lr=0.1)
        opt.step({w: np.array([1.0])})
        np.testing.assert_allclose(other.value, [4.0])

    def test_zero_gradient_still_applies_momentum(self):
        # A zero batch gradient is a real gradient: momentum keeps coasting.
        graph = Graph("sgd-zero")
        v = _param(graph, np.array([0.0]), "v")
        opt_m = SGD([v], lr=1.0, momentum=0.5)
        opt_m.step({v: np.ones(1)})       # velocity = 1
        opt_m.step({v: np.zeros(1)})      # coasts: velocity = 0.5
        np.testing.assert_allclose(v.value, [-1.5])

    def test_configuration_validation(self):
        graph = Graph("cfg")
        w = _param(graph, np.zeros(1), "w")
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)
        with pytest.raises(ConfigurationError):
            SGD([w], lr=-1.0)
        with pytest.raises(ConfigurationError):
            SGD([w], lr=0.1, momentum=1.0)
        with pytest.raises(ConfigurationError):
            SGD([Identity(graph, w)], lr=0.1)  # type: ignore[list-item]

    def test_gradient_shape_mismatch_raises(self):
        graph = Graph("shape")
        w = _param(graph, np.zeros((2, 2)), "w")
        opt = SGD([w], lr=0.1)
        with pytest.raises(ConfigurationError):
            opt.step({w: np.ones(3)})


class TestTrainableConstants:
    def test_simple_cnn_parameters_found(self):
        model = build_simple_cnn(input_size=8, seed=0)
        names = {p.name for p in trainable_constants(model.graph, model.logits)}
        assert names == {
            "conv1/weights", "conv1/bias", "conv2/weights", "conv2/bias",
            "conv3/weights", "conv3/bias", "fc/weights", "fc/bias",
        }

    def test_approximate_graph_keeps_filter_parameters(self):
        model = build_simple_cnn(input_size=8, seed=0)
        approximate_graph(model.graph, library.create("mul8s_exact"))
        names = {p.name for p in trainable_constants(model.graph, model.logits)}
        # Filter constants now feed AxConv2D (position 1) *and* the range
        # probes, but they are still trainable.
        assert "conv1/weights" in names and "fc/weights" in names

    def test_frozen_range_constants_are_excluded(self):
        # freeze_ranges turns each AxConv2D's four range probes into
        # constants; they feed positions >= 2, which get no gradient.
        model = build_simple_cnn(input_size=8, seed=0)
        approximate_graph(model.graph, library.create("mul8s_exact"))
        split = generate_cifar_like(4, seed=1, image_size=8)
        frozen = freeze_ranges(model.graph, {model.input_node: split.images})
        ranges = [node for node in model.graph.nodes()
                  if isinstance(node, Constant)
                  and node.name.endswith("/frozen")]
        assert frozen == len(ranges) == 12
        params = trainable_constants(model.graph, model.logits)
        assert not set(ranges) & set(params)
        assert {p.name for p in params} == {
            "conv1/weights", "conv1/bias", "conv2/weights", "conv2/bias",
            "conv3/weights", "conv3/bias", "fc/weights", "fc/bias",
        }


def _tiny_setup(seed=0, images=64, size=8):
    model = build_simple_cnn(input_size=size, seed=seed)
    split = generate_cifar_like(images, seed=seed + 1, image_size=size)
    params = trainable_constants(model.graph, model.logits)
    return model, split, params


class TestTrainer:
    def test_loss_decreases_on_accurate_graph(self):
        model, split, params = _tiny_setup()
        trainer = Trainer(model, SGD(params, lr=0.05, momentum=0.9),
                          batch_size=16, seed=0)
        history = trainer.fit(split, 3)
        assert len(history) == 3
        assert history.epochs[-1].loss < history.epochs[0].loss
        assert history.epochs[-1].accuracy > history.epochs[0].accuracy

    def test_training_is_deterministic(self):
        results = []
        for _ in range(2):
            model, split, params = _tiny_setup()
            trainer = Trainer(model, SGD(params, lr=0.05), batch_size=16,
                              seed=7)
            trainer.fit(split, 2)
            results.append(params[0].value.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_evaluate_reports_loss_and_accuracy(self):
        model, split, params = _tiny_setup()
        trainer = Trainer(model, SGD(params, lr=0.05), batch_size=16)
        loss, accuracy = trainer.evaluate(split)
        assert loss > 0.0
        assert 0.0 <= accuracy <= 1.0

    def test_evaluate_rejects_a_non_positive_batch_size(self):
        model, split, params = _tiny_setup(images=8)
        trainer = Trainer(model, SGD(params, lr=0.05), batch_size=16)
        for batch_size in (0, -4):
            with pytest.raises(ConfigurationError, match="batch_size"):
                trainer.evaluate(split, batch_size=batch_size)

    def test_validation_metrics_recorded(self):
        model, split, params = _tiny_setup()
        trainer = Trainer(model, SGD(params, lr=0.05), batch_size=16, seed=0)
        history = trainer.fit(split.subset(32), 1,
                              val_split=split.subset(16))
        assert history.epochs[0].val_accuracy is not None
        assert history.epochs[0].val_loss is not None

    def test_grad_clipping_bounds_update_magnitude(self):
        model, split, params = _tiny_setup()
        trainer = Trainer(model, SGD(params, lr=1.0), batch_size=16,
                          grad_clip_norm=1e-9)
        before = [p.value.copy() for p in params]
        trainer.train_step(split.images[:16], split.labels[:16])
        # With a vanishing clip norm the parameters barely move.
        for prev, param in zip(before, params):
            assert np.abs(param.value - prev).max() < 1e-8


class TestTrainerCacheHygiene:
    def _approx_setup(self):
        clear_caches()
        model = build_simple_cnn(input_size=8, seed=0)
        approximate_graph(model.graph, library.create("mul8s_exact"))
        split = generate_cifar_like(32, seed=5, image_size=8)
        params = trainable_constants(model.graph, model.logits)
        return model, split, params

    def test_stale_filter_banks_are_invalidated_each_step(self):
        model, split, params = self._approx_setup()
        ax_nodes = model.graph.nodes_by_type("AxConv2D")
        caches = {id(n.pipeline.filter_cache): n.pipeline.filter_cache
                  for n in ax_nodes}
        trainer = Trainer(model, SGD(params, lr=0.01), batch_size=16, seed=0)
        trainer.fit(split, 2)
        # Every optimiser step drops the bank of the weights it just
        # superseded, so the caches never accumulate more than one live
        # bank per approximate layer regardless of how many steps ran.
        total_entries = sum(len(c) for c in caches.values())
        assert total_entries <= len(ax_nodes)
        invalidations = sum(c.stats.invalidations for c in caches.values())
        misses = sum(c.stats.misses for c in caches.values())
        assert invalidations == misses  # every created bank was retired

        # Inference between updates reuses the live banks: the first
        # evaluate builds one bank per layer, the second is all hits.
        trainer.evaluate(split.subset(16))
        before = sum(c.stats.hits for c in caches.values())
        trainer.evaluate(split.subset(16))
        assert sum(len(c) for c in caches.values()) == len(ax_nodes)
        assert sum(c.stats.hits for c in caches.values()) \
            == before + len(ax_nodes)
        clear_caches()

    def test_reuse_caches_false_clears_between_steps(self):
        model, split, params = self._approx_setup()
        trainer = Trainer(model, SGD(params, lr=0.01), batch_size=16, seed=0,
                          reuse_caches=False)
        trainer.train_step(split.images[:16], split.labels[:16])
        ax = model.graph.nodes_by_type("AxConv2D")[0]
        # The step started from cleared caches, so every layer's first
        # forward pass was a miss.
        assert ax.pipeline.filter_cache.stats.hits == 0
        clear_caches()
