"""Training benchmark: fine-tuning steps/s with hot vs cold pipeline caches.

The trainer drives the same ``AxConv2D`` → ``InferencePipeline`` hot path as
inference, but under a much heavier, repeated-call traffic pattern: one
forward per step, every step.  This module measures what the LUT/filter-bank
caches are worth there:

* the *cached* trainer reuses the process-wide caches across steps -- the
  multiplier LUT is built once and the frozen conv layers' quantised filter
  banks hit on every step (the classifier-only fine-tuning configuration,
  where the convolutional trunk does not change);
* the *uncached* trainer (``reuse_caches=False``) clears the pipeline caches
  before every forward pass, which is the per-call-setup behaviour the
  paper's Section II ascribes to naive emulation.

``test_cached_steps_beat_uncached_steps`` is the acceptance gate of the
training-subsystem PR; the steps/s of both modes land in
``BENCH_training.json``.

``test_tap_wise_conv_backward_beats_im2col`` times the float convolution
backward every training step runs (``Conv2D`` and the ``AxConv2D``
straight-through estimator both call it) on the seven conv layers of a
batch-16 ResNet-8: the tap-wise :func:`repro.conv.conv2d_float_backward`
against the im2col formulation it replaced (a ``[P, 9C]`` patch matrix,
its gradient and a ``col2im`` scatter, kept in ``tests/conv_reference.py``).
Reps alternate between the two; per-layer and summed medians and the
summed speed-up land in ``BENCH_conv_backward.json``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.backends import clear_caches
from repro.conv import conv2d_float_backward, resolve_geometry
from repro.datasets import generate_cifar_like
from repro.graph import approximate_graph
from repro.models import build_resnet, build_simple_cnn
from repro.multipliers import library
from repro.train import SGD, Trainer

from conv_reference import conv2d_float_backward_im2col

MULTIPLIER = "mul8s_mitchell"
BATCH = 16
STEPS = 6
#: Alternating reps per layer of the conv-backward comparison.
BACKWARD_REPS = 5


def _make_trainer(*, reuse_caches: bool):
    """A classifier-only fine-tuning setup over an approximate graph.

    The pipelines resolve the multiplier by library name so the uncached
    mode re-pays the 256x256 table construction per step, exactly like the
    seed code's per-call setup; only the dense classifier trains, so the
    conv filter banks stay reusable across steps in the cached mode.
    """
    model = build_simple_cnn(input_size=8, seed=0)
    approximate_graph(model.graph, library.create(MULTIPLIER))
    for node in model.graph.nodes_by_type("AxConv2D"):
        node.pipeline.multiplier = MULTIPLIER
    params = [model.classifier_weights, model.classifier_bias]
    return Trainer(
        model, SGD(params, lr=0.01), batch_size=BATCH, seed=0,
        reuse_caches=reuse_caches,
    )


@pytest.fixture(scope="module")
def split():
    return generate_cifar_like(BATCH * 2, seed=11, image_size=8)


def _time_steps(trainer, split, steps: int) -> list[float]:
    images, labels = split.images[:BATCH], split.labels[:BATCH]
    timings = []
    for _ in range(steps):
        start = time.perf_counter()
        trainer.train_step(images, labels)
        timings.append(time.perf_counter() - start)
    return timings


def test_cached_steps_beat_uncached_steps(split, bench_json):
    """Acceptance gate: cache reuse makes training steps measurably faster."""
    clear_caches()
    cached = _make_trainer(reuse_caches=True)
    cached.train_step(split.images[:BATCH], split.labels[:BATCH])  # warm up
    cached_times = _time_steps(cached, split, STEPS)

    clear_caches()
    uncached = _make_trainer(reuse_caches=False)
    uncached_times = _time_steps(uncached, split, STEPS)
    clear_caches()

    cached_median = statistics.median(cached_times)
    uncached_median = statistics.median(uncached_times)
    print(f"\ncached {1.0 / cached_median:.2f} steps/s, "
          f"uncached {1.0 / uncached_median:.2f} steps/s, "
          f"speedup {uncached_median / cached_median:.2f}x")
    bench_json("training", {
        "batch_size": BATCH,
        "steps_timed": STEPS,
        "steps_per_s_cached": 1.0 / cached_median,
        "steps_per_s_uncached": 1.0 / uncached_median,
        "cached_vs_uncached_speedup": uncached_median / cached_median,
    })
    assert cached_median < uncached_median, (
        f"cached training steps ({cached_median:.4f}s) should beat uncached "
        f"steps ({uncached_median:.4f}s)"
    )


@pytest.mark.benchmark(group="training")
def test_train_step_cached(benchmark, split):
    """pytest-benchmark timing of one steady-state fine-tuning step."""
    clear_caches()
    trainer = _make_trainer(reuse_caches=True)
    images, labels = split.images[:BATCH], split.labels[:BATCH]
    trainer.train_step(images, labels)  # prime the caches

    loss, logits = benchmark(trainer.train_step, images, labels)
    assert np.isfinite(loss)
    assert logits.shape == (BATCH, 10)
    clear_caches()


def _seconds(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def test_tap_wise_conv_backward_beats_im2col(bench_json):
    """The tap-wise backward must not lose to the im2col formulation,
    summed over the seven ResNet-8 layers (no per-layer gate: single
    layers take a few ms and swing with host load)."""
    rng = np.random.default_rng(0)
    layers = {}
    for workload in build_resnet(8, seed=0).conv_workloads:
        kh, kw = workload.kernel_height, workload.kernel_width
        geometry = dict(strides=(workload.stride, workload.stride),
                        padding=workload.padding)
        g = resolve_geometry(workload.input_height, workload.input_width,
                             kh, kw, **geometry)
        inputs = rng.normal(size=(BATCH, workload.input_height,
                                  workload.input_width,
                                  workload.input_channels))
        filters = rng.normal(size=(kh, kw, workload.input_channels,
                                   workload.output_channels))
        grad = rng.normal(size=(BATCH, g.output_height, g.output_width,
                                workload.output_channels))
        tap_wise, im2col = [], []
        for _ in range(BACKWARD_REPS):
            im2col.append(_seconds(
                conv2d_float_backward_im2col, grad, inputs, filters,
                **geometry))
            tap_wise.append(_seconds(
                conv2d_float_backward, grad, inputs, filters, **geometry))
        layers[workload.name] = {
            "tap_wise_seconds": statistics.median(tap_wise),
            "im2col_seconds": statistics.median(im2col),
        }
    tap_wise_total = sum(v["tap_wise_seconds"] for v in layers.values())
    im2col_total = sum(v["im2col_seconds"] for v in layers.values())
    speedup = im2col_total / tap_wise_total
    print(f"\nconv backward over {len(layers)} ResNet-8 layers: im2col "
          f"{im2col_total * 1e3:.1f} ms, tap-wise {tap_wise_total * 1e3:.1f} "
          f"ms, speedup {speedup:.2f}x")
    bench_json("conv_backward", {
        "batch_size": BATCH,
        "reps": BACKWARD_REPS,
        "layers": layers,
        "tap_wise_seconds": tap_wise_total,
        "im2col_seconds": im2col_total,
        "tap_wise_vs_im2col_speedup": speedup,
    })
    assert speedup >= 1.0, (
        f"tap-wise conv backward ({tap_wise_total:.4f}s over the ResNet-8 "
        f"layers) lost to the im2col formulation ({im2col_total:.4f}s)"
    )
