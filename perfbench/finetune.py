"""``finetune_resnet8``: closed-loop fine-tuning through the emulator.

ResNet-8 (7 conv layers) with every layer emulated by ``mul8s_mitchell``,
all 16 trainable constants updated by plain SGD on batches of 16.  Every
step rewrites all 7 filter banks, so each forward pass misses the
filter-bank cache and re-quantises them, and the backward pass runs the
float straight-through estimator.  Each op is one ``Trainer.train_step``;
the same batch then goes through a float copy of the model for the
slowdown.

Inputs: a fixed pool of 3 synthetic batches.  Steps run in episodes of 3
that start from the initial weights; the seed picks each episode's batch
sequence.  ``reference/finetune_resnet8.npz`` stores the loss after every
prefix of every sequence, so each step's loss is checked.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from . import layers
from .common import (Outcome, digest, load_reference, median, op_span,
                     peak_rss_mb, percentile, set_phase, synthetic_images,
                     time_setup)

NAME = "finetune_resnet8"
DEPTH = 8
MULTIPLIER = "mul8s_mitchell"
BATCH = 16
POOL_BATCHES = 3
EPISODE = 3
LR = 0.01
POOL_SEED = 808
SETUP_REPS = 3
#: Relative tolerance of the loss checks.
LOSS_RTOL = 1e-7


def pool() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(POOL_SEED)
    images = synthetic_images(rng, POOL_BATCHES * BATCH, 32)
    labels = rng.integers(10, size=POOL_BATCHES * BATCH)
    return (images.reshape(POOL_BATCHES, BATCH, 32, 32, 3),
            labels.reshape(POOL_BATCHES, BATCH))


class Learner:
    """A ResNet-8 trainer plus its initial weights."""

    def __init__(self, approximate: bool) -> None:
        from repro.backends import DEFAULT_LUT_CACHE
        from repro.graph import approximate_graph
        from repro.models import build_resnet
        from repro.train import SGD, Trainer, trainable_constants

        self.model = build_resnet(DEPTH, seed=0)
        if approximate:
            approximate_graph(self.model.graph,
                              DEFAULT_LUT_CACHE.resolve(MULTIPLIER))
        self.params = trainable_constants(self.model.graph, self.model.logits)
        self.initial = [param.value.copy() for param in self.params]
        self.trainer = Trainer(self.model, SGD(self.params, lr=LR),
                               batch_size=BATCH, seed=0)

    def restart(self) -> None:
        """Back to the initial weights (SGD without momentum has no state)."""
        for param, value in zip(self.params, self.initial):
            param.set_value(value.copy())

    def step(self, images, labels) -> float:
        loss, _ = self.trainer.train_step(images, labels)
        return float(loss)


def key(sequence) -> str:
    return "loss_" + "".join(str(index) for index in sequence)


def make_reference() -> dict:
    """Loss after every prefix of every episode sequence."""
    images, labels = pool()
    learner = Learner(True)
    reference = {"pool_digest": np.array(digest(images))}
    for sequence in itertools.product(range(POOL_BATCHES), repeat=EPISODE):
        learner.restart()
        for depth, index in enumerate(sequence, start=1):
            loss = learner.step(images[index], labels[index])
            reference.setdefault(key(sequence[:depth]), np.array(loss))
    return reference


def run(seed: int, seconds: float, tracer, span_cost_s: float) -> Outcome:
    from repro.backends import (DEFAULT_FILTER_CACHE, DEFAULT_LUT_CACHE,
                                clear_caches)
    from repro.errors import TFApproxError

    out = Outcome()
    ref = load_reference(NAME)
    images, labels = pool()
    if digest(images) != str(ref["pool_digest"]):
        raise SystemExit(
            "finetune pool inputs differ from the stored reference")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(POOL_BATCHES))

    def check(loss: float, sequence) -> None:
        want = float(ref[key(sequence)])
        if not (np.isfinite(loss)
                and abs(loss - want) <= LOSS_RTOL * abs(want)):
            out.fail(f"loss {loss!r} after {key(sequence)}, expected {want!r}")

    lut_misses = []

    def setup():
        clear_caches()
        learner = Learner(True)
        out.attempted += 1
        check(learner.step(images[first], labels[first]), (first,))
        lut_misses.append(DEFAULT_LUT_CACHE.stats_snapshot().misses)
        return learner

    set_phase(tracer, "setup")
    setup_s, setup_times, learner = time_setup(setup, SETUP_REPS)
    set_phase(tracer, "float")
    float_learner = Learner(False)

    step_s, ratios = [], []
    cache_before = DEFAULT_FILTER_CACHE.stats_snapshot()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        sequence = [int(index) for index in rng.integers(POOL_BATCHES,
                                                         size=EPISODE)]
        learner.restart()
        float_learner.restart()
        for depth, index in enumerate(sequence, start=1):
            if time.perf_counter() - start >= seconds:
                break
            out.attempted += 1
            try:
                set_phase(tracer, "window")
                t0 = time.perf_counter()
                with op_span(tracer, "bench.op"):
                    loss = learner.step(images[index], labels[index])
                t1 = time.perf_counter()
                set_phase(tracer, "float")
                with op_span(tracer, "bench.float"):
                    float_learner.step(images[index], labels[index])
                t2 = time.perf_counter()
            except TFApproxError as exc:
                out.fail(f"step on pool batch {index}: {exc}")
                break
            step_s.append(t1 - t0)
            ratios.append((t1 - t0) / (t2 - t1))
            check(loss, sequence[:depth])
    cache_after = DEFAULT_FILTER_CACHE.stats_snapshot()

    median_step = median(step_s)
    images_per_s = BATCH / median_step
    macs = learner.model.macs_per_image
    out.metrics.update({
        "images_per_s": images_per_s,
        "emulated_macs_per_s": images_per_s * macs,
        "slowdown_vs_float": median(ratios),
        "latency_p50_ms": median_step * 1e3,
        "completed_per_s": 1.0 / median_step,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    })
    out.info = {"setup_s": setup_times, "latency_samples": len(step_s),
                "latency_p99_ms": percentile(step_s, 99) * 1e3,
                "op_s": step_s}
    if tracer is not None:
        metrics, counters = layers.traced_metrics(
            tracer, ops=len(step_s), images=BATCH * len(step_s),
            setup_reps=SETUP_REPS, lut_misses=median(lut_misses),
            cache_before=cache_before, cache_after=cache_after,
            span_cost_s=span_cost_s)
        out.metrics.update(metrics)
        out.counters.update(counters)
        layers_count = learner.model.conv_layer_count
        expected = {"conv.lut_gemm.macs": macs,
                    "conv.lut_gemm.calls": layers_count,
                    "backends.filter_cache.misses": layers_count}
        for name, value in expected.items():
            if counters[name] != value:
                out.fail(f"{name} is {counters[name]}, "
                         f"the model implies {value}")
    return out
