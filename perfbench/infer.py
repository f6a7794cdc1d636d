"""``infer_resnet20``: closed-loop ResNet-20 inference in batches of 32.

The paper's headline workload.  The model is ResNet-20 with identity
shortcuts (19 conv layers), every layer emulated with ``mul8s_mitchell``;
ranges come from the Min/Max nodes of each batch, as in Fig. 1.  Each op
runs one batch through the approximate graph and then the same batch
through the float graph, for the Table I slowdown.

Inputs: a fixed pool of 8 synthetic batches whose logits are stored in
``reference/infer_resnet20.npz``.  The seed picks a pool batch and a
permutation of its images for every op.  Ranges are batch-wide min/max,
which a permutation leaves unchanged, so the expected logits are the
stored ones permuted the same way.
"""

from __future__ import annotations

import time

import numpy as np

from . import layers
from .common import (Outcome, check_logits, digest, load_reference, median,
                     normalize, op_span, peak_rss_mb, percentile, set_phase,
                     synthetic_images, time_setup)

NAME = "infer_resnet20"
DEPTH = 20
MULTIPLIER = "mul8s_mitchell"
BATCH = 32
POOL_BATCHES = 8
POOL_SEED = 2020
SETUP_REPS = 7


def pool() -> tuple[np.ndarray, np.ndarray]:
    """(pool batches [8, 32, 32, 32, 3], one-image warm-up batch)."""
    rng = np.random.default_rng(POOL_SEED)
    images = normalize(synthetic_images(rng, POOL_BATCHES * BATCH, 32))
    batches = images.reshape(POOL_BATCHES, BATCH, 32, 32, 3)
    return batches, batches[0, :1]


def build(approximate: bool):
    """(model, executor) of ResNet-20, transformed when ``approximate``."""
    from repro.backends import DEFAULT_LUT_CACHE
    from repro.graph import Executor, approximate_graph
    from repro.models import build_resnet

    model = build_resnet(DEPTH, seed=0)
    if approximate:
        approximate_graph(model.graph, DEFAULT_LUT_CACHE.resolve(MULTIPLIER))
    return model, Executor(model.graph)


def logits(model, executor, images: np.ndarray) -> np.ndarray:
    return executor.run(model.logits, {model.input_node: images})


def make_reference() -> dict:
    """Logits of the current program for the pool (``make_reference.py``)."""
    batches, warm = pool()
    approx_model, approx_exec = build(True)
    float_model, float_exec = build(False)
    return {
        "pool_digest": np.array(digest(batches)),
        "warm": logits(approx_model, approx_exec, warm),
        "approx": np.stack([logits(approx_model, approx_exec, batch)
                            for batch in batches]),
        "float": np.stack([logits(float_model, float_exec, batch)
                           for batch in batches]),
    }


def run(seed: int, seconds: float, tracer, span_cost_s: float) -> Outcome:
    from repro.backends import (DEFAULT_FILTER_CACHE, DEFAULT_LUT_CACHE,
                                clear_caches)
    from repro.errors import TFApproxError

    out = Outcome()
    ref = load_reference(NAME)
    batches, warm = pool()
    if digest(batches) != str(ref["pool_digest"]):
        raise SystemExit("infer pool inputs differ from the stored reference")

    lut_misses = []

    def setup():
        clear_caches()
        model, executor = build(True)
        out.attempted += 1
        if not check_logits(logits(model, executor, warm), ref["warm"]):
            out.fail("warm-up logits differ from the reference")
        lut_misses.append(DEFAULT_LUT_CACHE.stats_snapshot().misses)
        return model, executor

    set_phase(tracer, "setup")
    setup_s, setup_times, (model, executor) = time_setup(setup, SETUP_REPS)
    set_phase(tracer, "float")
    float_model, float_exec = build(False)

    rng = np.random.default_rng(seed)
    approx_s, ratios = [], []
    cache_before = DEFAULT_FILTER_CACHE.stats_snapshot()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = int(rng.integers(POOL_BATCHES))
        order = rng.permutation(BATCH)
        images = batches[index][order]
        out.attempted += 1
        try:
            set_phase(tracer, "window")
            t0 = time.perf_counter()
            with op_span(tracer, "bench.op"):
                got = logits(model, executor, images)
            t1 = time.perf_counter()
            set_phase(tracer, "float")
            with op_span(tracer, "bench.float"):
                got_float = logits(float_model, float_exec, images)
            t2 = time.perf_counter()
        except TFApproxError as exc:
            out.fail(f"batch {index}: {exc}")
            continue
        approx_s.append(t1 - t0)
        ratios.append((t1 - t0) / (t2 - t1))
        if not check_logits(got, ref["approx"][index][order]):
            out.fail(f"approximate logits of pool batch {index} differ")
        elif not check_logits(got_float, ref["float"][index][order]):
            out.fail(f"float logits of pool batch {index} differ")
    cache_after = DEFAULT_FILTER_CACHE.stats_snapshot()

    batch_s = median(approx_s)
    images_per_s = BATCH / batch_s
    out.metrics.update({
        "images_per_s": images_per_s,
        "emulated_macs_per_s": images_per_s * model.macs_per_image,
        "slowdown_vs_float": median(ratios),
        "latency_p50_ms": batch_s * 1e3,
        "completed_per_s": 1.0 / batch_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    })
    out.info = {"setup_s": setup_times, "latency_samples": len(approx_s),
                "latency_p99_ms": percentile(approx_s, 99) * 1e3,
                "op_s": approx_s}
    if tracer is not None:
        metrics, counters = layers.traced_metrics(
            tracer, ops=len(approx_s), images=BATCH * len(approx_s),
            setup_reps=SETUP_REPS, lut_misses=median(lut_misses),
            cache_before=cache_before, cache_after=cache_after,
            span_cost_s=span_cost_s)
        out.metrics.update(metrics)
        out.counters.update(counters)
        expected = {"conv.lut_gemm.macs": model.macs_per_image,
                    "conv.lut_gemm.calls": model.conv_layer_count}
        for key, value in expected.items():
            if counters[key] != value:
                out.fail(f"{key} is {counters[key]}, "
                         f"the model implies {value}")
    return out
