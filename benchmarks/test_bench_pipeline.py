"""Pipeline sweep: LUT/filter-bank caching vs cold calls.

Without caches, every convolution call would rebuild the 256x256
multiplier table and re-quantise the filter bank; the
:class:`repro.backends.InferencePipeline` amortises both through
process-wide caches.  This module quantifies the difference:

* ``cold`` benchmarks clear the caches before every call (per-call setup
  included);
* ``warm`` benchmarks reuse a primed pipeline (the steady state of a batch
  stream, also over a multi-chunk batch);
* ``test_warm_calls_beat_cold_calls`` asserts the speedup;
* ``test_backend_throughput`` sets the vectorised engine beside the
  simulated GPU on one workload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.backends import (
    FilterBankCache,
    InferencePipeline,
    LUTCache,
    clear_caches,
    collect_reports,
    emulate_conv2d,
    shared_pipeline,
)
from repro.conv import CHUNK_SIZE
from repro.gpusim import GPUDevice, run_gpusim_chunk

MULTIPLIER = "mul8s_mitchell"


@pytest.fixture(scope="module")
def workload():
    """Setup-dominated case: small batch, wide filter bank."""
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(2, 8, 8, 16))
    filters = rng.normal(size=(3, 3, 16, 64))
    return inputs, filters


@pytest.fixture(scope="module")
def batch_workload():
    """Compute-dominated case: a large batch in one chunk."""
    rng = np.random.default_rng(1)
    inputs = rng.normal(size=(32, 12, 12, 8))
    filters = rng.normal(size=(3, 3, 8, 16))
    return inputs, filters


@pytest.fixture(scope="module")
def chunked_workload():
    """A batch of eight chunks of 4x4 images: 512 patch rows per chunk."""
    rng = np.random.default_rng(1)
    inputs = rng.normal(size=(8 * CHUNK_SIZE, 4, 4, 8))
    filters = rng.normal(size=(3, 3, 8, 16))
    return inputs, filters


@pytest.mark.benchmark(group="pipeline-cache")
def test_cold_pipeline_call(benchmark, workload):
    """Cold caches: every call pays LUT construction + filter setup."""
    inputs, filters = workload
    lut_cache, filter_cache = LUTCache(), FilterBankCache()
    pipeline = InferencePipeline(multiplier=MULTIPLIER,
                                 lut_cache=lut_cache, filter_cache=filter_cache)

    def cold_call():
        lut_cache.clear()
        filter_cache.clear()
        return pipeline.run(inputs, filters)

    benchmark(cold_call)
    # clear() resets the counters: they hold the last call's lookups.
    assert lut_cache.stats_snapshot().misses == 1
    assert filter_cache.stats_snapshot().misses == 1


@pytest.mark.benchmark(group="pipeline-cache")
def test_warm_pipeline_call(benchmark, workload):
    """Steady state: LUT and filter bank come from the caches."""
    inputs, filters = workload
    lut_cache, filter_cache = LUTCache(), FilterBankCache()
    pipeline = InferencePipeline(multiplier=MULTIPLIER,
                                 lut_cache=lut_cache, filter_cache=filter_cache)
    pipeline.run(inputs, filters)  # prime

    benchmark(pipeline.run, inputs, filters)
    # Only the priming call built anything; every timed call hit.
    for cache in (lut_cache, filter_cache):
        stats = cache.stats_snapshot()
        assert stats.misses == 1 and stats.hits >= 1


def test_warm_calls_beat_cold_calls(workload, bench_json):
    """Acceptance gate: cached calls are measurably faster than cold calls."""
    inputs, filters = workload
    pipeline = InferencePipeline(multiplier=MULTIPLIER)

    def timed_run():
        start = time.perf_counter()
        pipeline.run(inputs, filters)
        return time.perf_counter() - start

    cold, warm = [], []
    for _ in range(9):
        clear_caches()
        cold.append(timed_run())
    pipeline.run(inputs, filters)  # prime
    for _ in range(9):
        warm.append(timed_run())

    cold_median = statistics.median(cold)
    warm_median = statistics.median(warm)
    print(f"\ncold median {cold_median * 1e3:.2f} ms, "
          f"warm median {warm_median * 1e3:.2f} ms, "
          f"speedup {cold_median / warm_median:.2f}x")
    bench_json("pipeline_cache", {
        "cold_median_seconds": cold_median,
        "warm_median_seconds": warm_median,
        "warm_vs_cold_speedup": cold_median / warm_median,
    })
    assert warm_median < cold_median, (
        f"cached calls ({warm_median:.4f}s) should beat cold calls "
        f"({cold_median:.4f}s)"
    )


@pytest.mark.benchmark(group="pipeline-cache")
def test_sequential_batch(benchmark, chunked_workload):
    """Steady state over a batch of eight chunks, run in order."""
    inputs, filters = chunked_workload
    pipeline = InferencePipeline(multiplier=MULTIPLIER)
    pipeline.run(inputs, filters)  # prime

    benchmark(pipeline.run, inputs, filters)
    with collect_reports() as report:
        pipeline.run(inputs, filters)
    assert report.stats.chunks == 8


@pytest.mark.benchmark(group="pipeline-backends")
@pytest.mark.parametrize("backend", ["numpy", "gpusim"])
def test_backend_throughput(benchmark, batch_workload, backend):
    """Relative cost of the vectorised engine and the simulated GPU (one
    chunk on a fresh device per call) on the same workload.

    The direct loop is excluded: it is orders of magnitude slower
    by design (that gap is measured on a tiny case in
    ``test_bench_engines.py``).
    """
    inputs, filters = batch_workload
    assert len(inputs) == CHUNK_SIZE

    def gpusim():
        prepared = shared_pipeline().prepare(inputs, filters, MULTIPLIER)
        return run_gpusim_chunk(GPUDevice(), inputs, prepared)

    run = {"numpy": lambda: emulate_conv2d(inputs, filters, MULTIPLIER),
           "gpusim": gpusim}[backend]
    out = benchmark(run)
    assert out.shape == (32, 12, 12, 16)
