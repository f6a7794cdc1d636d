"""DSE throughput: candidates/s and cache sharing across a whole search.

The tentpole claim of the DSE engine is that the process-wide LUT and
filter-bank caches turn a search from "every candidate pays full setup" into
"the whole search pays setup once": every candidate rebuilds the model with
identical weights, so one quantised bank per conv layer and one 256x256
table per catalogue multiplier serve all candidates.  This module measures

* ``cold``: a search started with empty caches (first-ever search in a
  process);
* ``warm``: the same search repeated with the caches primed (steady state
  of an exploration campaign, e.g. re-running with a new seed or strategy);

and writes ``BENCH_dse.json`` with candidates/s for both plus the cache-hit
ratios, asserting the warm search actually re-used the cached state
(hit ratio > 0 -- the acceptance gate of the DSE PR).
"""

from __future__ import annotations

import time

import pytest

from repro.backends.cache import (DEFAULT_FILTER_CACHE, DEFAULT_LUT_CACHE,
                                  CacheStats, clear_caches)
from repro.datasets import generate_cifar_like
from repro.dse import make_calibrated_builder, search
from repro.models import build_simple_cnn

CATALOGUE = ["mul8s_exact", "mul8s_udm", "mul8s_trunc2", "mul8s_mitchell"]
BUDGET = 8


@pytest.fixture(scope="module")
def dse_case():
    """Calibrated builder + evaluation split of the benchmark search."""
    calibration = generate_cifar_like(64, seed=3, image_size=16, noise=0.4)
    evaluation = generate_cifar_like(24, seed=29, image_size=16, noise=0.4)

    def base_builder():
        return build_simple_cnn(input_size=16, seed=0)

    return make_calibrated_builder(base_builder, calibration), evaluation


def run_search(dse_case, seed: int = 0):
    builder, evaluation = dse_case
    return search(
        builder, evaluation, catalogue=CATALOGUE, strategy="random",
        budget=BUDGET, seed=seed, batch_size=12,
    )


def counted_search(dse_case):
    """One search and the default LUT and filter caches' hits and misses
    over it: ``(report, lut_counts, filter_counts)``."""
    caches = (DEFAULT_LUT_CACHE, DEFAULT_FILTER_CACHE)
    before = [cache.stats_snapshot() for cache in caches]
    report = run_search(dse_case)
    counts = [CacheStats(hits=after.hits - prior.hits,
                         misses=after.misses - prior.misses)
              for prior, after in zip(
                  before, [cache.stats_snapshot() for cache in caches])]
    return report, *counts


@pytest.mark.benchmark(group="dse")
def test_cold_search(benchmark, dse_case):
    """First-ever search: every LUT and filter bank is built from scratch."""
    def cold():
        clear_caches()
        return counted_search(dse_case)

    report, lut, filters = benchmark(cold)
    assert report.evaluations == BUDGET
    assert lut.misses > 0
    assert filters.misses > 0


@pytest.mark.benchmark(group="dse")
def test_warm_search(benchmark, dse_case):
    """Steady state: the campaign's caches serve every candidate."""
    clear_caches()
    run_search(dse_case)  # prime

    report, lut, filters = benchmark(counted_search, dse_case)
    assert report.evaluations == BUDGET
    assert lut.misses == 0
    assert filters.misses == 0


def test_warm_search_reuses_caches(dse_case, bench_json):
    """Acceptance gate: warm searches re-use cached LUTs and filter banks."""
    clear_caches()
    start = time.perf_counter()
    cold, cold_lut, cold_filters = counted_search(dse_case)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm, warm_lut, warm_filters = counted_search(dse_case)
    warm_seconds = time.perf_counter() - start

    cold_hit_ratio = cold_filters.hit_rate
    warm_hit_ratio = warm_filters.hit_rate
    payload = {
        "budget": BUDGET,
        "cold_candidates_per_s": cold.evaluations / cold_seconds,
        "warm_candidates_per_s": warm.evaluations / warm_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_filter_cache_hit_ratio": cold_hit_ratio,
        "warm_filter_cache_hit_ratio": warm_hit_ratio,
        "cold_lut_cache_hit_ratio": cold_lut.hit_rate,
        "warm_lut_cache_hit_ratio": warm_lut.hit_rate,
    }
    print("\n" + "\n".join(f"{key}: {value:.3f}" if isinstance(value, float)
                           else f"{key}: {value}"
                           for key, value in sorted(payload.items())))
    bench_json("dse", payload)

    # The warm search must actually share state with the cold one...
    assert warm_hit_ratio > 0
    assert warm_lut.hit_rate > 0
    assert warm_lut.misses == 0
    assert warm_filters.misses == 0
    # ...and even the cold search shares across its own candidates.
    assert cold_hit_ratio > 0
    # Outcomes are independent of cache temperature.
    assert warm.front.to_json() == cold.front.to_json()


def test_concurrent_search_matches_sequential(dse_case):
    """Thread-pool candidate evaluation changes wall time, never results."""
    clear_caches()
    sequential = run_search(dse_case, seed=5)

    builder, evaluation = dse_case
    threaded = search(
        builder, evaluation, catalogue=CATALOGUE, strategy="random",
        budget=BUDGET, seed=5, batch_size=12, max_workers=4,
    )
    assert threaded.front.to_json() == sequential.front.to_json()