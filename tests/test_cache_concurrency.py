"""Concurrency tests of the backend caches (invalidate vs in-flight builds).

The trainer invalidates superseded filter banks *while* other threads'
pipeline calls may be resolving banks for concurrent forward passes.
Builds intentionally run outside the cache lock, so an ``invalidate`` can
land between a miss and its insert; without the tombstone logic in
``_BoundedCache`` the late insert would resurrect the invalidated entry
(stale-entry race).  These tests pin the fix deterministically and stress it
with racing thread pools.  The last class checks that overlapping runs on
one pipeline each report their own work while the shared cache counts
every lookup once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.backends import InferencePipeline, collect_reports
from repro.backends.cache import FilterBankCache, LUTCache, PreparedFilterBank
from repro.quantization.affine import SIGNED_8BIT


def _resolve(cache: FilterBankCache, filters: np.ndarray, build):
    return cache.resolve(
        filters, qrange=SIGNED_8BIT, filter_range=None, build=build)


def _bank(filters: np.ndarray) -> PreparedFilterBank:
    # The tests only exercise cache mechanics; a bank stub is sufficient.
    return PreparedFilterBank(
        filter_q=None, flat_filters=filters.reshape(-1, filters.shape[-1]),
        filter_sums=filters.sum(axis=(0, 1, 2)))


class TestInvalidateVsInflightBuild:
    def test_invalidate_during_build_suppresses_the_insert(self):
        """Deterministic replay of the race the ISSUE names.

        Thread A misses and starts building; the main thread invalidates the
        digest while the build is in flight; A finishes.  The freshly built
        value must be returned to A but *not* cached -- before the fix the
        late insert resurrected the superseded bank.
        """
        cache = FilterBankCache()
        rng = np.random.default_rng(0)
        filters = rng.normal(size=(3, 3, 2, 4))
        digest = FilterBankCache.content_digest(filters)

        build_started = threading.Event()
        invalidated = threading.Event()

        def blocking_build() -> PreparedFilterBank:
            build_started.set()
            assert invalidated.wait(timeout=5.0)
            return _bank(filters)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_resolve, cache, filters, blocking_build)
            assert build_started.wait(timeout=5.0)
            cache.invalidate(digest)    # lands mid-build
            invalidated.set()
            result = future.result(timeout=5.0)

        assert isinstance(result, PreparedFilterBank)
        assert len(cache) == 0, "superseded bank was resurrected by the build"
        # The next resolve must rebuild (a hit here would serve stale data).
        fresh = _resolve(cache, filters, lambda: _bank(filters))
        assert isinstance(fresh, PreparedFilterBank)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_invalidate_of_other_digest_does_not_suppress_insert(self):
        cache = FilterBankCache()
        rng = np.random.default_rng(1)
        filters = rng.normal(size=(3, 3, 2, 4))
        other = rng.normal(size=(3, 3, 2, 4))

        build_started = threading.Event()
        proceed = threading.Event()

        def blocking_build() -> PreparedFilterBank:
            build_started.set()
            assert proceed.wait(timeout=5.0)
            return _bank(filters)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_resolve, cache, filters, blocking_build)
            assert build_started.wait(timeout=5.0)
            cache.invalidate(FilterBankCache.content_digest(other))
            proceed.set()
            future.result(timeout=5.0)

        assert len(cache) == 1  # unrelated invalidation must not drop it
        _resolve(cache, filters, lambda: pytest.fail("should be cached"))
        assert cache.stats.hits == 1

    def test_tombstones_are_cleared_once_builds_drain(self):
        cache = FilterBankCache()
        rng = np.random.default_rng(2)
        filters = rng.normal(size=(3, 3, 2, 4))
        digest = FilterBankCache.content_digest(filters)

        build_started = threading.Event()
        proceed = threading.Event()

        def blocking_build() -> PreparedFilterBank:
            build_started.set()
            assert proceed.wait(timeout=5.0)
            return _bank(filters)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_resolve, cache, filters, blocking_build)
            assert build_started.wait(timeout=5.0)
            cache.invalidate(digest)
            proceed.set()
            future.result(timeout=5.0)

        # No build in flight any more: the tombstone must not outlive the
        # concurrent window and block future caching of the same digest.
        _resolve(cache, filters, lambda: _bank(filters))
        assert len(cache) == 1

    def test_clear_during_build_suppresses_the_insert(self):
        """A build that began before clear() must not repopulate the cache.

        A cold benchmark phase calls clear() and expects the next resolve to
        miss; a pre-clear build completing late must not smuggle its entry
        (or a wiped tombstone's suppressed entry) back in.
        """
        cache = FilterBankCache()
        rng = np.random.default_rng(5)
        filters = rng.normal(size=(3, 3, 2, 4))
        digest = FilterBankCache.content_digest(filters)

        build_started = threading.Event()
        proceed = threading.Event()

        def blocking_build() -> PreparedFilterBank:
            build_started.set()
            assert proceed.wait(timeout=5.0)
            return _bank(filters)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(_resolve, cache, filters, blocking_build)
            assert build_started.wait(timeout=5.0)
            # The nastier interleaving: an invalidation is tombstoned, then
            # clear() wipes the tombstone set while the build is in flight.
            cache.invalidate(digest)
            cache.clear()
            proceed.set()
            result = future.result(timeout=5.0)

        assert isinstance(result, PreparedFilterBank)
        assert len(cache) == 0, "pre-clear build repopulated the cache"
        before = cache.stats.snapshot()
        _resolve(cache, filters, lambda: _bank(filters))
        assert cache.stats.misses - before.misses == 1

    def test_failed_build_releases_the_inflight_counter(self):
        cache = FilterBankCache()
        rng = np.random.default_rng(3)
        filters = rng.normal(size=(3, 3, 2, 4))

        def broken_build():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            _resolve(cache, filters, broken_build)
        # The counter drained, so tombstones from a later invalidation would
        # be dropped immediately and normal caching resumes.
        _resolve(cache, filters, lambda: _bank(filters))
        assert len(cache) == 1
        assert cache._inflight_builds == 0


class TestInvalidateStress:
    def test_invalidators_racing_warm_convolutions(self):
        """N threads invalidating while M threads run warm convolutions.

        Every run must succeed (no KeyError from entry bookkeeping) and
        produce bit-identical outputs regardless of how the invalidations
        interleave with the pipeline's own filter-bank resolution.
        """
        lut_cache = LUTCache()
        filter_cache = FilterBankCache()
        pipeline = InferencePipeline(
            multiplier="mul8s_exact",
            lut_cache=lut_cache, filter_cache=filter_cache,
        )
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(4, 8, 8, 3))
        filters = rng.normal(size=(3, 3, 3, 4))
        digest = FilterBankCache.content_digest(filters)
        reference = pipeline.run(inputs, filters)

        stop = threading.Event()
        errors: list[BaseException] = []

        def invalidator() -> None:
            while not stop.is_set():
                try:
                    filter_cache.invalidate(digest)
                except BaseException as exc:  # pragma: no cover - fail path
                    errors.append(exc)
                    return

        def runner() -> None:
            try:
                for _ in range(15):
                    output = pipeline.run(inputs, filters)
                    assert np.array_equal(output, reference)
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        invalidators = [threading.Thread(target=invalidator) for _ in range(3)]
        runners = [threading.Thread(target=runner) for _ in range(4)]
        for thread in invalidators + runners:
            thread.start()
        for thread in runners:
            thread.join(timeout=60.0)
        stop.set()
        for thread in invalidators:
            thread.join(timeout=10.0)

        assert not errors, errors
        assert not any(t.is_alive() for t in invalidators + runners)
        # The cache survived the storm in a consistent state: a final
        # invalidate-then-resolve cycle rebuilds exactly once.
        filter_cache.invalidate(digest)
        before = filter_cache.stats.snapshot()
        pipeline.run(inputs, filters)
        delta_misses = filter_cache.stats.misses - before.misses
        assert delta_misses == 1

class TestStatsSnapshot:
    """Regression: telemetry reads counters race-free via stats_snapshot().

    ``CacheStats`` is mutated under the cache lock, so a reader that touches
    the fields directly can interleave with a half-applied update (miss
    counted, matching eviction not yet).  ``stats_snapshot`` copies every
    counter under the lock; these tests pin the invariants a consistent
    snapshot must satisfy while resolves hammer the cache.
    """

    def test_snapshot_invariants_under_concurrent_resolves(self):
        cache = FilterBankCache(max_entries=4)
        rng = np.random.default_rng(0)
        banks = [rng.normal(size=(2, 2, 2, 3)) for _ in range(12)]
        stop = threading.Event()
        errors: list[BaseException] = []

        def resolver(offset: int) -> None:
            try:
                for step in range(300):
                    filters = banks[(step + offset) % len(banks)]
                    _resolve(cache, filters, lambda f=filters: _bank(f))
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        snapshots = []

        def observer() -> None:
            try:
                while not stop.is_set():
                    snapshots.append(cache.stats_snapshot())
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        resolvers = [threading.Thread(target=resolver, args=(i,))
                     for i in range(4)]
        watcher = threading.Thread(target=observer)
        watcher.start()
        for thread in resolvers:
            thread.start()
        for thread in resolvers:
            thread.join(timeout=60.0)
        stop.set()
        watcher.join(timeout=10.0)
        snapshots.append(cache.stats_snapshot())

        assert not errors, errors
        assert snapshots
        previous = None
        for snapshot in snapshots:
            # Counters only grow, and the derived properties hold on every
            # lock-consistent copy.
            assert snapshot.lookups == snapshot.hits + snapshot.misses
            assert 0.0 <= snapshot.hit_rate <= 1.0
            assert snapshot.evictions <= snapshot.misses
            if previous is not None:
                assert snapshot.hits >= previous.hits
                assert snapshot.misses >= previous.misses
                assert snapshot.evictions >= previous.evictions
            previous = snapshot

    def test_snapshot_matches_totals_at_quiescence(self):
        cache = LUTCache()
        cache.resolve("mul8s_exact")
        cache.resolve("mul8s_exact")
        cache.resolve("mul8s_trunc2")
        snapshot = cache.stats_snapshot()
        assert (snapshot.hits, snapshot.misses) == (1, 2)
        # The snapshot is a copy, not a live view.
        cache.resolve("mul8s_exact")
        assert snapshot.hits == 1
        assert cache.stats_snapshot().hits == 2


class TestConcurrentRunReports:
    """Regression: a run's report counts that run only.

    Two threads share one pipeline and its caches, as serve workers and
    DSE candidate threads do.  A report that copied the shared caches'
    counters over its own run also counted the other thread's lookups
    made meanwhile: the run on a cached bank reported a miss and the
    other bank's filters as quantised values.
    """

    ROUNDS = 40

    def test_overlapping_runs_count_only_their_own_work(self):
        lut_cache, filter_cache = LUTCache(), FilterBankCache()
        pipeline = InferencePipeline(
            multiplier="mul8s_mitchell",
            lut_cache=lut_cache, filter_cache=filter_cache,
        )
        rng = np.random.default_rng(12)
        inputs = rng.normal(size=(8, 16, 16, 16))
        cached = rng.normal(size=(3, 3, 16, 8))
        fresh = [rng.normal(size=cached.shape) for _ in range(self.ROUNDS)]
        pipeline.run(inputs, cached)

        # The barrier's action runs once each time both threads arrive:
        # before and after every round, with no run in flight.
        snapshots = []
        barrier = threading.Barrier(
            2, action=lambda: snapshots.append(filter_cache.stats_snapshot()))
        reports: dict[str, list] = {"cached": [], "fresh": []}
        errors: list[BaseException] = []

        def runner(kind: str) -> None:
            try:
                for round_ in range(self.ROUNDS):
                    filters = cached if kind == "cached" else fresh[round_]
                    barrier.wait(timeout=30.0)
                    with collect_reports() as report:
                        pipeline.run(inputs, filters)
                    reports[kind].append(report)
                    barrier.wait(timeout=30.0)
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=runner, args=(kind,))
                   for kind in reports]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        for kind, runs in reports.items():
            assert len(runs) == self.ROUNDS
            for round_, report in enumerate(runs):
                assert report.stats.quantized_values == inputs.size, (
                    kind, round_)
        assert len(snapshots) == 2 * self.ROUNDS
        for round_ in range(self.ROUNDS):
            before, after = snapshots[2 * round_], snapshots[2 * round_ + 1]
            assert after.hits - before.hits == 1, round_
            assert after.misses - before.misses == 1, round_


class TestBoundReplicas:
    """Two serve workers run bound replicas of one session at once.

    Each replica is its own graph, so its ``AxConv2D`` nodes bind their own
    plans, over the banks and row tables the replicas share in the default
    filter cache.  Outputs must not depend on which thread or replica ran
    a sample, also when the plans are dropped (``clear_caches``) while
    both threads run; once both replicas are bound, a round makes no
    filter-cache lookup at all.
    """

    ROUNDS = 30

    def test_two_threads_on_bound_replicas(self):
        from repro.backends import DEFAULT_FILTER_CACHE, clear_caches
        from repro.models import build_simple_cnn
        from repro.serve import EmulationService, ServiceConfig

        clear_caches()
        service = EmulationService(ServiceConfig(workers=2))
        service.register_model(
            "cnn", lambda: build_simple_cnn(input_size=16, seed=0),
            calibration_samples=8)
        session = service.session("cnn", "mul8s_mitchell")
        rng = np.random.default_rng(21)
        inputs = [rng.uniform(0, 1, (1, 16, 16, 3)) for _ in range(2)]
        expected = [session.run(x)[0] for x in inputs]

        barrier = threading.Barrier(2)
        outputs: dict[int, list] = {0: [], 1: []}
        lookups: list[int] = []
        errors: list[BaseException] = []

        def runner(index: int) -> None:
            try:
                for round_ in range(self.ROUNDS):
                    if barrier.wait(timeout=30.0) == 0:
                        if round_ == self.ROUNDS // 2:
                            clear_caches()
                        lookups.append(
                            DEFAULT_FILTER_CACHE.stats_snapshot().lookups)
                    barrier.wait(timeout=30.0)
                    outputs[index].append(session.run(inputs[index])[0])
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=runner, args=(index,))
                   for index in outputs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)

        assert not errors, errors
        assert not any(thread.is_alive() for thread in threads)
        for index, runs in outputs.items():
            assert len(runs) == self.ROUNDS
            for out in runs:
                assert np.array_equal(out, expected[index]), index
        # Bound by the last rounds before and after the clear: no lookups.
        half = self.ROUNDS // 2
        assert lookups[half - 1] == lookups[half - 5]
        assert lookups[-1] == lookups[-5]
