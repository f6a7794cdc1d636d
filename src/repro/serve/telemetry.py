"""Service-level telemetry: queue depth, occupancy, latency, cache heat.

The batch-size cap and the worker count trade latency for throughput, and
the telemetry exists to make that trade visible: the batch-occupancy
histogram shows how full the coalesced batches actually run, the latency
percentiles show what queueing behind busy workers costs, and the cache
hit-rates (read race-free via
:meth:`~repro.backends.cache._BoundedCache.stats_snapshot`) show whether the
LUT/filter-bank amortisation the paper's speedup relies on is happening.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from ..backends.cache import CacheStats, cache_stats
from ..evaluation.latency import LatencyStats

#: Retention bounds: telemetry must never grow without bound in a
#: long-running service, so latency samples and batch records are kept in
#: fixed-size rings (newest win).  Counters and the occupancy histogram are
#: exact over the whole service lifetime.
MAX_LATENCY_SAMPLES = 65_536
MAX_BATCH_RECORDS = 8_192


@dataclass(frozen=True)
class BatchRecord:
    """One executed micro-batch: admission key, members and shape.

    ``wall_time_s`` is the worker's own timing of the batch's
    :meth:`~repro.serve.session.ModelSession.run`.
    """

    key: Hashable
    request_ids: tuple[str, ...]
    samples: int
    wall_time_s: float


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Point-in-time copy of the service counters (safe to hold)."""

    submitted: int
    completed: int
    failed: int
    batches: int
    queue_depth: int
    occupancy: dict[int, int]
    latency: LatencyStats | None
    lut_cache: CacheStats
    filter_cache: CacheStats

    @property
    def mean_occupancy(self) -> float:
        """Average samples per executed batch."""
        total = sum(size * count for size, count in self.occupancy.items())
        batches = sum(self.occupancy.values())
        return total / batches if batches else 0.0

    def to_json(self) -> dict:
        """Plain-data representation for reports and archival."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "batches": self.batches,
            "queue_depth": self.queue_depth,
            "mean_occupancy": self.mean_occupancy,
            "occupancy": {str(k): v for k, v in sorted(self.occupancy.items())},
            "latency": self.latency.to_json() if self.latency else None,
            "caches": {
                "lut": {"hits": self.lut_cache.hits,
                        "misses": self.lut_cache.misses},
                "filters": {"hits": self.filter_cache.hits,
                            "misses": self.filter_cache.misses},
            },
        }

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"requests: {self.submitted} submitted, {self.completed} "
            f"completed, {self.failed} failed, {self.queue_depth} queued",
            f"batches: {self.batches} "
            f"(mean occupancy {self.mean_occupancy:.1f} samples)",
            f"caches: lut {self.lut_cache.hits}h/{self.lut_cache.misses}m  "
            f"filters {self.filter_cache.hits}h/{self.filter_cache.misses}m",
        ]
        if self.latency is not None:
            lines.append(f"latency: {self.latency.summary()}")
        return "\n".join(lines)


@dataclass
class ServiceTelemetry:
    """Thread-safe accumulator behind :meth:`EmulationService.telemetry`."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    occupancy: dict[int, int] = field(default_factory=dict)
    _latencies: deque = field(
        default_factory=lambda: deque(maxlen=MAX_LATENCY_SAMPLES))
    _batch_log: deque = field(
        default_factory=lambda: deque(maxlen=MAX_BATCH_RECORDS))
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record_submit(self, requests: int = 1) -> None:
        """Count newly admitted requests (negative undoes a failed enqueue)."""
        with self._lock:
            self.submitted += requests

    def record_batch(self, record: BatchRecord,
                     latencies: list[float]) -> None:
        """Count one executed batch and its per-request latencies."""
        with self._lock:
            self.batches += 1
            self.completed += len(record.request_ids)
            self.occupancy[record.samples] = (
                self.occupancy.get(record.samples, 0) + 1)
            self._latencies.extend(latencies)
            self._batch_log.append(record)

    def record_failure(self, requests: int) -> None:
        """Count requests that completed with an error."""
        with self._lock:
            self.failed += requests

    def batch_log(self) -> list[BatchRecord]:
        """Recent executed batches, oldest first (bounded ring)."""
        with self._lock:
            return list(self._batch_log)

    def snapshot(self, queue_depth: int = 0) -> TelemetrySnapshot:
        """Consistent copy of every counter plus the shared-cache stats."""
        caches = cache_stats()
        with self._lock:
            latency = (LatencyStats.from_samples(self._latencies)
                       if self._latencies else None)
            return TelemetrySnapshot(
                submitted=self.submitted,
                completed=self.completed,
                failed=self.failed,
                batches=self.batches,
                queue_depth=queue_depth,
                occupancy=dict(self.occupancy),
                latency=latency,
                lut_cache=caches["lut"],
                filter_cache=caches["filters"],
            )
