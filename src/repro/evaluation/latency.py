"""Latency distribution summaries for serving and replay reports.

The emulation service adds queueing delay behind busy workers on top of the
execution time, so its telemetry reports the latency *distribution*, not
just a mean: the p99 is where a queueing regression shows up first.  :class:`LatencyStats` is the shared summary
structure — built once from a sample list, JSON-friendly, deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample set (all fields in seconds).

    Percentiles use linear interpolation between order statistics, so the
    summary of a fixed sample list is bit-deterministic.

    >>> stats = LatencyStats.from_samples([0.010, 0.020, 0.030, 0.040])
    >>> stats.count, stats.p50_s
    (4, 0.025)
    >>> round(stats.mean_s, 3)
    0.025
    """

    count: int
    mean_s: float
    p50_s: float
    p90_s: float
    p99_s: float
    min_s: float
    max_s: float

    @staticmethod
    def from_samples(samples) -> "LatencyStats":
        """Summarise a non-empty sequence of latencies (seconds)."""
        values = np.asarray(list(samples), dtype=np.float64)
        if values.size == 0:
            raise ConfigurationError(
                "cannot summarise an empty latency sample set")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ConfigurationError(
                "latency samples must be finite and non-negative")
        return LatencyStats(
            count=int(values.size),
            mean_s=float(values.mean()),
            p50_s=float(np.percentile(values, 50)),
            p90_s=float(np.percentile(values, 90)),
            p99_s=float(np.percentile(values, 99)),
            min_s=float(values.min()),
            max_s=float(values.max()),
        )

    def to_json(self) -> dict:
        """Plain-data representation (keys carry the ``_s`` unit suffix)."""
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p90_s": self.p90_s,
            "p99_s": self.p99_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    def summary(self) -> str:
        """One-line human-readable digest (milliseconds)."""
        return (
            f"n={self.count} mean={self.mean_s * 1e3:.2f}ms "
            f"p50={self.p50_s * 1e3:.2f}ms p90={self.p90_s * 1e3:.2f}ms "
            f"p99={self.p99_s * 1e3:.2f}ms max={self.max_s * 1e3:.2f}ms"
        )
