"""Batched inference pipeline: caching, sharding and unified accounting.

The paper's headline result is that emulation becomes usable once per-call
setup is amortised and the bulk work is executed by an efficient engine.
:class:`InferencePipeline` is that idea applied to this reproduction's own
hot path:

* the multiplier lookup table and the quantised/flattened filter bank are
  resolved through the process-wide caches of :mod:`repro.backends.cache`,
  so repeated calls with the same accelerator configuration skip the
  256x256-product table construction and the filter-side half of
  ``ComputeCoeffs`` entirely;
* large input batches are sharded into chunks executed across a thread pool
  (``max_workers``); shard outputs are concatenated in submission order, so
  results are deterministic and bit-identical to a sequential run;
* every run returns a :class:`RunReport` merging the functional operation
  counts (:class:`~repro.conv.approx_conv2d.ApproxConvStats`) with the
  simulated device's counters
  (:class:`~repro.gpusim.device.DeviceCounters`) when the ``gpusim``
  backend ran, plus cache hit/miss counters and the wall-clock time.
  :meth:`InferencePipeline.run` is the one place a convolution's work is
  counted: once per run, from the geometry.  A caller that wants the total
  over many runs -- a whole model's forward pass -- opens a
  :func:`collect_reports` scope around them.

:func:`emulate_conv2d` is the one-call spelling of the same machinery and
the recommended entry point for user code.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields

import numpy as np

from ..conv.approx_conv2d import (
    DEFAULT_CHUNK_SIZE,
    ApproxConvStats,
    PreparedConv,
    quantize_filter_bank,
    split_chunks,
    validate_conv_operands,
    resolve_quant_params,
)
from ..conv.padding import resolve_geometry
from ..errors import ConfigurationError
from ..gpusim.device import DeviceCounters
from ..lut.table import LookupTable
from ..multipliers.base import Multiplier
from ..quantization.affine import IntegerRange
from ..quantization.ranges import TensorRange
from ..quantization.rounding import RoundMode
from .cache import (
    DEFAULT_FILTER_CACHE,
    DEFAULT_LUT_CACHE,
    CacheStats,
    FilterBankCache,
    LUTCache,
    PreparedFilterBank,
)
from .registry import get_backend


@dataclass
class RunReport:
    """Unified accounting of one pipeline run (any backend).

    Merges the two accounting structures the seed code kept separate: the
    engine-agnostic operation counts every backend reports (``stats``) and
    the simulated device's counters and launch records (``gpu``), populated
    only when the ``gpusim`` backend executed the run.  The cache counters
    are deltas over this run, not lifetime totals, so a caller can assert
    "the second call hit the cache" without bookkeeping of its own.
    """

    backend: str = ""
    lut_name: str = ""
    batch: int = 0
    chunk_size: int = 0
    workers: int = 1
    wall_time_s: float = 0.0
    lut_cache: CacheStats = field(default_factory=CacheStats)
    filter_cache: CacheStats = field(default_factory=CacheStats)
    stats: ApproxConvStats = field(default_factory=ApproxConvStats)
    gpu: DeviceCounters | None = None

    def merge(self, other: "RunReport") -> None:
        """Accumulate another run's accounting (e.g. a multi-layer sweep).

        Counters add up; the configuration fields (backend, chunk size,
        workers, LUT name) describe the latest run merged in.
        """
        self.batch += other.batch
        self.wall_time_s += other.wall_time_s
        for mine, theirs in ((self.stats, other.stats),
                             (self.lut_cache, other.lut_cache),
                             (self.filter_cache, other.filter_cache)):
            for counter in fields(mine):
                setattr(mine, counter.name, getattr(mine, counter.name)
                        + getattr(theirs, counter.name))
        if other.gpu is not None:
            if self.gpu is None:
                self.gpu = DeviceCounters()
            self.gpu.merge(other.gpu)
        if other.lut_name:
            self.lut_name = other.lut_name
        if other.backend:
            self.backend = other.backend
            self.chunk_size = other.chunk_size
            self.workers = other.workers

    def summary(self) -> str:
        """Compact human-readable digest used by examples and benchmarks."""
        lines = [
            f"backend={self.backend} lut={self.lut_name} "
            f"batch={self.batch} chunks={self.stats.chunks} "
            f"workers={self.workers}",
            f"wall time: {self.wall_time_s * 1e3:.2f} ms",
            f"MACs: {self.stats.macs:,}  "
            f"quantised: {self.stats.quantized_values:,}  "
            f"outputs: {self.stats.output_values:,}",
            f"caches: lut {self.lut_cache.hits}h/{self.lut_cache.misses}m  "
            f"filters {self.filter_cache.hits}h/{self.filter_cache.misses}m",
        ]
        if self.gpu is not None:
            lines.append(
                f"gpu: {self.gpu.kernel_launches} launches, "
                f"{self.gpu.texture_fetches:,} texture fetches, "
                f"{self.gpu.atomic_adds:,} atomicAdds"
            )
        return "\n".join(lines)


#: Reports of the :func:`collect_reports` scopes open in the current context.
_SCOPES: ContextVar[tuple[RunReport, ...]] = ContextVar(
    "repro_report_scopes", default=())


@contextmanager
def collect_reports() -> Iterator[RunReport]:
    """Collect the :class:`RunReport` of every pipeline run in the block.

    Each :meth:`InferencePipeline.run` on the calling thread merges its
    report into every scope open there (scopes nest), so wrapping a graph
    execution yields the whole model's accounting.  Context variables do
    not follow work into other threads: a run on a pool thread reaches only
    the scopes opened on that thread.
    """
    report = RunReport()
    token = _SCOPES.set(_SCOPES.get() + (report,))
    try:
        yield report
    finally:
        _SCOPES.reset(token)


@dataclass(frozen=True)
class RunResult:
    """Output tensor plus the :class:`RunReport` of one pipeline run."""

    output: np.ndarray
    report: RunReport


def _cache_delta(after: CacheStats, before: CacheStats) -> CacheStats:
    return CacheStats(
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        evictions=after.evictions - before.evictions,
        invalidations=after.invalidations - before.invalidations,
    )


class InferencePipeline:
    """High-throughput entry point over the convolution backends.

    Parameters
    ----------
    backend:
        Name of the execution engine: ``numpy``, ``cpusim`` or ``gpusim``.
    multiplier:
        Default multiplier for :meth:`run` calls that do not pass their own:
        a library name, a behavioural model or a pre-built lookup table.
    chunk_size:
        Images per shard (Algorithm 1's constant chunk size).
    max_workers:
        Thread-pool width for shard execution.  ``1`` (the default) runs
        shards inline; larger values overlap shards, which pays off for the
        NumPy backend whose heavy ops release the GIL.
    round_mode:
        Rounding applied during quantisation; see
        :func:`repro.conv.approx_conv2d.approx_conv2d`.
    lut_cache, filter_cache:
        Cache instances to use; default to the process-wide shared caches.

    Thread safety: :meth:`run` / :meth:`prepare` only read
    the pipeline's configuration and go through the thread-safe caches, so
    one pipeline instance may serve concurrent calls from many threads (the
    serving layer does exactly that).  Mutating the configuration attributes
    while calls are in flight is the one thing that is not synchronised.
    """

    def __init__(self, backend: str = "numpy", *,
                 multiplier: str | Multiplier | LookupTable | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 max_workers: int = 1,
                 round_mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO,
                 lut_cache: LUTCache | None = None,
                 filter_cache: FilterBankCache | None = None) -> None:
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        if max_workers <= 0:
            raise ConfigurationError("max_workers must be positive")
        # Resolve eagerly so configuration errors surface at build time.
        self._run_chunk = get_backend(backend)
        self.backend = backend
        self.multiplier = multiplier
        self.chunk_size = chunk_size
        self.max_workers = max_workers
        self.round_mode = RoundMode.from_any(round_mode)
        self.lut_cache = lut_cache if lut_cache is not None else DEFAULT_LUT_CACHE
        self.filter_cache = (
            filter_cache if filter_cache is not None else DEFAULT_FILTER_CACHE)

    # ------------------------------------------------------------------
    def prepare(self, inputs: np.ndarray, filters: np.ndarray,
                multiplier: str | Multiplier | LookupTable | None = None, *,
                strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                input_range: TensorRange | tuple[float, float] | None = None,
                filter_range: TensorRange | tuple[float, float] | None = None,
                qrange: IntegerRange | None = None) -> PreparedConv:
        """Resolve LUT + coefficients + filter bank through the caches.

        This is the cached equivalent of
        :func:`repro.conv.approx_conv2d.prepare_conv2d`: the lookup table
        comes from the :class:`~repro.backends.cache.LUTCache` and the
        filter-side work from the
        :class:`~repro.backends.cache.FilterBankCache`; only the (cheap,
        batch-dependent) input-side ``ComputeCoeffs`` runs unconditionally.
        The geometry (as for :meth:`run`) gives the patch rows of a chunk,
        which decide whether a bank used again comes with its ``rowgather``
        table (:meth:`FilterBankCache.row_table`).
        """
        chosen = multiplier if multiplier is not None else self.multiplier
        if chosen is None:
            raise ConfigurationError(
                "no multiplier: pass one to run()/prepare() or set a "
                "pipeline default"
            )
        lut = self.lut_cache.resolve(chosen)
        if qrange is None:
            qrange = IntegerRange.for_bits(lut.bit_width, signed=lut.signed)
        validate_conv_operands(inputs, filters, lut, qrange)
        kh, kw, channels, count = filters.shape

        input_q = resolve_quant_params(
            inputs, input_range, qrange, self.round_mode)

        def build() -> PreparedFilterBank:
            filter_q = resolve_quant_params(
                filters, filter_range, qrange, self.round_mode)
            flat, sf = quantize_filter_bank(filters, filter_q)
            return PreparedFilterBank(
                filter_q=filter_q, flat_filters=flat, filter_sums=sf)

        bank = self.filter_cache.resolve(
            filters, qrange=qrange, round_mode=self.round_mode,
            filter_range=filter_range, build=build,
        )
        table = None
        if self.backend == "numpy":
            geometry = resolve_geometry(
                inputs.shape[1], inputs.shape[2], kh, kw,
                strides=strides, dilations=dilations, padding=padding)
            rows = (min(self.chunk_size, inputs.shape[0])
                    * geometry.output_height * geometry.output_width)
            table = self.filter_cache.row_table(bank, lut, rows)
        return PreparedConv(
            lut=lut, input_q=input_q, filter_q=bank.filter_q,
            flat_filters=bank.flat_filters, filter_sums=bank.filter_sums,
            kernel_height=kh, kernel_width=kw, channels=channels,
            filter_count=count, row_table=table,
        )

    # ------------------------------------------------------------------
    def run(self, inputs: np.ndarray, filters: np.ndarray,
            multiplier: str | Multiplier | LookupTable | None = None, *,
            strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
            input_range: TensorRange | tuple[float, float] | None = None,
            filter_range: TensorRange | tuple[float, float] | None = None,
            qrange: IntegerRange | None = None) -> RunResult:
        """Run one batched approximate convolution; returns output + report."""
        start_time = time.perf_counter()
        lut_before = self.lut_cache.stats_snapshot()
        filters_before = self.filter_cache.stats_snapshot()

        prepared = self.prepare(
            inputs, filters, multiplier,
            strides=strides, dilations=dilations, padding=padding,
            input_range=input_range, filter_range=filter_range, qrange=qrange,
        )

        shards = split_chunks(inputs.shape[0], self.chunk_size)

        def run_shard(bounds: tuple[int, int]):
            start, stop = bounds
            return self._run_chunk(
                inputs[start:stop], prepared, strides, dilations, padding)

        if self.max_workers > 1 and len(shards) > 1:
            workers = min(self.max_workers, len(shards))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                # executor.map preserves submission order, so concatenation
                # below is deterministic regardless of completion order.
                results = list(pool.map(run_shard, shards))
        else:
            workers = 1
            results = [run_shard(bounds) for bounds in shards]

        output = np.concatenate([out for out, _ in results], axis=0)
        filter_cache = _cache_delta(
            self.filter_cache.stats_snapshot(), filters_before)
        report = RunReport(
            backend=self.backend,
            lut_name=prepared.lut.name,
            batch=int(inputs.shape[0]),
            chunk_size=self.chunk_size,
            workers=workers,
            lut_cache=_cache_delta(self.lut_cache.stats_snapshot(), lut_before),
            filter_cache=filter_cache,
            stats=ApproxConvStats.of_run(
                inputs, prepared, output, len(shards),
                filters_quantized=filter_cache.misses > 0),
        )
        for _, gpu in results:
            if gpu is not None:
                if report.gpu is None:
                    report.gpu = DeviceCounters()
                report.gpu.merge(gpu)
        report.wall_time_s = time.perf_counter() - start_time
        for scope in _SCOPES.get():
            scope.merge(report)
        return RunResult(output=output, report=report)


def emulate_conv2d(inputs: np.ndarray, filters: np.ndarray,
                   multiplier: str | Multiplier | LookupTable, *,
                   backend: str = "numpy",
                   strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                   input_range: TensorRange | tuple[float, float] | None = None,
                   filter_range: TensorRange | tuple[float, float] | None = None,
                   qrange: IntegerRange | None = None,
                   round_mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   max_workers: int = 1) -> np.ndarray:
    """Emulate one approximate convolution on the named backend.

    The single-call public API of the library: pick a multiplier (by library
    name, behavioural model or pre-built LUT) and a backend, get the NHWC
    float output.  Lookup tables and filter banks are cached process-wide,
    so sweeping a batch stream through the same accelerator configuration
    only pays the setup cost once.  Open a :func:`collect_reports` scope
    around the call to receive the unified accounting of the run.

    >>> y = emulate_conv2d(x, w, "mul8s_mitchell")            # doctest: +SKIP
    >>> with collect_reports() as report:                     # doctest: +SKIP
    ...     y = emulate_conv2d(x, w, "mul8u_drum4", backend="gpusim")
    """
    pipeline = shared_pipeline(
        backend, chunk_size=chunk_size, max_workers=max_workers,
        round_mode=round_mode)
    return pipeline.run(
        inputs, filters, multiplier,
        strides=strides, dilations=dilations, padding=padding,
        input_range=input_range, filter_range=filter_range, qrange=qrange,
    ).output


_SHARED_PIPELINES: dict[tuple, InferencePipeline] = {}
_SHARED_PIPELINES_LOCK = threading.Lock()


def shared_pipeline(backend: str = "numpy", *,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    max_workers: int = 1,
                    round_mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO
                    ) -> InferencePipeline:
    """Process-wide :class:`InferencePipeline` for one configuration.

    Returns the same instance for equal configurations, so independent
    callers share one thread-safe handle instead of constructing throwaway
    pipelines -- :func:`emulate_conv2d` routes every call through here, and
    user threads can hold a handle directly.  Shared pipelines always use
    the default process-wide caches -- that is the point of sharing them --
    and never carry a default multiplier, so callers state theirs per call
    and cannot observe each other's.
    """
    key = (backend, int(chunk_size), int(max_workers),
           RoundMode.from_any(round_mode))
    with _SHARED_PIPELINES_LOCK:
        pipeline = _SHARED_PIPELINES.get(key)
        if pipeline is None:
            pipeline = InferencePipeline(
                backend, chunk_size=chunk_size, max_workers=max_workers,
                round_mode=round_mode)
            _SHARED_PIPELINES[key] = pipeline
        return pipeline
