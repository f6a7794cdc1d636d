"""Batched inference pipeline: caching, chunking and unified accounting.

The paper's headline result is that emulation becomes usable once per-call
setup is amortised and the bulk work is executed by an efficient engine.
:class:`InferencePipeline` is that idea applied to this reproduction's own
hot path:

* the multiplier lookup table and the quantised/flattened filter bank are
  resolved through the process-wide caches of :mod:`repro.backends.cache`,
  so repeated calls with the same accelerator configuration skip the
  256x256-product table construction and the filter-side half of
  ``ComputeCoeffs`` entirely;
* input batches are split into chunks of
  :data:`~repro.conv.approx_conv2d.CHUNK_SIZE` images (Algorithm 1's chunk
  loop; :meth:`InferencePipeline.run` is its one driver), run in order and
  concatenated;
* each chunk runs through the vectorised engine,
  :func:`~repro.conv.approx_conv2d.approx_conv2d_chunk` (Im2Cols +
  LUT-GEMM + Eq. 4).  The ALWANN direct loop
  (:func:`~repro.conv.reference.approx_conv2d_direct`) and the simulated
  CUDA device (:func:`~repro.gpusim.engine.run_gpusim_chunk`) are plain
  functions the tests check this engine against, not engines to pick;
* :meth:`InferencePipeline.run_prepared`, the back half of every
  :meth:`~InferencePipeline.run` and all a bound
  :class:`~repro.graph.ops.AxConv2D` runs, is the one place a
  convolution's work is counted: once per run, from the geometry, into a
  :class:`RunReport` that reaches callers only through a
  :func:`collect_reports` scope (a whole model's forward pass, say), and is
  built only while one is open.  Cache hits and misses
  are counted once, by the caches themselves
  (:class:`~repro.backends.cache.CacheStats`), and wall time by whichever
  caller owns the clock.

:func:`emulate_conv2d` is the one-call spelling of the same machinery and
the recommended entry point for user code.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields

import numpy as np

from ..conv.approx_conv2d import (
    CHUNK_SIZE,
    ApproxConvStats,
    PreparedConv,
    approx_conv2d_chunk,
    quantize_filter_bank,
    validate_conv_operands,
    resolve_quant_params,
)
from ..conv.padding import resolve_geometry
from ..errors import ConfigurationError, ShapeError
from ..lut.table import LookupTable
from ..multipliers.base import Multiplier
from .cache import (
    DEFAULT_FILTER_CACHE,
    DEFAULT_LUT_CACHE,
    FilterBankCache,
    LUTCache,
    PreparedFilterBank,
)


@dataclass
class RunReport:
    """Accounting of the pipeline runs inside one :func:`collect_reports` scope.

    Totals the geometry-derived operation counts (``stats``) and the batch
    sizes of the runs.  It counts the runs' work only: whether a run's table
    and filter bank came from a cache is the caches' own count, which a
    concurrent run on another thread cannot mix into this report.
    """

    lut_name: str = ""
    batch: int = 0
    stats: ApproxConvStats = field(default_factory=ApproxConvStats)

    def merge(self, other: "RunReport") -> None:
        """Accumulate another run's accounting (e.g. a multi-layer sweep).

        Counters add up; the LUT name describes the latest run merged in.
        """
        self.batch += other.batch
        for counter in fields(self.stats):
            setattr(self.stats, counter.name,
                    getattr(self.stats, counter.name)
                    + getattr(other.stats, counter.name))
        if other.lut_name:
            self.lut_name = other.lut_name

    def summary(self) -> str:
        """Compact human-readable digest used by examples and benchmarks."""
        return (
            f"lut={self.lut_name} batch={self.batch} "
            f"chunks={self.stats.chunks}\n"
            f"MACs: {self.stats.macs:,}  "
            f"quantised: {self.stats.quantized_values:,}  "
            f"outputs: {self.stats.output_values:,}"
        )


#: Reports of the :func:`collect_reports` scopes open in the current context.
_SCOPES: ContextVar[tuple[RunReport, ...]] = ContextVar(
    "repro_report_scopes", default=())


@contextmanager
def collect_reports() -> Iterator[RunReport]:
    """Collect the :class:`RunReport` of every pipeline run in the block.

    Each :meth:`InferencePipeline.run` (or
    :meth:`~InferencePipeline.run_prepared`) on the calling thread merges its
    report into every scope open there (scopes nest), so wrapping a graph
    execution yields the whole model's accounting.  Context variables do
    not follow work into other threads: a run on another thread (a serve
    worker, say) reaches only the scopes opened on that thread.
    """
    report = RunReport()
    token = _SCOPES.set(_SCOPES.get() + (report,))
    try:
        yield report
    finally:
        _SCOPES.reset(token)


class InferencePipeline:
    """Driver of Algorithm 1's vectorised engine, with LUT/filter-bank caching.

    Parameters
    ----------
    multiplier:
        Default multiplier for :meth:`run` calls that do not pass their own:
        a library name, a behavioural model or a pre-built lookup table.
    lut_cache, filter_cache:
        Cache instances to use; default to the process-wide shared caches.

    Thread safety: :meth:`run` / :meth:`prepare` only read
    the pipeline's configuration and go through the thread-safe caches, so
    one pipeline instance may serve concurrent calls from many threads (the
    serving layer does exactly that).  Mutating the configuration attributes
    while calls are in flight is the one thing that is not synchronised.
    """

    def __init__(self, *,
                 multiplier: str | Multiplier | LookupTable | None = None,
                 lut_cache: LUTCache | None = None,
                 filter_cache: FilterBankCache | None = None) -> None:
        self.multiplier = multiplier
        self.lut_cache = lut_cache if lut_cache is not None else DEFAULT_LUT_CACHE
        self.filter_cache = (
            filter_cache if filter_cache is not None else DEFAULT_FILTER_CACHE)

    # ------------------------------------------------------------------
    def prepare(self, inputs: np.ndarray, filters: np.ndarray,
                multiplier: str | Multiplier | LookupTable | None = None, *,
                strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                input_range: tuple[float, float] | None = None,
                filter_range: tuple[float, float] | None = None,
                ) -> PreparedConv:
        """Resolve LUT + coefficients + filter bank through the caches.

        This is the front half of Algorithm 1 (``ComputeCoeffs`` plus the
        filter-side quantisation and ``Sf``); :meth:`run_prepared` is the
        per-chunk back half.  The lookup table comes from the
        :class:`~repro.backends.cache.LUTCache` and the filter-side work
        from the :class:`~repro.backends.cache.FilterBankCache`; only the
        (cheap, batch-dependent) input-side ``ComputeCoeffs`` runs
        unconditionally.
        Both operands quantise to the table's operand range
        (:attr:`~repro.lut.table.LookupTable.qrange`).
        The geometry (as for :meth:`run`) gives the patch rows of a chunk,
        which decide whether a bank used again comes with its ``rowgather``
        table (:meth:`FilterBankCache.prebuilt`).
        """
        chosen = multiplier if multiplier is not None else self.multiplier
        if chosen is None:
            raise ConfigurationError(
                "no multiplier: pass one to run()/prepare() or set a "
                "pipeline default"
            )
        lut = self.lut_cache.resolve(chosen)
        qrange = lut.qrange
        validate_conv_operands(inputs, filters)
        kh, kw, channels, count = filters.shape

        input_q = resolve_quant_params(inputs, input_range, qrange)

        def build() -> PreparedFilterBank:
            filter_q = resolve_quant_params(filters, filter_range, qrange)
            flat, sf = quantize_filter_bank(filters, filter_q)
            return PreparedFilterBank(
                filter_q=filter_q, flat_filters=flat, filter_sums=sf)

        bank = self.filter_cache.resolve(
            filters, qrange=qrange, filter_range=filter_range, build=build,
        )
        geometry = resolve_geometry(
            inputs.shape[1], inputs.shape[2], kh, kw,
            strides=strides, dilations=dilations, padding=padding)
        rows = (min(CHUNK_SIZE, inputs.shape[0])
                * geometry.output_height * geometry.output_width)
        return PreparedConv(
            lut=lut, input_q=input_q, filter_q=bank.filter_q,
            flat_filters=bank.flat_filters, filter_sums=bank.filter_sums,
            kernel_height=kh, kernel_width=kw, channels=channels,
            filter_count=count,
            prebuilt=self.filter_cache.prebuilt(bank, lut, rows),
            bank_key=bank.key,
        )

    # ------------------------------------------------------------------
    def run(self, inputs: np.ndarray, filters: np.ndarray,
            multiplier: str | Multiplier | LookupTable | None = None, *,
            strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
            input_range: tuple[float, float] | None = None,
            filter_range: tuple[float, float] | None = None,
            ) -> np.ndarray:
        """Run one batched approximate convolution; returns the NHWC output.

        :meth:`prepare` followed by :meth:`run_prepared`.
        """
        prepared = self.prepare(
            inputs, filters, multiplier,
            strides=strides, dilations=dilations, padding=padding,
            input_range=input_range, filter_range=filter_range,
        )
        return self.run_prepared(inputs, prepared, strides=strides,
                                 dilations=dilations, padding=padding)

    def run_prepared(self, inputs: np.ndarray, prepared: PreparedConv, *,
                     strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                     ) -> np.ndarray:
        """Algorithm 1's chunk loop over an already prepared convolution.

        Runs :data:`~repro.conv.approx_conv2d.CHUNK_SIZE`-image chunks of
        ``inputs`` through :func:`~repro.conv.approx_conv2d.approx_conv2d_chunk`
        and concatenates them.  Inside a :func:`collect_reports` scope it
        counts the run into a :class:`RunReport` merged into every open
        scope.  ``prepared`` must
        come from :meth:`prepare` on inputs of the same spatial shape and
        with the same geometry arguments; a caller holding one for operands
        that cannot change (a bound :class:`~repro.graph.ops.AxConv2D`)
        skips the set-up this way.
        """
        if (inputs.ndim != 4 or inputs.shape[0] == 0
                or inputs.shape[3] != prepared.channels):
            raise ShapeError(
                f"inputs of shape {inputs.shape} do not fit a prepared "
                f"{prepared.channels}-channel convolution")
        chunks = [
            approx_conv2d_chunk(
                inputs[start:start + CHUNK_SIZE], prepared, strides=strides,
                dilations=dilations, padding=padding)
            for start in range(0, inputs.shape[0], CHUNK_SIZE)
        ]
        output = (chunks[0] if len(chunks) == 1
                  else np.concatenate(chunks, axis=0))
        scopes = _SCOPES.get()
        if scopes:
            report = RunReport(
                lut_name=prepared.lut.name,
                batch=int(inputs.shape[0]),
                stats=ApproxConvStats.of_run(
                    inputs, prepared, output, len(chunks)),
            )
            for scope in scopes:
                scope.merge(report)
        return output


def emulate_conv2d(inputs: np.ndarray, filters: np.ndarray,
                   multiplier: str | Multiplier | LookupTable, *,
                   strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                   input_range: tuple[float, float] | None = None,
                   filter_range: tuple[float, float] | None = None,
                   ) -> np.ndarray:
    """Emulate one approximate convolution.

    The single-call public API of the library: pick a multiplier (by library
    name, behavioural model or pre-built LUT), get the NHWC float output.
    Lookup tables and filter banks are cached process-wide,
    so sweeping a batch stream through the same accelerator configuration
    only pays the setup cost once.  Open a :func:`collect_reports` scope
    around the call to receive the accounting of the run.

    >>> y = emulate_conv2d(x, w, "mul8s_mitchell")            # doctest: +SKIP
    >>> with collect_reports() as report:                     # doctest: +SKIP
    ...     y = emulate_conv2d(x, w, "mul8u_drum4")
    """
    return shared_pipeline().run(
        inputs, filters, multiplier,
        strides=strides, dilations=dilations, padding=padding,
        input_range=input_range, filter_range=filter_range,
    )


_SHARED_PIPELINE = InferencePipeline()


def shared_pipeline() -> InferencePipeline:
    """The process-wide :class:`InferencePipeline`.

    Independent callers share this one thread-safe handle instead of
    constructing throwaway pipelines -- :func:`emulate_conv2d` routes every
    call through it, and user threads can hold it directly.  It uses the
    default process-wide caches -- that is the point of sharing it -- and
    never carries a default multiplier, so callers state theirs per call and
    cannot observe each other's.
    """
    return _SHARED_PIPELINE
