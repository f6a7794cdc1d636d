"""The batched inference API over Algorithm 1's vectorised engine.

:class:`InferencePipeline` drives Algorithm 1's chunk loop over the
vectorised NumPy engine, and the ``AxConv2D`` graph op runs through it, so
coefficients, lookup tables and accounting have one path.  The ALWANN
direct loop (:func:`repro.conv.approx_conv2d_direct`) and the simulated
CUDA device (:func:`repro.gpusim.run_gpusim_chunk`) are reference
functions that tests compare this engine with.

Entry points:

* :func:`emulate_conv2d` -- one-call approximate convolution;
* :class:`InferencePipeline` -- reusable pipeline with LUT/filter-bank
  caching and the chunk loop;
* :func:`collect_reports` -- a scope totalling the :class:`RunReport` of
  every pipeline run on the calling thread (e.g. a whole model's forward).
"""

from .cache import (
    CacheStats,
    DEFAULT_FILTER_CACHE,
    DEFAULT_LUT_CACHE,
    FilterBankCache,
    LUTCache,
    PreparedFilterBank,
    cache_stats,
    clear_caches,
)
from .pipeline import (
    InferencePipeline,
    RunReport,
    collect_reports,
    emulate_conv2d,
    shared_pipeline,
)

__all__ = [
    "CacheStats",
    "DEFAULT_FILTER_CACHE",
    "DEFAULT_LUT_CACHE",
    "FilterBankCache",
    "InferencePipeline",
    "LUTCache",
    "PreparedFilterBank",
    "RunReport",
    "cache_stats",
    "clear_caches",
    "collect_reports",
    "emulate_conv2d",
    "shared_pipeline",
]
