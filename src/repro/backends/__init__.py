"""Unified execution backends behind one batched inference API.

This package dispatches between the functional emulation code and the
engines that execute it.  :class:`InferencePipeline` drives Algorithm 1's
chunk loop for all three engines (the vectorised NumPy engine, the direct
CPU loop and the simulated CUDA device), and the ``AxConv2D`` graph op runs
through it, so coefficients, lookup tables and accounting have one path.

Entry points:

* :func:`emulate_conv2d` -- one-call approximate convolution on any backend;
* :class:`InferencePipeline` -- reusable pipeline with LUT/filter-bank
  caching and the chunk loop;
* :func:`collect_reports` -- a scope totalling the :class:`RunReport` of
  every pipeline run on the calling thread (e.g. a whole model's forward);
* :func:`get_backend` / :func:`available_backends` -- the fixed table of
  the ``numpy``, ``cpusim`` and ``gpusim`` backends.
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
    RunResult,
    collect_reports,
    emulate_conv2d,
    shared_pipeline,
)
from .registry import available_backends, get_backend

__all__ = [
    "CacheStats",
    "DEFAULT_FILTER_CACHE",
    "DEFAULT_LUT_CACHE",
    "FilterBankCache",
    "InferencePipeline",
    "LUTCache",
    "PreparedFilterBank",
    "RunReport",
    "RunResult",
    "available_backends",
    "cache_stats",
    "clear_caches",
    "collect_reports",
    "emulate_conv2d",
    "get_backend",
    "shared_pipeline",
]
