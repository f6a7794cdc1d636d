"""Backend registry: one dispatch point for every convolution engine.

The seed code exposed each execution engine through a slightly different
ad-hoc API (``conv.approx_conv2d``, ``cpusim.run_direct_reference``,
``gpusim.GPUConvolutionEngine.approx_conv2d``, ``graph.ops.AxConv2D``).  This
module gives them a single contract: a :class:`ConvBackend` executes *one
chunk* of a convolution whose batch-independent state has already been
resolved into a :class:`~repro.conv.approx_conv2d.PreparedConv` by the shared
``prepare_conv2d`` path.  Everything above the chunk level -- range
resolution, filter caching, batch sharding, threading, accounting -- lives in
:class:`~repro.backends.pipeline.InferencePipeline` and is therefore
identical across backends.

Three backends ship by default:

``numpy``
    The vectorised im2col + LUT-GEMM engine of Algorithm 1 (the fast path).
``cpusim``
    The ALWANN-style direct nested loop -- the paper's CPU baseline.  Orders
    of magnitude slower; intended for small cross-checks.
``gpusim``
    Algorithm 1 on the simulated CUDA device, recording kernel launches,
    texture fetches and shared-memory traffic.

User code plugs in additional engines with :func:`register_backend`; the
registry mirrors :mod:`repro.multipliers.library` so the two extension
points feel the same.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import Callable

from .. import xp
from ..conv.approx_conv2d import (
    ApproxConvStats,
    PreparedConv,
    approx_conv2d_chunk,
)
from ..conv.reference import approx_conv2d_direct_quantized
from ..errors import RegistryError
from ..gpusim.device import GPUDevice
from ..gpusim.engine import GPUConvRunReport, run_gpusim_chunk


@dataclass
class ChunkResult:
    """Output of one backend chunk execution plus its accounting."""

    output: xp.ndarray
    stats: ApproxConvStats
    gpu: GPUConvRunReport | None = None


class ConvBackend(abc.ABC):
    """Contract every registered convolution engine implements.

    A backend receives a chunk of the NHWC input batch and the
    :class:`~repro.conv.approx_conv2d.PreparedConv` holding the resolved
    quantisation coefficients and the quantised filter bank; it returns the
    chunk's NHWC float output and its operation counts.  Backends must be
    deterministic and produce results bit-identical to the ``numpy``
    reference engine -- the cross-backend parity test enforces this for
    every registered backend.
    """

    #: Registry name; set by subclasses.
    name: str = "?"

    @abc.abstractmethod
    def run_chunk(self, chunk: xp.ndarray, prepared: PreparedConv, *,
                  strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                  accumulator_bits: int | None = None,
                  saturate: bool = False) -> ChunkResult:
        """Execute one chunk and return its output and accounting."""

    def describe(self) -> str:
        """Human-readable one-liner used by reports and ``repr``."""
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConvBackend {self.name!r}: {self.describe()}>"


def _analytic_stats(chunk: xp.ndarray, prepared: PreparedConv,
                    output: xp.ndarray) -> ApproxConvStats:
    """Operation counts of one chunk, derived from the geometry.

    Backends that do not thread counters through their inner loops (the
    direct CPU loop, the simulated GPU kernels) still report the same work
    as the NumPy engine: the counts depend only on shapes, never on how the
    chunk was scheduled.
    """
    positions = int(output.shape[0] * output.shape[1] * output.shape[2])
    lookups = positions * prepared.depth * prepared.filter_count
    return ApproxConvStats(
        lut_lookups=lookups,
        quantized_values=int(chunk.size),
        dequantized_values=int(output.size),
        patch_matrix_bytes=positions * prepared.depth,
        output_values=int(output.size),
        chunks=1,
        macs=lookups,
    )


class NumpyBackend(ConvBackend):
    """Vectorised im2col + LUT-GEMM engine (Algorithm 1, host NumPy).

    ``kernel`` pins the LUT-GEMM kernel variant this instance dispatches to
    (``"naive"``, ``"blocked"``, ``"rowgather"`` -- see
    :func:`repro.conv.gemm.available_gemm_kernels`); ``None`` follows the
    process-wide default, which picks by call size.
    """

    name = "numpy"

    def __init__(self, kernel: str | None = None) -> None:
        self.kernel = kernel

    def run_chunk(self, chunk, prepared, *, strides=(1, 1), dilations=(1, 1),
                  padding="SAME", accumulator_bits=None,
                  saturate=False) -> ChunkResult:
        stats = ApproxConvStats()
        output = approx_conv2d_chunk(
            chunk, prepared,
            strides=strides, dilations=dilations, padding=padding,
            accumulator_bits=accumulator_bits, saturate=saturate,
            kernel=self.kernel, stats=stats,
        )
        return ChunkResult(output=output, stats=stats)


class CpusimBackend(ConvBackend):
    """ALWANN-style direct nested-loop engine (the paper's CPU baseline)."""

    name = "cpusim"

    def run_chunk(self, chunk, prepared, *, strides=(1, 1), dilations=(1, 1),
                  padding="SAME", accumulator_bits=None,
                  saturate=False) -> ChunkResult:
        if accumulator_bits is not None or saturate:
            raise RegistryError(
                "the cpusim backend models an unbounded accumulator; "
                "use the numpy backend for finite-accumulator studies"
            )
        output = approx_conv2d_direct_quantized(
            chunk, prepared.quantized_filters_hwck(), prepared.lut,
            prepared.input_q, prepared.filter_q,
            strides=strides, dilations=dilations, padding=padding,
        )
        return ChunkResult(
            output=output, stats=_analytic_stats(chunk, prepared, output))


class GpusimBackend(ConvBackend):
    """Algorithm 1 on the simulated CUDA device with launch accounting.

    Without an explicit ``device`` each chunk runs on a fresh
    :class:`~repro.gpusim.device.GPUDevice`: the registry instance is a
    process-wide singleton, and a shared device would retain every
    ``KernelLaunch`` record for the life of the process.  The per-chunk
    accounting callers care about travels in the returned
    :class:`ChunkResult` regardless.  Pass a device to accumulate global
    counters across calls deliberately.
    """

    name = "gpusim"

    def __init__(self, device: GPUDevice | None = None) -> None:
        self.device = device
        # A caller-supplied device mutates global counters per launch;
        # chunks sharded across the pipeline's thread pool must not
        # interleave on it.
        self._lock = threading.Lock()

    def run_chunk(self, chunk, prepared, *, strides=(1, 1), dilations=(1, 1),
                  padding="SAME", accumulator_bits=None,
                  saturate=False) -> ChunkResult:
        if accumulator_bits is not None or saturate:
            raise RegistryError(
                "the gpusim backend accumulates in unbounded integers; "
                "use the numpy backend for finite-accumulator studies"
            )
        if self.device is None:
            output, gpu_report = run_gpusim_chunk(
                GPUDevice(), chunk, prepared,
                strides=strides, dilations=dilations, padding=padding,
            )
        else:
            with self._lock:
                output, gpu_report = run_gpusim_chunk(
                    self.device, chunk, prepared,
                    strides=strides, dilations=dilations, padding=padding,
                )
        return ChunkResult(
            output=output,
            stats=_analytic_stats(chunk, prepared, output),
            gpu=gpu_report,
        )


BackendFactory = Callable[[], ConvBackend]

_REGISTRY: dict[str, BackendFactory] = {}
_INSTANCES: dict[str, ConvBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(name: str, backend: ConvBackend | BackendFactory, *,
                     overwrite: bool = False) -> None:
    """Register a backend instance or zero-argument factory under ``name``.

    Raises :class:`~repro.errors.RegistryError` when the name is taken,
    unless ``overwrite`` is requested.
    """
    with _REGISTRY_LOCK:
        if not overwrite and name in _REGISTRY:
            raise RegistryError(f"backend {name!r} is already registered")
        if isinstance(backend, ConvBackend):
            _REGISTRY[name] = lambda: backend
        elif callable(backend):
            _REGISTRY[name] = backend
        else:
            raise RegistryError(
                "backend must be a ConvBackend instance or a factory, got "
                f"{type(backend).__name__}"
            )
        _INSTANCES.pop(name, None)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (unknown names raise ``RegistryError``)."""
    with _REGISTRY_LOCK:
        if name not in _REGISTRY:
            raise RegistryError(f"backend {name!r} is not registered")
        del _REGISTRY[name]
        _INSTANCES.pop(name, None)


def get_backend(name: str) -> ConvBackend:
    """Return the (lazily instantiated, cached) backend called ``name``."""
    with _REGISTRY_LOCK:
        if name in _INSTANCES:
            return _INSTANCES[name]
        try:
            factory = _REGISTRY[name]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY))
            raise RegistryError(
                f"unknown backend {name!r}; registered backends: {known}"
            ) from None
        instance = factory()
        if not isinstance(instance, ConvBackend):
            raise RegistryError(
                f"factory for backend {name!r} returned "
                f"{type(instance).__name__}, not a ConvBackend"
            )
        instance.name = name
        _INSTANCES[name] = instance
        return instance


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY)


def _register_defaults() -> None:
    for factory in (NumpyBackend, CpusimBackend, GpusimBackend):
        register_backend(factory.name, factory, overwrite=True)


_register_defaults()
