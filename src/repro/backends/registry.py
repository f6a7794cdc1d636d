"""Backend table: one dispatch point for every convolution engine.

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

The table holds exactly three backends:

``numpy``
    The vectorised im2col + LUT-GEMM engine of Algorithm 1 (the fast path).
``cpusim``
    The ALWANN-style direct nested loop -- the paper's CPU baseline.  Orders
    of magnitude slower; intended for small cross-checks.
``gpusim``
    Algorithm 1 on the simulated CUDA device, recording kernel launches,
    texture fetches and shared-memory traffic.

:func:`get_backend` looks one up by name; :func:`available_backends` lists
them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .. import xp
from ..conv.approx_conv2d import PreparedConv, approx_conv2d_chunk
from ..conv.reference import approx_conv2d_direct_quantized
from ..errors import RegistryError
from ..gpusim.device import GPUDevice
from ..gpusim.engine import GPUConvRunReport, run_gpusim_chunk


@dataclass
class ChunkResult:
    """Output of one backend chunk execution plus its GPU launch records.

    Operation counts are not part of a chunk result: they depend only on
    the geometry, so :class:`~repro.backends.pipeline.InferencePipeline`
    counts each run once.
    """

    output: xp.ndarray
    gpu: GPUConvRunReport | None = None


class ConvBackend(abc.ABC):
    """Contract every convolution engine implements.

    A backend receives a chunk of the NHWC input batch and the
    :class:`~repro.conv.approx_conv2d.PreparedConv` holding the resolved
    quantisation coefficients and the quantised filter bank; it returns the
    chunk's NHWC float output (plus launch records, for ``gpusim``).
    Backends must be deterministic and produce results bit-identical to the
    ``numpy`` reference engine -- the cross-backend parity test enforces
    this for every backend.
    """

    #: Table name; set by subclasses.
    name: str = "?"

    #: Whether ``run_chunk`` feeds ``PreparedConv.row_table`` to
    #: :func:`~repro.conv.gemm.lut_matmul`; the pipeline asks its cache for
    #: row tables only for backends that do.
    uses_row_tables: bool = False

    @abc.abstractmethod
    def run_chunk(self, chunk: xp.ndarray, prepared: PreparedConv, *,
                  strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                  accumulator_bits: int | None = None,
                  saturate: bool = False) -> ChunkResult:
        """Execute one chunk and return its output."""

    def describe(self) -> str:
        """Human-readable one-liner used by reports and ``repr``."""
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConvBackend {self.name!r}: {self.describe()}>"


class NumpyBackend(ConvBackend):
    """Vectorised im2col + LUT-GEMM engine (Algorithm 1, host NumPy).

    :func:`repro.conv.gemm.lut_matmul` picks the LUT-GEMM kernel of each
    chunk by its size, or runs ``rowgather`` on the prepared conv's row
    table when it has one.
    """

    name = "numpy"
    uses_row_tables = True

    def run_chunk(self, chunk, prepared, *, strides=(1, 1), dilations=(1, 1),
                  padding="SAME", accumulator_bits=None,
                  saturate=False) -> ChunkResult:
        return ChunkResult(output=approx_conv2d_chunk(
            chunk, prepared,
            strides=strides, dilations=dilations, padding=padding,
            accumulator_bits=accumulator_bits, saturate=saturate,
        ))


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
        return ChunkResult(output=approx_conv2d_direct_quantized(
            chunk, prepared.quantized_filters_hwck(), prepared.lut,
            prepared.input_q, prepared.filter_q,
            strides=strides, dilations=dilations, padding=padding,
        ))


class GpusimBackend(ConvBackend):
    """Algorithm 1 on the simulated CUDA device with launch accounting.

    Each chunk runs on a fresh :class:`~repro.gpusim.device.GPUDevice`: the
    table instance is a process-wide singleton, and a shared device would
    retain every ``KernelLaunch`` record for the life of the process.  The
    per-chunk launch records travel in the returned :class:`ChunkResult`.
    """

    name = "gpusim"

    def run_chunk(self, chunk, prepared, *, strides=(1, 1), dilations=(1, 1),
                  padding="SAME", accumulator_bits=None,
                  saturate=False) -> ChunkResult:
        if accumulator_bits is not None or saturate:
            raise RegistryError(
                "the gpusim backend accumulates in unbounded integers; "
                "use the numpy backend for finite-accumulator studies"
            )
        output, gpu_report = run_gpusim_chunk(
            GPUDevice(), chunk, prepared,
            strides=strides, dilations=dilations, padding=padding,
        )
        return ChunkResult(output=output, gpu=gpu_report)


_BACKENDS: dict[str, ConvBackend] = {
    backend.name: backend
    for backend in (NumpyBackend(), CpusimBackend(), GpusimBackend())
}


def get_backend(name: str) -> ConvBackend:
    """Return the backend called ``name`` (unknown names raise)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise RegistryError(
            f"unknown backend {name!r}; known backends: {known}"
        ) from None


def available_backends() -> list[str]:
    """Sorted names of every backend."""
    return sorted(_BACKENDS)
