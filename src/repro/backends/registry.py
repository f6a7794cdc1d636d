"""Backend table: the chunk function of each convolution engine.

:class:`~repro.backends.pipeline.InferencePipeline` drives Algorithm 1's
chunk loop for every engine.  It resolves the batch-independent state into a
:class:`~repro.conv.approx_conv2d.PreparedConv` once, then calls one of the
functions below per chunk; range resolution, filter caching, batch
sharding, threading and accounting are therefore identical across engines.

The table holds exactly three backends:

``numpy``
    The vectorised im2col + LUT-GEMM engine of Algorithm 1 (the fast path).
``cpusim``
    The ALWANN-style direct nested loop -- the paper's CPU baseline.  Orders
    of magnitude slower; intended for small cross-checks.
``gpusim``
    Algorithm 1 on the simulated CUDA device, recording kernel launches,
    texture fetches and shared-memory traffic.

Each chunk function takes ``(chunk, prepared, strides, dilations, padding)``
and returns the chunk's NHWC output plus the simulated device's
:class:`~repro.gpusim.device.DeviceCounters` (``None`` off ``gpusim``).
Every engine sums its products in exact integers, must be deterministic and
must be bit-identical to ``numpy``; the cross-backend parity test enforces
this.

:func:`get_backend` looks one up by name; :func:`available_backends` lists
them.
"""

from __future__ import annotations

import numpy as np

from ..conv.approx_conv2d import PreparedConv, approx_conv2d_chunk
from ..conv.reference import approx_conv2d_direct_quantized
from ..errors import RegistryError
from ..gpusim.device import DeviceCounters, GPUDevice
from ..gpusim.engine import run_gpusim_chunk

ChunkOutput = tuple[np.ndarray, DeviceCounters | None]


def _numpy_chunk(chunk: np.ndarray, prepared: PreparedConv, strides,
                 dilations, padding: str) -> ChunkOutput:
    return approx_conv2d_chunk(
        chunk, prepared, strides=strides, dilations=dilations,
        padding=padding), None


def _cpusim_chunk(chunk: np.ndarray, prepared: PreparedConv, strides,
                  dilations, padding: str) -> ChunkOutput:
    return approx_conv2d_direct_quantized(
        chunk, prepared.quantized_filters_hwck(), prepared.lut,
        prepared.input_q, prepared.filter_q,
        strides=strides, dilations=dilations, padding=padding,
    ), None


def _gpusim_chunk(chunk: np.ndarray, prepared: PreparedConv, strides,
                  dilations, padding: str) -> ChunkOutput:
    # A fresh device per chunk: a shared one would keep every
    # ``KernelLaunch`` record for the life of the process.
    device = GPUDevice()
    output = run_gpusim_chunk(
        device, chunk, prepared,
        strides=strides, dilations=dilations, padding=padding,
    )
    return output, device.counters


_BACKENDS = {
    "numpy": _numpy_chunk,
    "cpusim": _cpusim_chunk,
    "gpusim": _gpusim_chunk,
}


def get_backend(name: str):
    """Return the chunk function of the backend called ``name``.

    Unknown names raise :class:`~repro.errors.RegistryError`.
    """
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
