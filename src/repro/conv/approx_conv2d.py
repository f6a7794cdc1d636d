"""Algorithm 1: the building blocks of the chunked approximate 2D convolution.

This module is the heart of the emulator.  Algorithm 1 in the paper:

1. ``ComputeCoeffs`` -- derive the affine quantisation coefficients of the
   input batch and of the filter bank from their (min, max) ranges;
2. compute the per-filter sums ``Sf`` (third sum of Eq. 4);
3. split the input batch into chunks of a constant size (:data:`CHUNK_SIZE`)
   "to decouple memory usage from convolution parameters";
4. for each chunk, run ``Im2Cols`` (patch matrix ``Mp`` + patch sums ``Sp``)
   and ``ApproxGEMM`` (LUT-based integer GEMM followed by the Eq. 4
   correction and dequantisation);
5. append the chunk output to the output batch.

:class:`repro.backends.InferencePipeline` is the one driver of that loop:
it resolves steps 1-2 through its caches into a :class:`PreparedConv` and
hands each chunk to a backend.  The filter-bank cache may add a prebuilt
LUT-GEMM filter operand (``PreparedConv.prebuilt``), which the NumPy
engine uses in place of the flat filter matrix.  :func:`approx_conv2d_chunk` is the
vectorised NumPy body of one chunk; the simulated CPU/GPU devices run the
same steps but additionally account for the time and memory traffic each
phase would cost on the modelled hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..lut.table import LookupTable
from ..quantization.affine import (
    IntegerRange,
    QuantParams,
    compute_coeffs,
)
from ..quantization.ranges import TensorRange
from .im2col import filter_sums, flatten_filters, im2col_quantized
from .gemm import FactoredFilters, RowTable, approx_gemm


#: Number of images processed per chunk: the constant chunk size of the CUDA
#: implementation, which bounds the patch-matrix footprint.
CHUNK_SIZE = 32


@dataclass
class ApproxConvStats:
    """Operation counts of the approximate convolution.

    Every count depends only on the geometry of a run, never on how it was
    scheduled, so :meth:`of_run` derives them once per run from shapes and
    every engine reports identical work.  ``quantized_values`` counts the
    run's inputs: a filter bank is quantised once, on a filter-bank cache
    miss, and that cache's ``misses`` counts it.
    """

    quantized_values: int = 0
    output_values: int = 0
    chunks: int = 0
    macs: int = 0

    @classmethod
    def of_run(cls, inputs: np.ndarray, prepared: "PreparedConv",
               output: np.ndarray, chunks: int) -> "ApproxConvStats":
        """Counts of one run of ``prepared`` over ``inputs``."""
        batch, height, width, _ = output.shape
        positions = int(batch * height * width)
        return cls(
            quantized_values=int(inputs.size),
            output_values=int(output.size),
            chunks=chunks,
            macs=positions * prepared.depth * prepared.filter_count,
        )


def resolve_quant_params(values: np.ndarray | None,
                         value_range: TensorRange | tuple[float, float] | None,
                         qrange: IntegerRange) -> QuantParams:
    """Derive quantisation parameters from an explicit range or from data.

    The transformed graph provides the ranges through its Min/Max nodes; when
    they are absent (direct functional use) the range is taken from the data
    itself, which matches the "computed independently for each input vector"
    behaviour described in Section II.
    """
    if value_range is not None:
        if isinstance(value_range, TensorRange):
            lo, hi = value_range.as_tuple()
        else:
            lo, hi = float(value_range[0]), float(value_range[1])
    else:
        if values is None or values.size == 0:
            raise ConfigurationError(
                "either an explicit range or a non-empty tensor is required"
            )
        lo, hi = float(values.min()), float(values.max())
    return compute_coeffs(lo, hi, qrange=qrange)


@dataclass(frozen=True)
class PreparedConv:
    """Batch-independent state of one approximate convolution.

    Bundles everything Algorithm 1 computes *once per (filter bank, LUT,
    range) combination* rather than once per chunk: the resolved quantisation
    coefficients of both operands, the quantised flattened filter matrix and
    the per-filter sums ``Sf``.  Every execution backend (vectorised NumPy,
    direct CPU loop, simulated CUDA device) consumes this object, so the
    quantisation/LUT resolution logic lives in exactly one place and the
    :class:`repro.backends.InferencePipeline` can cache it across calls.

    ``prebuilt`` is the filter matrix's prebuilt LUT-GEMM operand (a
    ``rowgather`` :class:`~repro.conv.gemm.RowTable` or a ``factored``
    :class:`~repro.conv.gemm.FactoredFilters`) when the pipeline's
    filter-bank cache holds one; the NumPy engine then passes it to the
    LUT-GEMM instead of ``flat_filters``.  ``bank_key`` is the
    :class:`~repro.backends.cache.FilterBankCache` key the filter side came
    from (empty when it came from no cache).
    """

    lut: LookupTable
    input_q: QuantParams
    filter_q: QuantParams
    flat_filters: np.ndarray      #: quantised ``[K, F]`` int64 filter matrix
    filter_sums: np.ndarray       #: per-filter sums ``Sf`` (third sum of Eq. 4)
    kernel_height: int
    kernel_width: int
    channels: int
    filter_count: int
    prebuilt: RowTable | FactoredFilters | None = None
    bank_key: tuple = field(default=(), compare=False, repr=False)

    @property
    def depth(self) -> int:
        """Accumulation depth ``N = kh * kw * channels`` of Eq. 4."""
        return self.kernel_height * self.kernel_width * self.channels

    def quantized_filters_hwck(self) -> np.ndarray:
        """Reshape the flat filter matrix back to the HWCK layout.

        ``flatten_filters`` is a pure reshape, so the round trip is exact;
        the direct-loop backend uses this to index individual filters.
        """
        return self.flat_filters.reshape(
            self.kernel_height, self.kernel_width, self.channels,
            self.filter_count,
        )


def validate_conv_operands(inputs: np.ndarray, filters: np.ndarray) -> None:
    """Shape validation shared by every convolution entry point."""
    if inputs.ndim != 4:
        raise ShapeError(f"inputs must be NHWC (4D), got shape {inputs.shape}")
    if inputs.size == 0:
        raise ShapeError(f"inputs must not be empty, got shape {inputs.shape}")
    if filters.ndim != 4:
        raise ShapeError(f"filters must be HWCK (4D), got shape {filters.shape}")
    if filters.size == 0:
        raise ShapeError(f"filters must not be empty, got shape {filters.shape}")
    if inputs.shape[3] != filters.shape[2]:
        raise ShapeError(
            f"channel mismatch: inputs have {inputs.shape[3]} channels, "
            f"filters expect {filters.shape[2]}"
        )


def quantize_filter_bank(filters: np.ndarray, filter_q: QuantParams,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Quantise and flatten an HWCK filter bank and compute its sums ``Sf``.

    The one place the filter-side body of Algorithm 1 lives; the caching
    pipeline in :mod:`repro.backends` calls it when a bank misses its
    cache.
    """
    flat = flatten_filters(filter_q.quantize(filters).astype(np.int64))
    return flat, filter_sums(flat)


def approx_conv2d_chunk(chunk: np.ndarray, prepared: PreparedConv, *,
                        strides=(1, 1), dilations=(1, 1),
                        padding: str = "SAME") -> np.ndarray:
    """Run Im2Cols + ApproxGEMM on one chunk of a prepared convolution.

    This is the body of Algorithm 1's chunk loop as executed by the
    vectorised NumPy engine, the ``numpy`` backend of
    :mod:`repro.backends`.
    """
    patches, patch_sums, geometry = im2col_quantized(
        chunk, prepared.kernel_height, prepared.kernel_width, prepared.input_q,
        strides=strides, dilations=dilations, padding=padding,
    )
    filters = prepared.prebuilt or prepared.flat_filters
    chunk_out = approx_gemm(
        patches, patch_sums, filters, prepared.filter_sums,
        prepared.input_q, prepared.filter_q, prepared.lut,
    )
    return chunk_out.reshape(
        chunk.shape[0], geometry.output_height, geometry.output_width,
        prepared.filter_count,
    )
