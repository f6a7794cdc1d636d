"""Algorithm 1: the chunked approximate 2D convolution.

This module is the heart of the emulator.  :func:`approx_conv2d` follows the
high-level structure of Algorithm 1 in the paper:

1. ``ComputeCoeffs`` -- derive the affine quantisation coefficients of the
   input batch and of the filter bank from their (min, max) ranges;
2. compute the per-filter sums ``Sf`` (third sum of Eq. 4);
3. split the input batch into chunks of a constant size "to decouple memory
   usage from convolution parameters";
4. for each chunk, run ``Im2Cols`` (patch matrix ``Mp`` + patch sums ``Sp``)
   and ``ApproxGEMM`` (LUT-based integer GEMM followed by the Eq. 4
   correction and dequantisation);
5. append the chunk output to the output batch.

The function is pure NumPy and engine-agnostic; the simulated CPU/GPU
devices reuse the same building blocks but additionally account for the time
and memory traffic each phase would cost on the modelled hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import xp
from ..errors import ConfigurationError, ShapeError
from ..lut.table import LookupTable
from ..quantization.affine import (
    IntegerRange,
    QuantParams,
    compute_coeffs,
)
from ..quantization.ranges import TensorRange
from ..quantization.rounding import RoundMode
from .im2col import filter_sums, flatten_filters, im2col_quantized
from .gemm import RowTable, approx_gemm


#: Default number of images processed per chunk; mirrors the constant chunk
#: size used by the CUDA implementation to bound the patch-matrix footprint.
DEFAULT_CHUNK_SIZE = 32


@dataclass
class ApproxConvStats:
    """Operation counts of the approximate convolution.

    Every count depends only on the geometry of a run, never on how it was
    scheduled, so :meth:`of_run` derives them once per run from shapes and
    every engine reports identical work.  The simulated devices convert
    these counts into time.
    """

    quantized_values: int = 0
    patch_matrix_bytes: int = 0
    output_values: int = 0
    chunks: int = 0
    macs: int = 0

    @classmethod
    def of_run(cls, inputs: xp.ndarray, prepared: "PreparedConv",
               output: xp.ndarray, chunks: int,
               filters_quantized: bool) -> "ApproxConvStats":
        """Counts of one run of ``prepared`` over ``inputs``.

        ``filters_quantized`` says whether this run built the quantised
        filter bank; a cached bank costs no quantisation.
        """
        batch, height, width, _ = output.shape
        positions = int(batch * height * width)
        quantized = int(inputs.size)
        if filters_quantized:
            quantized += int(prepared.flat_filters.size)
        return cls(
            quantized_values=quantized,
            patch_matrix_bytes=positions * prepared.depth,  # one byte each
            output_values=int(output.size),
            chunks=chunks,
            macs=positions * prepared.depth * prepared.filter_count,
        )


def resolve_quant_params(values: xp.ndarray | None,
                         value_range: TensorRange | tuple[float, float] | None,
                         qrange: IntegerRange,
                         round_mode: RoundMode | str) -> QuantParams:
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
    return compute_coeffs(lo, hi, qrange=qrange, round_mode=round_mode)


def split_chunks(batch: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split a batch of ``batch`` images into ``[start, stop)`` chunks."""
    if chunk_size <= 0:
        raise ConfigurationError("chunk_size must be positive")
    return [(start, min(start + chunk_size, batch))
            for start in range(0, batch, chunk_size)]


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

    ``row_table`` is the filter matrix's prebuilt ``rowgather`` table when
    the pipeline's filter-bank cache holds one; the NumPy engine then
    passes it to the LUT-GEMM instead of ``flat_filters``.
    """

    lut: LookupTable
    input_q: QuantParams
    filter_q: QuantParams
    flat_filters: xp.ndarray      #: quantised ``[K, F]`` int64 filter matrix
    filter_sums: xp.ndarray       #: per-filter sums ``Sf`` (third sum of Eq. 4)
    kernel_height: int
    kernel_width: int
    channels: int
    filter_count: int
    row_table: RowTable | None = None

    @property
    def depth(self) -> int:
        """Accumulation depth ``N = kh * kw * channels`` of Eq. 4."""
        return self.kernel_height * self.kernel_width * self.channels

    def quantized_filters_hwck(self) -> xp.ndarray:
        """Reshape the flat filter matrix back to the HWCK layout.

        ``flatten_filters`` is a pure reshape, so the round trip is exact;
        the direct-loop backend uses this to index individual filters.
        """
        return self.flat_filters.reshape(
            self.kernel_height, self.kernel_width, self.channels,
            self.filter_count,
        )


def validate_conv_operands(inputs: xp.ndarray, filters: xp.ndarray,
                           lut: LookupTable, qrange: IntegerRange) -> None:
    """Shape/signedness validation shared by every convolution entry point."""
    if inputs.ndim != 4:
        raise ShapeError(f"inputs must be NHWC (4D), got shape {inputs.shape}")
    if inputs.size == 0:
        raise ShapeError(f"inputs must not be empty, got shape {inputs.shape}")
    if filters.ndim != 4:
        raise ShapeError(f"filters must be HWCK (4D), got shape {filters.shape}")
    if inputs.shape[3] != filters.shape[2]:
        raise ShapeError(
            f"channel mismatch: inputs have {inputs.shape[3]} channels, "
            f"filters expect {filters.shape[2]}"
        )
    if qrange.signed != lut.signed:
        raise ConfigurationError(
            f"quantised range signedness ({qrange.signed}) does not match the "
            f"lookup table ({lut.signed})"
        )


def quantize_filter_bank(filters: xp.ndarray, filter_q: QuantParams,
                         ) -> tuple[xp.ndarray, xp.ndarray]:
    """Quantise and flatten an HWCK filter bank and compute its sums ``Sf``.

    The one place the filter-side body of Algorithm 1 lives:
    :func:`prepare_conv2d` and the caching pipeline in
    :mod:`repro.backends` both call it, so the cached and uncached paths
    cannot drift apart numerically.
    """
    flat = flatten_filters(filter_q.quantize(filters).astype(xp.int64))
    return flat, filter_sums(flat)


def prepare_conv2d(inputs: xp.ndarray, filters: xp.ndarray, lut: LookupTable, *,
                   input_range: TensorRange | tuple[float, float] | None = None,
                   filter_range: TensorRange | tuple[float, float] | None = None,
                   qrange: IntegerRange | None = None,
                   round_mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO,
                   ) -> PreparedConv:
    """Resolve the quantisation coefficients and quantise the filter bank.

    This is the shared front half of Algorithm 1 (``ComputeCoeffs`` plus the
    filter-side quantisation and ``Sf``); the backends only implement the
    per-chunk back half.  When ``qrange`` is omitted it is derived from the
    lookup table's bit width and signedness, which is the only combination
    the table can serve anyway.
    """
    if qrange is None:
        qrange = IntegerRange.for_bits(lut.bit_width, signed=lut.signed)
    validate_conv_operands(inputs, filters, lut, qrange)
    kh, kw, channels, count = filters.shape

    input_q = resolve_quant_params(inputs, input_range, qrange, round_mode)
    filter_q = resolve_quant_params(filters, filter_range, qrange, round_mode)

    flat_filters, sf = quantize_filter_bank(filters, filter_q)
    return PreparedConv(
        lut=lut, input_q=input_q, filter_q=filter_q,
        flat_filters=flat_filters, filter_sums=sf,
        kernel_height=kh, kernel_width=kw, channels=channels,
        filter_count=count,
    )


def approx_conv2d_chunk(chunk: xp.ndarray, prepared: PreparedConv, *,
                        strides=(1, 1), dilations=(1, 1),
                        padding: str = "SAME",
                        accumulator_bits: int | None = None,
                        saturate: bool = False) -> xp.ndarray:
    """Run Im2Cols + ApproxGEMM on one chunk of a prepared convolution.

    This is the body of Algorithm 1's chunk loop as executed by the
    vectorised NumPy engine; :func:`approx_conv2d` and the ``numpy`` backend
    of :mod:`repro.backends` both call it, so their numerical behaviour is
    one code path.
    """
    patches, patch_sums, geometry = im2col_quantized(
        chunk, prepared.kernel_height, prepared.kernel_width, prepared.input_q,
        strides=strides, dilations=dilations, padding=padding,
    )
    filters = (prepared.row_table if prepared.row_table is not None
               else prepared.flat_filters)
    chunk_out = approx_gemm(
        patches, patch_sums, filters, prepared.filter_sums,
        prepared.input_q, prepared.filter_q, prepared.lut,
        accumulator_bits=accumulator_bits, saturate=saturate,
    )
    return chunk_out.reshape(
        chunk.shape[0], geometry.output_height, geometry.output_width,
        prepared.filter_count,
    )


def approx_conv2d(inputs: xp.ndarray, filters: xp.ndarray, lut: LookupTable, *,
                  strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
                  input_range: TensorRange | tuple[float, float] | None = None,
                  filter_range: TensorRange | tuple[float, float] | None = None,
                  qrange: IntegerRange | None = None,
                  round_mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO,
                  chunk_size: int = DEFAULT_CHUNK_SIZE,
                  accumulator_bits: int | None = None,
                  saturate: bool = False) -> xp.ndarray:
    """Approximate 2D convolution emulating a LUT-multiplier accelerator.

    Parameters
    ----------
    inputs:
        NHWC float batch.
    filters:
        HWCK float filter bank.
    lut:
        Lookup table of the approximate multiplier used by the emulated MAC
        units.  The table's signedness must match ``qrange``.
    strides, dilations, padding:
        Standard convolution geometry parameters.
    input_range, filter_range:
        Optional pre-computed (min, max) ranges -- the four extra scalar
        inputs of the ``AxConv2D`` op.  When omitted they are derived from
        the data, as the transformed graph's Min/Max nodes would do.
    qrange:
        Quantised integer range ([-128, 127] for signed multipliers,
        [0, 255] for unsigned ones); derived from the table when omitted.
    round_mode:
        Rounding applied during quantisation.
    chunk_size:
        Number of images converted to the patch matrix at a time.
    accumulator_bits, saturate:
        Optional finite-accumulator model (see :func:`repro.conv.gemm.lut_matmul`).

    Returns
    -------
    numpy.ndarray
        NHWC float output with the same range semantics as an accurate
        convolution of the same operands.
    """
    # --- ComputeCoeffs + filter-side quantisation (shared path) --------
    prepared = prepare_conv2d(
        inputs, filters, lut,
        input_range=input_range, filter_range=filter_range,
        qrange=qrange, round_mode=round_mode,
    )

    # --- Chunked Im2Cols + ApproxGEMM ----------------------------------
    return xp.concatenate([
        approx_conv2d_chunk(
            inputs[start:stop], prepared,
            strides=strides, dilations=dilations, padding=padding,
            accumulator_bits=accumulator_bits, saturate=saturate,
        )
        for start, stop in split_chunks(inputs.shape[0], chunk_size)
    ], axis=0)
