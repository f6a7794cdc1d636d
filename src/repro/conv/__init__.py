"""Convolution engines: geometry, im2col, GEMM and the Algorithm 1 pipeline."""

from .approx_conv2d import (
    CHUNK_SIZE,
    ApproxConvStats,
    PreparedConv,
    approx_conv2d_chunk,
    quantize_filter_bank,
    resolve_quant_params,
    validate_conv_operands,
)
from .gemm import approx_gemm, dequantize_gemm, gemm_float, lut_matmul
from .im2col import col2im, filter_sums, flatten_filters, im2col, im2col_quantized
from .padding import ConvGeometry, resolve_geometry
from .reference import (
    approx_conv2d_direct,
    approx_conv2d_direct_quantized,
    conv2d_direct,
    conv2d_float,
    conv2d_float_backward,
    fake_quant_conv2d,
)

__all__ = [
    "CHUNK_SIZE",
    "ApproxConvStats",
    "PreparedConv",
    "approx_conv2d_chunk",
    "quantize_filter_bank",
    "resolve_quant_params",
    "validate_conv_operands",
    "approx_gemm",
    "dequantize_gemm",
    "gemm_float",
    "lut_matmul",
    "im2col",
    "im2col_quantized",
    "col2im",
    "flatten_filters",
    "filter_sums",
    "ConvGeometry",
    "resolve_geometry",
    "conv2d_float",
    "conv2d_float_backward",
    "conv2d_direct",
    "approx_conv2d_direct",
    "approx_conv2d_direct_quantized",
    "fake_quant_conv2d",
]
