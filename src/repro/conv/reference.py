"""Reference convolution engines.

Three engines live here:

* :func:`conv2d_float` -- accurate float convolution via im2col + GEMM; this
  is the behaviour of TensorFlow's native ``Conv2D`` that the accurate
  columns of Table I measure.
* :func:`conv2d_direct` -- the same accurate convolution written as the naive
  nested loop.  It is only used by the tests (to validate the im2col/GEMM
  path against an independent formulation) and by very small examples.
* :func:`approx_conv2d_direct` -- the ALWANN-style direct approximate
  convolution: the system of nested loops over batch, output pixel and output
  channel that reference [12] of the paper used on the CPU, with each scalar
  multiplication served by the multiplier LUT.  The paper's CPU baseline for
  the approximate columns of Table I is this algorithm; its poor GPU
  parallelisability is what motivates the GEMM-based design of Section III.
* :func:`fake_quant_conv2d` -- quantise inputs and filters, run an *exact*
  integer convolution and dequantise.  The paper states the approximate layer
  with an accurate multiplier matches exactly this computation, which the
  test-suite verifies against :func:`repro.backends.emulate_conv2d`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..lut.table import LookupTable
from ..quantization.affine import QuantParams
from .im2col import col2im, filter_sums, flatten_filters, im2col
from .gemm import dequantize_gemm, gemm_float
from .padding import resolve_geometry


def _check_conv_args(inputs: np.ndarray, filters: np.ndarray) -> None:
    if inputs.ndim != 4:
        raise ShapeError(f"inputs must be NHWC (4D), got shape {inputs.shape}")
    if filters.ndim != 4:
        raise ShapeError(f"filters must be HWCK (4D), got shape {filters.shape}")
    if inputs.shape[3] != filters.shape[2]:
        raise ShapeError(
            f"channel mismatch: inputs have {inputs.shape[3]} channels, "
            f"filters expect {filters.shape[2]}"
        )


def conv2d_float(inputs: np.ndarray, filters: np.ndarray, *,
                 strides=(1, 1), dilations=(1, 1),
                 padding: str = "SAME") -> np.ndarray:
    """Accurate float 2D convolution (im2col + GEMM), NHWC in, NHWC out."""
    _check_conv_args(inputs, filters)
    batch = inputs.shape[0]
    kh, kw, _, count = filters.shape
    patches, geometry = im2col(
        inputs, kh, kw, strides=strides, dilations=dilations, padding=padding,
    )
    flat = flatten_filters(filters)
    out = gemm_float(patches, flat)
    return out.reshape(batch, geometry.output_height, geometry.output_width, count)


def conv2d_float_backward(grad_output: np.ndarray, inputs: np.ndarray,
                          filters: np.ndarray, *, strides=(1, 1),
                          dilations=(1, 1), padding: str = "SAME",
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`conv2d_float` w.r.t. its input and filter tensors.

    The forward pass is ``im2col(x) @ flatten(w)``; the adjoints are the
    matching matrix products, with :func:`~repro.conv.im2col.col2im`
    scattering the patch-matrix gradient back onto the input pixels.  The
    approximate ``AxConv2D`` op reuses this exact-float gradient under the
    straight-through-estimator convention (approximate forward, exact
    backward through the dequantised values).
    """
    _check_conv_args(inputs, filters)
    kh, kw, _, count = filters.shape
    geometry = resolve_geometry(
        inputs.shape[1], inputs.shape[2], kh, kw,
        strides=strides, dilations=dilations, padding=padding,
    )
    expected = (inputs.shape[0], geometry.output_height,
                geometry.output_width, count)
    if grad_output.shape != expected:
        raise ShapeError(
            f"grad_output must have the forward output shape {expected}, "
            f"got {grad_output.shape}"
        )
    patches, _ = im2col(
        inputs, kh, kw, strides=strides, dilations=dilations, padding=padding,
    )
    grad_flat_out = grad_output.reshape(-1, count)
    grad_filters = (patches.T @ grad_flat_out).reshape(filters.shape)
    grad_patches = grad_flat_out @ flatten_filters(filters).T
    grad_inputs = col2im(
        grad_patches, inputs.shape, kh, kw,
        strides=strides, dilations=dilations, padding=padding,
    )
    return grad_inputs, grad_filters


def conv2d_direct(inputs: np.ndarray, filters: np.ndarray, *,
                  strides=(1, 1), dilations=(1, 1),
                  padding: str = "SAME") -> np.ndarray:
    """Accurate float convolution written as the naive nested loop.

    Quadratically slower than :func:`conv2d_float`; intended for validation
    on small tensors only.
    """
    _check_conv_args(inputs, filters)
    batch, in_h, in_w, channels = inputs.shape
    kh, kw, _, count = filters.shape
    geometry = resolve_geometry(
        in_h, in_w, kh, kw, strides=strides, dilations=dilations, padding=padding,
    )
    padded = np.pad(
        inputs.astype(np.float64),
        ((0, 0),
         (geometry.pad_top, geometry.pad_bottom),
         (geometry.pad_left, geometry.pad_right),
         (0, 0)),
    )
    out = np.zeros(
        (batch, geometry.output_height, geometry.output_width, count),
        dtype=np.float64,
    )
    for n in range(batch):
        for oy in range(geometry.output_height):
            for ox in range(geometry.output_width):
                y0 = oy * geometry.stride_h
                x0 = ox * geometry.stride_w
                for f in range(count):
                    acc = 0.0
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = y0 + ky * geometry.dilation_h
                            ix = x0 + kx * geometry.dilation_w
                            for c in range(channels):
                                acc += padded[n, iy, ix, c] * filters[ky, kx, c, f]
                    out[n, oy, ox, f] = acc
    return out


def approx_conv2d_direct(inputs: np.ndarray, filters: np.ndarray,
                         lut: LookupTable, input_q: QuantParams,
                         filter_q: QuantParams, *, strides=(1, 1),
                         dilations=(1, 1), padding: str = "SAME") -> np.ndarray:
    """ALWANN-style direct approximate convolution (the paper's CPU baseline).

    Every scalar product is an individual LUT access inside a system of
    nested loops -- the formulation that "is difficult to efficiently
    parallelize on GPUs" (Section III) and that the GEMM-based engine of this
    library replaces.  Functionally it must agree exactly with
    :func:`repro.backends.emulate_conv2d`; the integration tests rely on that
    property.
    """
    _check_conv_args(inputs, filters)
    return approx_conv2d_direct_quantized(
        inputs, filter_q.quantize(filters).astype(np.int64), lut,
        input_q, filter_q,
        strides=strides, dilations=dilations, padding=padding,
    )


def approx_conv2d_direct_quantized(inputs: np.ndarray, q_filters: np.ndarray,
                                   lut: LookupTable, input_q: QuantParams,
                                   filter_q: QuantParams, *, strides=(1, 1),
                                   dilations=(1, 1),
                                   padding: str = "SAME") -> np.ndarray:
    """Direct-loop engine operating on an already-quantised HWCK filter bank.

    This is the loop body of :func:`approx_conv2d_direct` with the filter
    quantisation factored out, so the ``cpusim`` backend can reuse the filter
    bank prepared (and cached) by
    :meth:`repro.backends.InferencePipeline.prepare` instead of
    re-quantising per call.
    """
    if inputs.ndim != 4:
        raise ShapeError(f"inputs must be NHWC (4D), got shape {inputs.shape}")
    if q_filters.ndim != 4:
        raise ShapeError(
            f"filters must be HWCK (4D), got shape {q_filters.shape}"
        )
    batch, in_h, in_w, channels = inputs.shape
    kh, kw, _, count = q_filters.shape
    geometry = resolve_geometry(
        in_h, in_w, kh, kw, strides=strides, dilations=dilations, padding=padding,
    )

    q_inputs = input_q.quantize(inputs)
    padded = np.pad(
        q_inputs,
        ((0, 0),
         (geometry.pad_top, geometry.pad_bottom),
         (geometry.pad_left, geometry.pad_right),
         (0, 0)),
        mode="constant", constant_values=input_q.zero_point,
    )

    alpha1, beta1 = input_q.scale, input_q.zero_point
    alpha2, beta2 = filter_q.scale, filter_q.zero_point
    depth = kh * kw * channels

    out = np.zeros(
        (batch, geometry.output_height, geometry.output_width, count),
        dtype=np.float64,
    )
    sum_filter = np.zeros(count, dtype=np.int64)
    for f in range(count):
        sum_filter[f] = int(q_filters[:, :, :, f].sum())

    for n in range(batch):
        for oy in range(geometry.output_height):
            for ox in range(geometry.output_width):
                y0 = oy * geometry.stride_h
                x0 = ox * geometry.stride_w
                patch = padded[
                    n,
                    y0:y0 + (kh - 1) * geometry.dilation_h + 1:geometry.dilation_h,
                    x0:x0 + (kw - 1) * geometry.dilation_w + 1:geometry.dilation_w,
                    :,
                ]
                sum_patch = int(patch.sum())
                for f in range(count):
                    products = lut.lookup(patch, q_filters[:, :, :, f])
                    acc = int(np.sum(products))
                    corrected = (
                        acc
                        - beta2 * sum_patch
                        - beta1 * int(sum_filter[f])
                        + depth * beta1 * beta2
                    )
                    out[n, oy, ox, f] = alpha1 * alpha2 * corrected
    return out


def fake_quant_conv2d(inputs: np.ndarray, filters: np.ndarray,
                      input_q: QuantParams, filter_q: QuantParams, *,
                      strides=(1, 1), dilations=(1, 1),
                      padding: str = "SAME") -> np.ndarray:
    """Quantise, convolve exactly in the integer domain and dequantise.

    This is TensorFlow's quantise→conv→dequantise reference; with an exact
    multiplier LUT the approximate engines must reproduce it bit for bit
    (up to float summation order).
    """
    _check_conv_args(inputs, filters)
    batch = inputs.shape[0]
    kh, kw, _, count = filters.shape

    q_inputs = input_q.quantize(inputs).astype(np.float64)
    q_filters = filter_q.quantize(filters).astype(np.float64)

    patches, geometry = im2col(
        q_inputs, kh, kw, strides=strides, dilations=dilations, padding=padding,
        pad_value=float(input_q.zero_point),
    )
    flat = flatten_filters(q_filters)
    acc = patches @ flat

    patch_sums = patches.sum(axis=1)
    f_sums = filter_sums(flat.astype(np.int64))
    out = dequantize_gemm(
        acc, patch_sums, f_sums, patches.shape[1], input_q, filter_q,
    )
    return out.reshape(batch, geometry.output_height, geometry.output_width, count)
