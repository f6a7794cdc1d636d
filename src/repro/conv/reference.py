"""Reference convolution engines.

Two engines live here, with the float backward pass:

* :func:`conv2d_float` -- accurate float convolution via im2col + GEMM; this
  is the behaviour of TensorFlow's native ``Conv2D`` that the accurate
  columns of Table I measure.  :func:`conv2d_float_backward` is its
  gradient, which ``AxConv2D`` reuses under the straight-through estimator.
  It walks the kernel's tap windows of the padded input with one small GEMM
  per tap for each operand and builds no patch matrix.
* :func:`approx_conv2d_direct` -- the ALWANN-style direct approximate
  convolution: the system of nested loops over batch, output pixel and output
  channel that reference [12] of the paper used on the CPU, with each scalar
  multiplication served by the multiplier LUT.  The paper's CPU baseline for
  the approximate columns of Table I is this algorithm; its poor GPU
  parallelisability is what motivates the GEMM-based design of Section III.
  The tests check the vectorised engine against it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..lut.table import LookupTable
from ..quantization.affine import QuantParams
from .im2col import _pad, _tap_windows, flatten_filters, im2col
# Unused here; perfbench's tracer wraps ``repro.conv.reference.col2im``.
from .im2col import col2im  # noqa: F401
from .gemm import gemm_float
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

    The forward pass is ``im2col(x) @ flatten(w)``; its adjoints are taken
    one kernel tap at a time over the same strided windows of the padded
    input that the patch matrix is built from, so no patch matrix (and no
    patch-matrix gradient) is ever built.  With ``G`` the ``[P, K]``
    output gradient and ``W[tap]`` the tap's ``[C, K]`` filter slice:

    * ``grad_w[tap] = window(x).T @ G``;
    * ``window(grad_x) += G @ W[tap].T``, taps in reverse order, so every
      pixel's contributions add in ascending output-position order, the
      order of an element-wise ``numpy.add.at`` scatter (as
      :func:`~repro.conv.im2col.col2im` adds them).

    The approximate ``AxConv2D`` op reuses this exact-float gradient under
    the straight-through-estimator convention (approximate forward, exact
    backward through the dequantised values).
    """
    _check_conv_args(inputs, filters)
    batch, in_h, in_w, channels = inputs.shape
    kh, kw, _, count = filters.shape
    g = resolve_geometry(
        in_h, in_w, kh, kw,
        strides=strides, dilations=dilations, padding=padding,
    )
    expected = (batch, g.output_height, g.output_width, count)
    if grad_output.shape != expected:
        raise ShapeError(
            f"grad_output must have the forward output shape {expected}, "
            f"got {grad_output.shape}"
        )
    padded = _pad(inputs, g, 0.0)
    grad_flat_out = grad_output.reshape(-1, count)
    tap_filters = filters.reshape(kh * kw, channels, count)
    windows = list(_tap_windows(g))
    grad_filters = np.stack([
        padded[:, rows, cols, :].reshape(-1, channels).T @ grad_flat_out
        for _, rows, cols in windows
    ]).reshape(filters.shape)
    grad_padded = np.zeros(
        (batch, g.padded_height, g.padded_width, channels), dtype=np.float64,
    )
    for tap, rows, cols in reversed(windows):
        grad_padded[:, rows, cols, :] += (
            grad_flat_out @ tap_filters[tap].T
        ).reshape(batch, g.output_height, g.output_width, channels)
    grad_inputs = grad_padded[:, g.pad_top:g.pad_top + in_h,
                              g.pad_left:g.pad_left + in_w, :]
    return grad_inputs, grad_filters


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
    q_filters = filter_q.quantize(filters).astype(np.int64)
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
