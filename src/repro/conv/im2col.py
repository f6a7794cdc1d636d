"""Image-to-columns (im2col) transformation.

The GEMM formulation of the convolution first builds the *patch matrix*
``Mp`` in which "each row corresponds to a single position of the kernel"
(Section III).  For the approximate path, Algorithm 1 additionally computes
the per-patch dequantisation sums ``Sp`` (the second sum of Eq. 4) in the
same pass over the data -- the trick the CUDA kernel implements with a shared
memory prefix scan and ``atomicAdd``.

Two entry points are provided:

* :func:`im2col` works on real-valued tensors and is used by the accurate
  GEMM-based convolution and by the tests that validate geometry.
* :func:`im2col_quantized` additionally quantises the patches and returns
  ``(Mp, Sp)``; padded positions are filled with the zero-point so they
  represent an exact real 0, as required by the paper's quantisation scheme.
  ``Mp`` keeps the narrowest integer dtype of the quantised range (int8 or
  uint8 for the paper's 8-bit operands), the compact 8-bit patch matrix of
  the CUDA kernel rather than a 64-bit copy of it.

Both build the patch matrix with one strided-slice copy per kernel tap into
a contiguous ``[N, OH, OW, kh * kw, C]`` buffer, which reshapes to ``Mp``
without a copy.  :func:`col2im`, the adjoint of :func:`im2col` and the
pooling backward's scatter, walks the same tap windows in reverse order
with one strided ``+=`` each, which adds every pixel's contributions in the
order of an element-wise ``numpy.add.at`` scatter, so its float sums match
that scatter bit for bit.  The convolution backward
(:func:`repro.conv.reference.conv2d_float_backward`) walks the tap windows
(:func:`_tap_windows`) itself and builds no patch matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..quantization.affine import IntegerRange, QuantParams
from .padding import ConvGeometry, resolve_geometry


def _check_nhwc(inputs: np.ndarray) -> None:
    if inputs.ndim != 4:
        raise ShapeError(
            f"expected a 4D NHWC input tensor, got shape {inputs.shape}"
        )


def _pad(inputs: np.ndarray, geometry: ConvGeometry, value) -> np.ndarray:
    """Pad the spatial axes of an NHWC batch with the constant ``value``."""
    return np.pad(
        inputs,
        ((0, 0),
         (geometry.pad_top, geometry.pad_bottom),
         (geometry.pad_left, geometry.pad_right),
         (0, 0)),
        mode="constant", constant_values=value,
    )


def _tap_windows(geometry: ConvGeometry):
    """Yield ``(tap, rows, cols)`` for every kernel tap, in tap order.

    ``tap = ky * kernel_w + kx`` is the tap's position in a patch row, and
    ``padded[:, rows, cols, :]`` is the ``[N, OH, OW, C]`` strided window
    of padded pixels that tap reads at every output position.
    """
    g = geometry
    row_span = (g.output_height - 1) * g.stride_h + 1
    col_span = (g.output_width - 1) * g.stride_w + 1
    for ky in range(g.kernel_height):
        y0 = ky * g.dilation_h
        rows = slice(y0, y0 + row_span, g.stride_h)
        for kx in range(g.kernel_width):
            x0 = kx * g.dilation_w
            cols = slice(x0, x0 + col_span, g.stride_w)
            yield ky * g.kernel_width + kx, rows, cols


def _patch_matrix(padded: np.ndarray, geometry: ConvGeometry) -> np.ndarray:
    """Build the ``[N * OH * OW, kh * kw * C]`` patch matrix of a padded batch.

    One strided-slice copy per kernel tap fills a C-contiguous
    ``[N, OH, OW, kh * kw, C]`` buffer in ``padded``'s dtype, so the final
    reshape is free and the patch row order is (kernel row, kernel column,
    channel), matching :func:`flatten_filters`.
    """
    batch, _, _, channels = padded.shape
    g = geometry
    taps = g.kernel_height * g.kernel_width
    patches = np.empty(
        (batch, g.output_height, g.output_width, taps, channels),
        dtype=padded.dtype,
    )
    for tap, rows, cols in _tap_windows(g):
        patches[:, :, :, tap, :] = padded[:, rows, cols, :]
    return patches.reshape(batch * g.patch_positions, taps * channels)


def _narrow_dtype(qrange: IntegerRange):
    """Smallest integer dtype holding every value of ``qrange``."""
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= qrange.qmin and qrange.qmax <= info.max:
            return dtype
    return np.int64


def im2col(inputs: np.ndarray, kernel_height: int, kernel_width: int, *,
           strides=(1, 1), dilations=(1, 1), padding: str = "SAME",
           pad_value: float = 0.0) -> tuple[np.ndarray, ConvGeometry]:
    """Extract convolution patches from an NHWC batch.

    Returns a matrix of shape ``(N * out_h * out_w, kernel_h * kernel_w * C)``
    (one row per kernel position) together with the resolved geometry.
    """
    _check_nhwc(inputs)
    _, in_h, in_w, _ = inputs.shape
    geometry = resolve_geometry(
        in_h, in_w, kernel_height, kernel_width,
        strides=strides, dilations=dilations, padding=padding,
    )
    padded = _pad(inputs, geometry, pad_value)
    return _patch_matrix(padded, geometry), geometry


def im2col_quantized(inputs: np.ndarray, kernel_height: int, kernel_width: int,
                     qparams: QuantParams, *, strides=(1, 1), dilations=(1, 1),
                     padding: str = "SAME",
                     ) -> tuple[np.ndarray, np.ndarray, ConvGeometry]:
    """Quantise an NHWC batch and build the patch matrix and patch sums.

    This is the ``Im2Cols`` step of Algorithm 1: the returned ``Mp`` holds the
    quantised patch values (one row per kernel position) and ``Sp`` the
    per-row int64 sums of those quantised values, needed by the
    dequantisation correction of Eq. 4.  ``Mp`` is C-contiguous in the
    smallest integer dtype holding ``qparams.qrange`` -- int8 or uint8 for
    the paper's 8-bit ranges: the batch is quantised straight into the
    interior of a padded buffer of that dtype.  Padded positions hold the
    zero-point ``beta`` so that they represent an exact real zero and their
    contribution to Eq. 4 cancels.  ``Sp`` adds each tap window of the
    padded buffer's per-pixel channel sums, ``kh * kw`` adds of one value
    per output pixel instead of a pass over ``Mp``.
    """
    _check_nhwc(inputs)
    batch, in_h, in_w, channels = inputs.shape
    g = resolve_geometry(
        in_h, in_w, kernel_height, kernel_width,
        strides=strides, dilations=dilations, padding=padding,
    )
    padded = np.full((batch, g.padded_height, g.padded_width, channels),
                     qparams.zero_point, dtype=_narrow_dtype(qparams.qrange))
    qparams.quantize(inputs, out=padded[:, g.pad_top:g.pad_top + in_h,
                                        g.pad_left:g.pad_left + in_w])
    pixel_sums = padded.sum(axis=3, dtype=np.int64)
    patch_sums = np.zeros((batch, g.output_height, g.output_width),
                          dtype=np.int64)
    for _, rows, cols in _tap_windows(g):
        patch_sums += pixel_sums[:, rows, cols]
    return _patch_matrix(padded, g), patch_sums.reshape(-1), g


def col2im(patches: np.ndarray, input_shape, kernel_height: int,
           kernel_width: int, *, strides=(1, 1), dilations=(1, 1),
           padding: str = "SAME") -> np.ndarray:
    """Scatter-add patch-matrix rows back onto an NHWC tensor.

    This is the adjoint of :func:`im2col`: every patch value is added to the
    input pixel it was gathered from (pixels covered by several kernel
    positions accumulate all of their contributions; padded positions are
    discarded).  The pooling ops' backward uses it to turn the gradient of
    their ``[N, OH, OW, kh * kw, C]`` windows into the gradient of the
    input batch.

    Each kernel tap adds its ``[N, OH, OW, C]`` slab onto its strided
    window with one ``+=``; within a tap no two output positions share a
    pixel.  Taps run in *reverse* order: a pixel's contributions then
    arrive in ascending output-position order, the order an element-wise
    ``numpy.add.at`` scatter would add them, so the float sums are
    bit-identical to it.
    """
    batch, in_h, in_w, channels = input_shape
    geometry = resolve_geometry(
        in_h, in_w, kernel_height, kernel_width,
        strides=strides, dilations=dilations, padding=padding,
    )
    taps = kernel_height * kernel_width
    expected = (batch * geometry.patch_positions, taps * channels)
    if patches.shape != expected:
        raise ShapeError(
            f"patch matrix has shape {patches.shape}, expected {expected} for "
            f"input shape {tuple(input_shape)}"
        )
    padded = np.zeros(
        (batch, geometry.padded_height, geometry.padded_width, channels),
        dtype=np.float64,
    )
    values = patches.reshape(batch, geometry.output_height,
                             geometry.output_width, taps, channels)
    for tap, rows, cols in reversed(list(_tap_windows(geometry))):
        padded[:, rows, cols, :] += values[:, :, :, tap, :]
    return padded[:, geometry.pad_top:geometry.pad_top + in_h,
                  geometry.pad_left:geometry.pad_left + in_w, :]


def flatten_filters(filters: np.ndarray) -> np.ndarray:
    """Flatten an HWCK filter bank into the GEMM filter matrix.

    Each column of the result corresponds to one filter; the row order
    (kernel row, kernel column, channel) matches the patch layout produced by
    :func:`im2col`.
    """
    if filters.ndim != 4:
        raise ShapeError(
            f"expected a 4D HWCK filter tensor, got shape {filters.shape}"
        )
    kh, kw, channels, count = filters.shape
    return filters.reshape(kh * kw * channels, count)


def filter_sums(quantized_filters: np.ndarray) -> np.ndarray:
    """Per-filter sums ``Sf`` of quantised filter values (third sum of Eq. 4).

    ``quantized_filters`` is the flattened GEMM filter matrix (rows = kernel
    taps, columns = filters); the result has one entry per filter.
    """
    if quantized_filters.ndim != 2:
        raise ShapeError(
            "filter_sums expects the flattened [taps, filters] matrix, got "
            f"shape {quantized_filters.shape}"
        )
    return quantized_filters.sum(axis=0, dtype=np.int64)
