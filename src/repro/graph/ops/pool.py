"""Pooling operations (max, average and global average)."""

from __future__ import annotations

import numpy as np

from ...conv.im2col import col2im
from ...conv.padding import resolve_geometry
from ...errors import ShapeError
from ..node import Node, OpContext


def _pool_patches(x: np.ndarray, kernel, strides, padding: str,
                  pad_value: float) -> tuple[np.ndarray, tuple[int, int]]:
    """Gather pooling windows of an NHWC tensor.

    Returns an array of shape ``[N, OH, OW, KH*KW, C]`` plus the output
    spatial size, so both max and average pooling reduce over axis 3.
    """
    if x.ndim != 4:
        raise ShapeError(f"pooling expects an NHWC tensor, got shape {x.shape}")
    kh, kw = kernel
    geometry = resolve_geometry(
        x.shape[1], x.shape[2], kh, kw, strides=strides, padding=padding,
    )
    padded = np.pad(
        x,
        ((0, 0),
         (geometry.pad_top, geometry.pad_bottom),
         (geometry.pad_left, geometry.pad_right),
         (0, 0)),
        mode="constant", constant_values=pad_value,
    )
    windows = np.empty(
        (x.shape[0], geometry.output_height, geometry.output_width, kh * kw, x.shape[3]),
        dtype=x.dtype,
    )
    for oy in range(geometry.output_height):
        for ox in range(geometry.output_width):
            y0 = oy * geometry.stride_h
            x0 = ox * geometry.stride_w
            patch = padded[:, y0:y0 + kh, x0:x0 + kw, :]
            windows[:, oy, ox, :, :] = patch.reshape(x.shape[0], kh * kw, x.shape[3])
    return windows, (geometry.output_height, geometry.output_width)


def _window_sizes(input_shape, kernel, strides, padding: str) -> np.ndarray:
    """In-image pixel count of each pooling window, shape ``[OH, OW, 1]``.

    TensorFlow's average pooling divides each window by this count, so the
    zeros a ``SAME`` window reads past the image edge do not dilute the
    mean.  Under ``VALID`` every entry is ``KH*KW``.
    """
    kh, kw = kernel
    geometry = resolve_geometry(
        input_shape[1], input_shape[2], kh, kw, strides=strides,
        padding=padding,
    )

    def covered(outputs, stride, pad, k, size):
        start = np.arange(outputs) * stride - pad
        return np.minimum(start + k, size) - np.maximum(start, 0)

    rows = covered(geometry.output_height, geometry.stride_h,
                   geometry.pad_top, kh, input_shape[1])
    cols = covered(geometry.output_width, geometry.stride_w,
                   geometry.pad_left, kw, input_shape[2])
    return np.multiply.outer(rows, cols)[:, :, None]


def _scatter_patches(grad_windows: np.ndarray, input_shape, kernel, strides,
                     padding: str) -> np.ndarray:
    """Adjoint of :func:`_pool_patches`: add window gradients back onto pixels.

    The ``[N, OH, OW, KH*KW, C]`` window layout flattens to exactly the
    (kernel row, kernel column, channel) column order of the convolution
    patch matrix, so the scatter-add is :func:`repro.conv.im2col.col2im`
    verbatim (pixels covered by overlapping windows accumulate every
    contribution, gradients landing on padded positions are discarded).
    """
    batch = input_shape[0]
    kh, kw = kernel
    return col2im(
        grad_windows.reshape(batch * grad_windows.shape[1] * grad_windows.shape[2], -1),
        input_shape, kh, kw, strides=strides, padding=padding,
    )


class MaxPool2D(Node):
    """Max pooling over NHWC tensors."""

    op_type = "MaxPool2D"

    def __init__(self, graph, x: Node, *, kernel=(2, 2), strides=(2, 2),
                 padding: str = "VALID", name: str | None = None) -> None:
        self.kernel = tuple(kernel)
        self.strides = tuple(strides)
        self.padding = padding
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        windows, _ = _pool_patches(
            inputs[0], self.kernel, self.strides, self.padding, -np.inf,
        )
        return windows.max(axis=3)

    def backward(self, grad_output, ctx: OpContext):
        windows, _ = _pool_patches(
            ctx.inputs[0], self.kernel, self.strides, self.padding, -np.inf,
        )
        # Route the gradient to the window maxima; ties share it equally
        # (matches the subgradient convention of TF/PyTorch up to tie order).
        mask = windows == ctx.output[:, :, :, None, :]
        ties = mask.sum(axis=3, keepdims=True)
        grad_windows = mask * (grad_output[:, :, :, None, :] / ties)
        return [_scatter_patches(
            grad_windows, ctx.inputs[0].shape, self.kernel, self.strides,
            self.padding,
        )]

    def infer_shape(self, input_shapes):
        shape = input_shapes[0]
        if shape is None or any(s is None for s in shape[1:3]):
            return None
        geometry = resolve_geometry(
            shape[1], shape[2], self.kernel[0], self.kernel[1],
            strides=self.strides, padding=self.padding,
        )
        return (shape[0], geometry.output_height, geometry.output_width, shape[3])


class AvgPool2D(Node):
    """Average pooling over NHWC tensors.

    Like TensorFlow's ``AvgPool``, each window averages only its in-image
    pixels: ``SAME`` padding does not count towards the mean.
    """

    op_type = "AvgPool2D"

    def __init__(self, graph, x: Node, *, kernel=(2, 2), strides=(2, 2),
                 padding: str = "VALID", name: str | None = None) -> None:
        self.kernel = tuple(kernel)
        self.strides = tuple(strides)
        self.padding = padding
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        windows, _ = _pool_patches(
            inputs[0], self.kernel, self.strides, self.padding, 0.0,
        )
        total = windows.sum(axis=3)
        sizes = _window_sizes(
            inputs[0].shape, self.kernel, self.strides, self.padding)
        return total / sizes.astype(total.dtype)

    def backward(self, grad_output, ctx: OpContext):
        kh, kw = self.kernel
        x = ctx.inputs[0]
        sizes = _window_sizes(x.shape, self.kernel, self.strides, self.padding)
        share = (grad_output / sizes.astype(grad_output.dtype))[:, :, :, None, :]
        grad_windows = np.broadcast_to(
            share, grad_output.shape[:3] + (kh * kw, x.shape[3]))
        return [_scatter_patches(
            grad_windows, x.shape, self.kernel, self.strides, self.padding,
        )]

    def infer_shape(self, input_shapes):
        shape = input_shapes[0]
        if shape is None or any(s is None for s in shape[1:3]):
            return None
        geometry = resolve_geometry(
            shape[1], shape[2], self.kernel[0], self.kernel[1],
            strides=self.strides, padding=self.padding,
        )
        return (shape[0], geometry.output_height, geometry.output_width, shape[3])


class GlobalAvgPool(Node):
    """Global average pooling: NHWC -> NC."""

    op_type = "GlobalAvgPool"

    def __init__(self, graph, x: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        x = inputs[0]
        if x.ndim != 4:
            raise ShapeError(f"GlobalAvgPool expects an NHWC tensor, got {x.shape}")
        return x.mean(axis=(1, 2))

    def backward(self, grad_output, ctx: OpContext):
        x = ctx.inputs[0]
        positions = x.shape[1] * x.shape[2]
        grad = np.broadcast_to(
            grad_output[:, None, None, :] / positions, x.shape)
        return [grad]

    def infer_shape(self, input_shapes):
        shape = input_shapes[0]
        if shape is None:
            return None
        return (shape[0], shape[3])
