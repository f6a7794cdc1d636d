"""Independent formulations the convolution paths are checked against.

These oracles live with the tests (beside ``lut_gemm_reference.py``) rather
than in :mod:`repro.conv.reference`, because no program path runs them:

* :func:`conv2d_direct` -- accurate float convolution as the naive nested
  loop, checked against :func:`repro.conv.conv2d_float` (im2col + GEMM);
* :func:`fake_quant_conv2d` -- quantise inputs and filters, convolve exactly
  in the integer domain and dequantise.  The paper states that the
  approximate layer with an accurate multiplier computes exactly this, which
  the tests check against :func:`repro.backends.emulate_conv2d`;
* :func:`conv_workloads_from_graph` -- per-layer workloads derived from a
  graph by shape inference, checked against the workloads a model builder
  records (``model.conv_workloads``).
"""

from __future__ import annotations

import numpy as np

from repro.conv import (dequantize_gemm, filter_sums, flatten_filters, im2col,
                        resolve_geometry)
from repro.graph import Graph, infer_shapes
from repro.graph.ops import AxConv2D, Conv2D
from repro.quantization import QuantParams
from repro.workload import ConvWorkload


def conv2d_direct(inputs: np.ndarray, filters: np.ndarray, *,
                  strides=(1, 1), dilations=(1, 1),
                  padding: str = "SAME") -> np.ndarray:
    """Accurate float convolution written as the naive nested loop.

    Quadratically slower than :func:`repro.conv.conv2d_float`; for small
    tensors only.
    """
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


def fake_quant_conv2d(inputs: np.ndarray, filters: np.ndarray,
                      input_q: QuantParams, filter_q: QuantParams, *,
                      strides=(1, 1), dilations=(1, 1),
                      padding: str = "SAME") -> np.ndarray:
    """Quantise, convolve exactly in the integer domain and dequantise.

    This is TensorFlow's quantise→conv→dequantise reference; with an exact
    multiplier LUT the approximate engines must reproduce it bit for bit
    (up to float summation order).
    """
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


def conv_workloads_from_graph(graph: Graph) -> list[ConvWorkload]:
    """Derive per-layer workloads from the convolution nodes of a graph.

    Uses static shape inference, so every placeholder must have a fully
    defined shape apart from the batch dimension.  Both accurate ``Conv2D``
    and approximate ``AxConv2D`` nodes are counted (they describe the same
    layer workload).
    """
    shapes = infer_shapes(graph)
    workloads: list[ConvWorkload] = []
    for node in graph.topological_order():
        if node.op_type not in (Conv2D.op_type, AxConv2D.op_type):
            continue
        data, filters = node.inputs[0], node.inputs[1]
        data_shape = shapes.get(data.name)
        filter_shape = shapes.get(filters.name)
        if data_shape is None or filter_shape is None:
            continue
        stride = node.strides if isinstance(node.strides, int) else node.strides[0]
        workloads.append(ConvWorkload(
            name=node.name,
            input_height=int(data_shape[1]),
            input_width=int(data_shape[2]),
            input_channels=int(data_shape[3]),
            kernel_height=int(filter_shape[0]),
            kernel_width=int(filter_shape[1]),
            output_channels=int(filter_shape[3]),
            stride=int(stride),
            padding=node.padding,
        ))
    return workloads
