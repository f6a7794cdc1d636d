"""Per-layer convolution workloads derived from a graph.

Table I's first columns (network name, number of 2D convolution layers ``L``
and MAC operations) come from each built model's recorded workloads.
:func:`conv_workloads_from_graph` derives the same workloads from a graph via
shape inference, which doubles as a consistency check between the two paths.
"""

from __future__ import annotations

from ..graph import Graph, infer_shapes
from ..graph.ops import AxConv2D, Conv2D
from ..workload import ConvWorkload


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
