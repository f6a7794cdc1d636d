"""Minimal dataflow-graph framework (the TensorFlow substrate substitute).

The framework provides just enough of a graph abstraction to express CIFAR
class CNNs, execute them, and apply the paper's Fig. 1 transformation that
swaps accurate convolutions for approximate ones.
"""

from . import ops
from .executor import BackwardResult, Executor, Tape, infer_shapes
from .graph import Graph
from .layerwise import assignment_key
from .node import Node, OpContext, unbroadcast
from .rewriter import replace_consumers
from .transform import (
    TransformReport,
    approximate_graph,
    approximate_graph_layerwise,
    freeze_ranges,
)

__all__ = [
    "Graph",
    "Node",
    "OpContext",
    "unbroadcast",
    "Executor",
    "Tape",
    "BackwardResult",
    "infer_shapes",
    "ops",
    "replace_consumers",
    "approximate_graph",
    "freeze_ranges",
    "TransformReport",
    "approximate_graph_layerwise",
    "assignment_key",
]
