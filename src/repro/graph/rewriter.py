"""Graph rewriting utilities.

The Fig. 1 transformation is a structural rewrite: one node is replaced by a
small sub-graph and every consumer must be re-pointed at the new producer.
This helper keeps that logic in one place (and validated) so the actual
transformation in :mod:`repro.graph.transform` stays readable.
"""

from __future__ import annotations

from ..errors import GraphError
from .graph import Graph
from .node import Node


def replace_consumers(graph: Graph, old: Node, new: Node) -> int:
    """Re-point every consumer of ``old`` to ``new``.

    Returns the number of rewired input slots.  The producers of ``new``
    are never touched, so calling this with ``new`` depending on ``old``
    (the usual wrapper pattern) is safe.
    """
    if old is new:
        raise GraphError("cannot replace a node with itself")
    rewired = 0
    for consumer in graph.consumers(old):
        if consumer is new:
            continue
        rewired += consumer.replace_input(old, new)
    return rewired
