"""The dataflow graph container.

A :class:`Graph` owns a set of uniquely named :class:`~repro.graph.node.Node`
objects and provides the structural queries the rest of the library needs:
topological ordering (for execution), consumer lookup (for rewriting), type
queries (for finding every ``Conv2D`` to replace) and structural validation.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from ..errors import GraphError
from .node import Node


class Graph:
    """Container of dataflow nodes with unique names."""

    def __init__(self, name: str = "graph") -> None:
        self._name = name
        self._nodes: dict[str, Node] = {}
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Name of the graph (used in reports)."""
        return self._name

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, node: Node | str) -> bool:
        if isinstance(node, str):
            return node in self._nodes
        return self._nodes.get(node.name) is node

    # ------------------------------------------------------------------
    def register(self, node: Node, name: str | None) -> str:
        """Register a node, assigning a unique name; returns the final name."""
        if name is None:
            base = node.op_type.lower()
            count = self._counters.get(base, 0)
            self._counters[base] = count + 1
            name = f"{base}_{count}" if count else base
        if name in self._nodes:
            raise GraphError(f"node name {name!r} is already used in graph {self._name!r}")
        self._nodes[name] = node
        return name

    def remove(self, node: Node) -> None:
        """Remove a node that no longer has consumers.

        Raises :class:`~repro.errors.GraphError` if any remaining node still
        consumes it, so rewrites cannot silently corrupt the graph.
        """
        if node.name not in self._nodes or self._nodes[node.name] is not node:
            raise GraphError(f"node {node.name!r} is not part of graph {self._name!r}")
        consumers = self.consumers(node)
        if consumers:
            names = ", ".join(c.name for c in consumers)
            raise GraphError(
                f"cannot remove node {node.name!r}: still consumed by {names}"
            )
        del self._nodes[node.name]

    # ------------------------------------------------------------------
    def get(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"graph {self._name!r} has no node named {name!r}") from None

    def nodes(self) -> list[Node]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def nodes_by_type(self, op_type: str) -> list[Node]:
        """All nodes whose ``op_type`` matches."""
        return [n for n in self._nodes.values() if n.op_type == op_type]

    def consumers(self, node: Node) -> list[Node]:
        """All nodes that take ``node`` as an input."""
        return [n for n in self._nodes.values() if node in n.inputs]

    # ------------------------------------------------------------------
    def topological_order(self, targets: Iterable[Node] | None = None) -> list[Node]:
        """Return nodes in a valid evaluation order.

        When ``targets`` is given, only the ancestors of those nodes are
        included.  Raises on cycles.
        """
        if targets is None:
            wanted = set(self._nodes.values())
        else:
            wanted = set()
            stack = list(targets)
            while stack:
                node = stack.pop()
                if node in wanted:
                    continue
                if node.name not in self._nodes or self._nodes[node.name] is not node:
                    raise GraphError(
                        f"target node {node.name!r} is not part of graph {self._name!r}"
                    )
                wanted.add(node)
                stack.extend(node.inputs)

        # A node may consume the same producer several times (e.g. Add(x, x));
        # dependency counting works on the set of distinct producers so each
        # completed producer unlocks the consumer exactly once.  Consumer
        # lists are built once, in insertion order -- the order consumers()
        # reports -- so the sort is O(nodes + edges).
        in_degree: dict[Node, int] = {}
        consumers: dict[Node, list[Node]] = {}
        for node in self._nodes.values():
            if node not in wanted:
                continue
            producers = {p for p in node.inputs if p in wanted}
            in_degree[node] = len(producers)
            for producer in producers:
                consumers.setdefault(producer, []).append(node)

        ready = deque(node for node, degree in in_degree.items() if degree == 0)
        order: list[Node] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for consumer in consumers.get(node, ()):
                in_degree[consumer] -= 1
                if in_degree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(wanted):
            raise GraphError(
                f"graph {self._name!r} contains a cycle among the requested nodes"
            )
        return order

    def validate(self) -> None:
        """Check structural invariants (inputs registered, acyclic)."""
        for node in self._nodes.values():
            for producer in node.inputs:
                if producer.name not in self._nodes or \
                        self._nodes[producer.name] is not producer:
                    raise GraphError(
                        f"node {node.name!r} consumes {producer.name!r} which is "
                        f"not registered in graph {self._name!r}"
                    )
        self.topological_order()

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Multi-line human-readable description of the graph."""
        lines = [f"Graph {self._name!r} ({len(self._nodes)} nodes)"]
        for node in self.topological_order():
            ins = ", ".join(p.name for p in node.inputs) or "-"
            lines.append(f"  {node.name:<32} {node.op_type:<16} <- {ins}")
        return "\n".join(lines)

    def op_type_histogram(self) -> dict[str, int]:
        """Count of nodes per op type (used by the transformation reports)."""
        histogram: dict[str, int] = {}
        for node in self._nodes.values():
            histogram[node.op_type] = histogram.get(node.op_type, 0) + 1
        return histogram
