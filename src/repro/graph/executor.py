"""Graph execution and reverse-mode differentiation.

The :class:`Executor` plays the role of a TensorFlow session: given feed
values for the placeholders it evaluates the requested output nodes in
topological order, caching intermediate results.  It keeps no timers or
counters: the approximate convolutions account for their own work (see
:func:`repro.backends.collect_reports`).

For training, :meth:`Executor.record` runs the same forward pass while
keeping every intermediate value on a :class:`Tape`, and
:meth:`Executor.backward` replays the tape in reverse, calling each node's
:meth:`~repro.graph.node.Node.backward` and accumulating gradients at fan-out
points.  :meth:`Executor.run_backward` combines the two for the common
"gradient of one fetch w.r.t. some nodes" case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from .graph import Graph
from .node import Node, OpContext
from .ops.basic import Placeholder


@dataclass(frozen=True)
class Tape:
    """Recorded forward pass: evaluation order plus every node's value."""

    order: tuple[Node, ...]
    values: dict[Node, np.ndarray]

    def value(self, node: Node) -> np.ndarray:
        """Forward value of ``node`` as recorded on this tape."""
        try:
            return self.values[node]
        except KeyError:
            raise ExecutionError(
                f"node {node.name!r} was not evaluated on this tape"
            ) from None


@dataclass(frozen=True)
class BackwardResult:
    """Output of one :meth:`Executor.run_backward` call."""

    output: np.ndarray
    gradients: dict[Node, np.ndarray]
    tape: Tape


class Executor:
    """Evaluates nodes of a :class:`~repro.graph.graph.Graph`.

    Parameters
    ----------
    graph:
        The graph to execute.  It is validated once at construction.
    """

    def __init__(self, graph: Graph) -> None:
        graph.validate()
        self._graph = graph

    @property
    def graph(self) -> Graph:
        """The graph being executed."""
        return self._graph

    def run(self, fetches: Node | list[Node],
            feeds: dict[Node | str, np.ndarray] | None = None
            ) -> np.ndarray | list[np.ndarray]:
        """Evaluate ``fetches`` given placeholder ``feeds``.

        ``fetches`` may be a single node or a list; the return value matches
        that structure.  Feeds may be keyed by node or by node name.
        """
        single = isinstance(fetches, Node)
        fetch_list = [fetches] if single else list(fetches)
        cache, _ = self._forward(fetch_list, feeds or {})
        results = [cache[node] for node in fetch_list]
        return results[0] if single else results

    def _forward(self, fetch_list: list[Node],
                 feeds: dict[Node | str, np.ndarray]
                 ) -> tuple[dict[Node, np.ndarray], list[Node]]:
        """Evaluate ``fetch_list``; returns the value cache and the order."""
        feed_values: dict[Node, np.ndarray] = {}
        for key, value in feeds.items():
            node = self._graph.get(key) if isinstance(key, str) else key
            if not isinstance(node, Placeholder):
                raise ExecutionError(
                    f"only placeholders can be fed, got {node.op_type} node "
                    f"{node.name!r}"
                )
            feed_values[node] = node.check_feed(value)

        order = self._graph.topological_order(fetch_list)
        missing = [
            node.name for node in order
            if isinstance(node, Placeholder) and node not in feed_values
        ]
        if missing:
            raise ExecutionError(
                f"missing feeds for placeholders: {', '.join(sorted(missing))}"
            )

        cache: dict[Node, np.ndarray] = dict(feed_values)
        for node in order:
            if node in cache:
                continue
            input_values = [cache[producer] for producer in node.inputs]
            try:
                value = node.compute(input_values)
            except Exception as exc:
                if isinstance(exc, ExecutionError):
                    raise
                raise ExecutionError(
                    f"evaluation of {node.op_type} node {node.name!r} failed: {exc}"
                ) from exc
            cache[node] = np.asarray(value)
        return cache, order

    # ------------------------------------------------------------------
    def record(self, fetches: Node | list[Node],
               feeds: dict[Node | str, np.ndarray] | None = None
               ) -> tuple[np.ndarray | list[np.ndarray], Tape]:
        """Like :meth:`run`, but also return the gradient :class:`Tape`.

        The tape holds every intermediate value of the forward pass, which
        :meth:`backward` needs to evaluate the local vector-Jacobian
        products; a training step records once and differentiates from the
        recorded values.
        """
        single = isinstance(fetches, Node)
        fetch_list = [fetches] if single else list(fetches)
        cache, order = self._forward(fetch_list, feeds or {})
        tape = Tape(order=tuple(order), values=cache)
        results = [cache[node] for node in fetch_list]
        return (results[0] if single else results), tape

    def backward(self, tape: Tape, output: Node,
                 grad_output: np.ndarray | None = None, *,
                 wrt: list[Node] | None = None) -> dict[Node, np.ndarray]:
        """Reverse sweep over a recorded tape from ``output``.

        ``grad_output`` seeds the sweep (gradient of the objective w.r.t.
        ``output``'s value); it defaults to all-ones, which for a scalar
        output means differentiating the output itself.  Gradients are
        accumulated where a node feeds several consumers; branches whose op
        declares itself non-differentiable in an input (``backward`` returns
        ``None`` there) are pruned.

        When ``wrt`` is given, the result maps exactly those nodes to their
        gradients (zeros when no gradient reaches a node); otherwise it
        contains every node a gradient reached.
        """
        output_value = tape.value(output)
        if grad_output is None:
            seed = np.ones_like(output_value, dtype=np.float64)
        else:
            seed = np.asarray(grad_output, dtype=np.float64)
            if seed.shape != output_value.shape:
                raise ExecutionError(
                    f"grad_output shape {seed.shape} does not match the "
                    f"output shape {output_value.shape} of node {output.name!r}"
                )
        grads: dict[Node, np.ndarray] = {output: seed}

        for node in reversed(tape.order):
            if node not in grads or not node.inputs:
                continue
            ctx = OpContext(
                inputs=tuple(tape.value(producer) for producer in node.inputs),
                output=tape.value(node),
            )
            try:
                input_grads = node.backward(grads[node], ctx)
            except Exception as exc:
                if isinstance(exc, ExecutionError):
                    raise
                raise ExecutionError(
                    f"backward of {node.op_type} node {node.name!r} failed: {exc}"
                ) from exc
            if len(input_grads) != len(node.inputs):
                raise ExecutionError(
                    f"backward of {node.op_type} node {node.name!r} returned "
                    f"{len(input_grads)} gradients for {len(node.inputs)} inputs"
                )
            for producer, grad in zip(node.inputs, input_grads):
                if grad is None:
                    continue
                grad = np.asarray(grad, dtype=np.float64)
                expected = np.shape(tape.value(producer))
                if grad.shape != expected:
                    raise ExecutionError(
                        f"backward of {node.op_type} node {node.name!r} "
                        f"produced gradient of shape {grad.shape} for input "
                        f"{producer.name!r} of shape {expected}"
                    )
                if producer in grads:
                    grads[producer] = grads[producer] + grad
                else:
                    grads[producer] = grad

        if wrt is None:
            return grads
        return {
            node: grads.get(
                node, np.zeros_like(tape.value(node), dtype=np.float64))
            for node in wrt
        }

    def run_backward(self, fetch: Node,
                     feeds: dict[Node | str, np.ndarray] | None = None, *,
                     grad_output: np.ndarray | None = None,
                     wrt: list[Node] | None = None) -> BackwardResult:
        """Forward-evaluate ``fetch`` and backpropagate through the graph.

        Convenience wrapper combining :meth:`record` and :meth:`backward`
        for callers that know the seed gradient up front (gradient checks,
        simple scalar objectives).  A training loop that derives the seed
        from the forward value (e.g. a softmax cross-entropy over fetched
        logits) should call the two phases itself.
        """
        value, tape = self.record(fetch, feeds)
        grads = self.backward(tape, fetch, grad_output, wrt=wrt)
        return BackwardResult(output=value, gradients=grads, tape=tape)


def infer_shapes(graph: Graph, feed_shapes: dict[str, tuple[int | None, ...]] | None = None
                 ) -> dict[str, tuple[int, ...] | None]:
    """Best-effort static shape inference over a whole graph.

    ``feed_shapes`` overrides placeholder shapes (e.g. to pin the batch
    size).  The result maps node names to shapes, with ``None`` for nodes
    whose shape cannot be determined statically.
    """
    feed_shapes = feed_shapes or {}
    shapes: dict[str, tuple[int, ...] | None] = {}
    for node in graph.topological_order():
        if isinstance(node, Placeholder) and node.name in feed_shapes:
            shapes[node.name] = tuple(feed_shapes[node.name])
            continue
        input_shapes = [shapes.get(p.name) for p in node.inputs]
        try:
            shapes[node.name] = node.infer_shape(input_shapes)
        except Exception:
            shapes[node.name] = None
    return shapes
