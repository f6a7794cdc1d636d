"""The Fig. 1 graph transformation: ``Conv2D`` → ``AxConv2D`` + Min/Max.

The design flow described in Section II is:

    "Firstly, a DNN model is created or loaded in TF.  Then, all
    convolutional layers are identified and replaced by corresponding
    approximate variants.  During this process, the minimum and maximum
    operators are inserted into the computational path and connected to the
    approximate layers.  At the end, we obtain a transformed graph which is
    suitable for the inference as well as training because the minimum and
    maximum values of the input tensors are determined once per a batch."

:func:`approximate_graph` implements exactly that flow on our graph
framework: every ``Conv2D`` node is replaced in place by an ``AxConv2D`` fed
by ``ReduceMin``/``ReduceMax`` nodes over the original data and filter
tensors, and all downstream consumers are rewired to the new node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import GraphError
from ..lut.table import LookupTable
from ..multipliers.base import Multiplier
from .graph import Graph
from .node import Node
from .ops.basic import Constant, ReduceMax, ReduceMin
from .ops.conv import AxConv2D, Conv2D
from .rewriter import replace_consumers

#: Fraction of the calibrated span by which :func:`freeze_ranges` widens
#: each input range on both ends.
RANGE_MARGIN = 0.05


@dataclass
class TransformReport:
    """Summary of one graph transformation run."""

    replaced: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    inserted_range_nodes: int = 0
    lut_name: str = ""

    @property
    def converted_layers(self) -> int:
        """Number of convolution layers converted to approximate variants."""
        return len(self.replaced)

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"replaced {self.converted_layers} Conv2D node(s) with AxConv2D "
            f"(lut={self.lut_name!r}), inserted {self.inserted_range_nodes} "
            f"range node(s), skipped {len(self.skipped)}"
        )


def _resolve_lut(multiplier_or_lut: Multiplier | LookupTable) -> LookupTable:
    if isinstance(multiplier_or_lut, LookupTable):
        return multiplier_or_lut
    if isinstance(multiplier_or_lut, Multiplier):
        return LookupTable.from_multiplier(multiplier_or_lut)
    raise GraphError(
        "expected a Multiplier or LookupTable, got "
        f"{type(multiplier_or_lut).__name__}"
    )


def approximate_graph(graph: Graph, multiplier_or_lut: Multiplier | LookupTable, *,
                      layer_filter=None) -> TransformReport:
    """Replace every ``Conv2D`` in ``graph`` by an ``AxConv2D`` (Fig. 1).

    Parameters
    ----------
    graph:
        The graph to transform, modified in place.
    multiplier_or_lut:
        The approximate multiplier to emulate, either as a behavioural model
        or directly as its lookup table.  Each ``AxConv2D`` quantises to
        the table's own operand range ([-128, 127] or [0, 255] at 8 bits).
    layer_filter:
        Optional predicate ``f(conv_node) -> bool``; layers for which it
        returns False keep their accurate implementation.  This enables the
        layer-wise approximation studies of ALWANN-style flows.

    Returns
    -------
    TransformReport
        Names of replaced/skipped layers and insertion counts.
    """
    lut = _resolve_lut(multiplier_or_lut)
    report = TransformReport(lut_name=lut.name)

    for conv in list(graph.nodes_by_type(Conv2D.op_type)):
        if layer_filter is not None and not layer_filter(conv):
            report.skipped.append(conv.name)
            continue
        data, filters = conv.inputs

        input_min = ReduceMin(graph, data, name=f"{conv.name}/input_min")
        input_max = ReduceMax(graph, data, name=f"{conv.name}/input_max")
        filter_min = ReduceMin(graph, filters, name=f"{conv.name}/filter_min")
        filter_max = ReduceMax(graph, filters, name=f"{conv.name}/filter_max")
        report.inserted_range_nodes += 4

        ax = AxConv2D(
            graph, data, filters, input_min, input_max, filter_min, filter_max,
            lut=lut, strides=conv.strides, dilations=conv.dilations,
            padding=conv.padding, name=f"{conv.name}/approx",
        )
        replace_consumers(graph, conv, ax)
        graph.remove(conv)
        report.replaced.append(conv.name)

    graph.validate()
    return report


def freeze_ranges(graph: Graph, feeds: dict) -> int:
    """Replace the dynamic Min/Max range probes with calibrated constants.

    The Fig. 1 transformation determines quantisation ranges "once per a
    batch", which makes a sample's output depend on which batch it shares —
    acceptable for offline evaluation, fatal for a serving layer that
    coalesces concurrent requests into timing-dependent batches.  This pass
    runs one calibration batch (``feeds``, keyed like
    :meth:`~repro.graph.executor.Executor.run` feeds), reads every
    ``ReduceMin``/``ReduceMax`` probe feeding an ``AxConv2D`` range slot and
    replaces it with a :class:`~repro.graph.ops.basic.Constant` holding the
    observed value.  Each *data* range (the input min/max pair) is widened
    by :data:`RANGE_MARGIN` of its span on both ends, headroom for serving
    traffic slightly outside the calibration distribution; filter ranges
    are exact (weights are constants) and never widened.  Afterwards every
    sample's output is independent of the rest of its batch (quantisation
    clips values outside the frozen range), so a micro-batching service can
    coalesce freely without changing results.

    Parameters
    ----------
    graph:
        A transformed graph (``AxConv2D`` nodes present), modified in place.
    feeds:
        Placeholder feeds of the calibration batch the ranges are read from.

    Returns
    -------
    int
        Number of range probes replaced by constants.
    """
    from .executor import Executor  # local import: executor imports this package

    ax_nodes = list(graph.nodes_by_type(AxConv2D.op_type))
    if not ax_nodes:
        raise GraphError(
            f"graph {graph.name!r} has no AxConv2D layers; apply the Fig. 1 "
            "transformation before freezing ranges"
        )
    dynamic: list[Node] = []
    for ax in ax_nodes:
        for probe in ax.inputs[2:6]:
            if probe.op_type in (ReduceMin.op_type, ReduceMax.op_type):
                if probe not in dynamic:
                    dynamic.append(probe)
    if not dynamic:
        return 0

    values = Executor(graph).run(dynamic, feeds)
    observed = dict(zip(dynamic, values))

    for ax in ax_nodes:
        low, high = ax.inputs[2], ax.inputs[3]
        if low in observed and high in observed:
            span = float(observed[high]) - float(observed[low])
            observed[low] = observed[low] - RANGE_MARGIN * span
            observed[high] = observed[high] + RANGE_MARGIN * span

    frozen = 0
    for probe, value in observed.items():
        constant = Constant(graph, value, name=f"{probe.name}/frozen")
        replace_consumers(graph, probe, constant)
        graph.remove(probe)
        frozen += 1
    graph.validate()
    return frozen


def restore_accurate_graph(graph: Graph) -> int:
    """Inverse transformation: turn every ``AxConv2D`` back into ``Conv2D``.

    The Min/Max range nodes become dead and are removed.  Returns the number
    of restored layers.  Useful for A/B comparisons on the same graph object.
    """
    restored = 0
    for ax in list(graph.nodes_by_type(AxConv2D.op_type)):
        data, filters = ax.inputs[0], ax.inputs[1]
        range_nodes = list(ax.inputs[2:])
        conv = Conv2D(
            graph, data, filters,
            strides=ax.strides, dilations=ax.dilations, padding=ax.padding,
            name=f"{ax.name}/accurate",
        )
        replace_consumers(graph, ax, conv)
        graph.remove(ax)
        for node in range_nodes:
            if not graph.consumers(node):
                graph.remove(node)
        restored += 1
    graph.validate()
    return restored
