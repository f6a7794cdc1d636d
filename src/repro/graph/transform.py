"""The Fig. 1 graph transformation: ``Conv2D`` → ``AxConv2D`` + Min/Max.

The design flow described in Section II is:

    "Firstly, a DNN model is created or loaded in TF.  Then, all
    convolutional layers are identified and replaced by corresponding
    approximate variants.  During this process, the minimum and maximum
    operators are inserted into the computational path and connected to the
    approximate layers.  At the end, we obtain a transformed graph which is
    suitable for the inference as well as training because the minimum and
    maximum values of the input tensors are determined once per a batch."

One loop implements that flow on our graph framework: each selected
``Conv2D`` node is replaced in place by an ``AxConv2D`` fed by
``ReduceMin``/``ReduceMax`` nodes over the original data and filter tensors,
and all downstream consumers are rewired to the new node.
:func:`approximate_graph` selects every convolution with one multiplier;
:func:`approximate_graph_layerwise` selects the layers of an ALWANN-style
per-layer assignment (reference [12] of the paper), each with its own
multiplier, and leaves the rest accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backends.cache import DEFAULT_LUT_CACHE
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
    """Which layer got which multiplier and which stayed accurate."""

    per_layer: dict[str, str] = field(default_factory=dict)
    accurate_layers: list[str] = field(default_factory=list)

    @property
    def replaced(self) -> list[str]:
        """Names of the ``Conv2D`` layers converted, in graph order."""
        return list(self.per_layer)

    @property
    def converted_layers(self) -> int:
        """Number of convolution layers converted to approximate variants."""
        return len(self.per_layer)

    def summary(self) -> str:
        """One-line human readable summary."""
        kinds = sorted(set(self.per_layer.values()))
        return (
            f"replaced {self.converted_layers} Conv2D node(s) with AxConv2D "
            f"using {len(kinds)} multiplier(s) ({', '.join(kinds)}); "
            f"{len(self.accurate_layers)} layer(s) kept accurate"
        )


def approximate_graph(graph: Graph,
                      multiplier_or_lut: Multiplier | LookupTable | str,
                      ) -> TransformReport:
    """Replace every ``Conv2D`` in ``graph`` by an ``AxConv2D`` (Fig. 1).

    ``multiplier_or_lut`` is the approximate multiplier to emulate: a
    behavioural model, its lookup table or a library name.  Each
    ``AxConv2D`` quantises to the table's own operand range ([-128, 127] or
    [0, 255] at 8 bits).  The graph is modified in place.
    """
    lut = DEFAULT_LUT_CACHE.resolve(multiplier_or_lut)
    return approximate_graph_layerwise(
        graph, {conv.name: lut for conv in graph.nodes_by_type(Conv2D.op_type)})


def approximate_graph_layerwise(graph: Graph,
                                assignment: dict[str, Multiplier | LookupTable | str],
                                ) -> TransformReport:
    """Replace the assigned ``Conv2D`` layers, each with its own multiplier.

    ``assignment`` maps ``Conv2D`` node names to the multiplier emulated in
    that layer: a behavioural model, a lookup table or a library name.
    Layers it does not list keep their accurate implementation (the ALWANN
    convention for "layer left exact").  Tables are resolved through the
    process-wide LUT cache: a design-space search applies hundreds of
    assignments drawn from a small catalogue, and each distinct
    multiplier's table should be built exactly once.  The graph is modified
    in place; nothing is modified when a name or a multiplier is invalid.
    """
    conv_names = {node.name for node in graph.nodes_by_type(Conv2D.op_type)}
    unknown = sorted(set(assignment) - conv_names)
    if unknown:
        wrong_type = [name for name in unknown if name in graph]
        if wrong_type:
            kinds = ", ".join(
                f"{name} ({graph.get(name).op_type})" for name in wrong_type)
            raise GraphError(
                f"assignment targets non-Conv2D node(s): {kinds}"
            )
        raise GraphError(
            f"assignment references unknown Conv2D layers: {', '.join(unknown)}"
        )
    luts = {layer: DEFAULT_LUT_CACHE.resolve(multiplier)
            for layer, multiplier in assignment.items()}

    report = TransformReport()
    for conv in list(graph.nodes_by_type(Conv2D.op_type)):
        lut = luts.get(conv.name)
        if lut is None:
            report.accurate_layers.append(conv.name)
            continue
        data, filters = conv.inputs
        input_min = ReduceMin(graph, data, name=f"{conv.name}/input_min")
        input_max = ReduceMax(graph, data, name=f"{conv.name}/input_max")
        filter_min = ReduceMin(graph, filters, name=f"{conv.name}/filter_min")
        filter_max = ReduceMax(graph, filters, name=f"{conv.name}/filter_max")
        ax = AxConv2D(
            graph, data, filters, input_min, input_max, filter_min, filter_max,
            lut=lut, strides=conv.strides, dilations=conv.dilations,
            padding=conv.padding, name=f"{conv.name}/approx",
        )
        replace_consumers(graph, conv, ax)
        graph.remove(conv)
        report.per_layer[conv.name] = lut.name

    graph.validate()
    report.accurate_layers.sort()
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
