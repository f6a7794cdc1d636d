"""Layer-wise (heterogeneous) approximation.

The CPU-based predecessor of TFApprox -- ALWANN (reference [12] of the paper)
-- assigns a *different* approximate multiplier to every convolutional layer
and searches that assignment space for the best accuracy/energy trade-off.
The GPU emulator makes such searches practical, so this module provides the
assignment mechanics on top of the Fig. 1 transformation: each layer can be
mapped to its own multiplier (or left accurate), and the whole catalogue of
:mod:`repro.multipliers.library` is addressable by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backends.cache import DEFAULT_LUT_CACHE
from ..errors import GraphError
from ..lut.table import LookupTable
from ..multipliers.base import Multiplier
from .graph import Graph
from .ops.conv import Conv2D
from .transform import TransformReport, approximate_graph


MultiplierLike = "Multiplier | LookupTable | str"


@dataclass
class LayerwiseReport:
    """Outcome of a heterogeneous approximation pass."""

    per_layer: dict[str, str] = field(default_factory=dict)
    accurate_layers: list[str] = field(default_factory=list)
    reports: list[TransformReport] = field(default_factory=list)

    @property
    def converted_layers(self) -> int:
        """Number of layers now running on an approximate multiplier."""
        return len(self.per_layer)

    def summary(self) -> str:
        """One-line human readable summary."""
        kinds = sorted(set(self.per_layer.values()))
        return (
            f"approximated {self.converted_layers} layer(s) with "
            f"{len(kinds)} multiplier(s) ({', '.join(kinds)}); "
            f"{len(self.accurate_layers)} layer(s) kept accurate"
        )


def _resolve(multiplier: "Multiplier | LookupTable | str") -> LookupTable:
    if not isinstance(multiplier, (str, Multiplier, LookupTable)):
        raise GraphError(
            f"cannot interpret {multiplier!r} as a multiplier, LUT or "
            "library name"
        )
    # Resolve through the process-wide LUT cache: a design-space search
    # applies hundreds of assignments drawn from a small catalogue, and each
    # distinct multiplier's 256x256 table should be built exactly once.
    # Unknown library names raise RegistryError from the multiplier library.
    return DEFAULT_LUT_CACHE.resolve(multiplier)


def approximate_graph_layerwise(graph: Graph,
                                assignment: dict[str, "Multiplier | LookupTable | str"],
                                *, default: "Multiplier | LookupTable | str | None" = None,
                                ) -> LayerwiseReport:
    """Replace Conv2D layers with per-layer approximate multipliers.

    Parameters
    ----------
    graph:
        The graph to transform in place.
    assignment:
        Mapping from Conv2D node names to the multiplier emulated in that
        layer (a behavioural model, a lookup table, or a library name).
    default:
        Multiplier applied to convolution layers not listed in
        ``assignment``.  When ``None``, unlisted layers keep their accurate
        implementation (the ALWANN convention for "layer left exact").

    Returns
    -------
    LayerwiseReport
        Which layer got which multiplier and which stayed accurate.
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

    report = LayerwiseReport()

    # Group layers by the LUT they should receive so each distinct multiplier
    # needs only one transformation pass.  Group on the LUT instance, not its
    # name: two behavioural models can share a display name (e.g. default
    # TableMultiplier names) while holding different tables, and keying on
    # the name would silently serve one multiplier's products for the other.
    # Equal library names still coalesce because _resolve returns the cached
    # instance.
    groups: dict[int, tuple[LookupTable, list[str]]] = {}
    for layer, multiplier in assignment.items():
        lut = _resolve(multiplier)
        groups.setdefault(id(lut), (lut, []))[1].append(layer)
    if default is not None:
        default_lut = _resolve(default)
        remaining = sorted(conv_names - set(assignment))
        if remaining:
            groups.setdefault(
                id(default_lut), (default_lut, []))[1].extend(remaining)

    for lut, layers in groups.values():
        wanted = set(layers)
        pass_report = approximate_graph(
            graph, lut,
            layer_filter=lambda conv, wanted=wanted: conv.name in wanted,
        )
        report.reports.append(pass_report)
        for name in pass_report.replaced:
            report.per_layer[name] = lut.name

    report.accurate_layers = sorted(
        node.name for node in graph.nodes_by_type(Conv2D.op_type))
    return report


def assignment_key(assignment: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable key of a layer→multiplier-name assignment.

    Two assignments produce the same key exactly when they map the same
    layers to the same library multiplier names, regardless of dict
    insertion order.  The serving layer uses this as its admission key — the
    thing that decides which requests may share a micro-batch — and as the
    session key under which a transformed graph is built once and reused for
    every later request with the same configuration.

    Only library-name assignments are canonicalisable: a behavioural
    :class:`~repro.multipliers.base.Multiplier` instance or a pre-built
    :class:`~repro.lut.table.LookupTable` has no process-independent
    identity, so passing one raises :class:`~repro.errors.GraphError`.

    >>> assignment_key({"conv2": "mul8s_trunc2", "conv1": "mul8s_exact"})
    (('conv1', 'mul8s_exact'), ('conv2', 'mul8s_trunc2'))
    """
    items = []
    for layer, multiplier in assignment.items():
        if not isinstance(multiplier, str):
            raise GraphError(
                "assignment_key requires library multiplier names, got "
                f"{type(multiplier).__name__} for layer {layer!r}"
            )
        items.append((str(layer), multiplier))
    return tuple(sorted(items))
