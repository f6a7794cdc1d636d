"""Canonical keys of layer-wise (heterogeneous) approximation assignments.

The CPU-based predecessor of TFApprox -- ALWANN (reference [12] of the paper)
-- assigns a *different* approximate multiplier to every convolutional layer.
:func:`repro.graph.transform.approximate_graph_layerwise` applies such an
assignment; this module gives one a process-independent identity, so the
serving layer can batch and cache by configuration.
"""

from __future__ import annotations

from ..errors import GraphError


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
