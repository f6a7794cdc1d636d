"""Candidate scoring: accuracy through the cached pipeline, energy from hwcost.

The expensive axis of a design-space exploration is accuracy -- every
candidate is a full emulated inference over the evaluation split.  The
:class:`Evaluator` keeps that affordable the same way the paper keeps single
emulations affordable: every forward pass routes through
:class:`~repro.backends.InferencePipeline` (via the transformed graph's
``AxConv2D`` nodes), so the multiplier lookup tables and the quantised filter
banks live in the process-wide LRU caches and are shared across *all*
candidates of the search.  Because every candidate rebuilds the model with
identical weights, the filter-bank digests repeat and only the first
candidate touching a layer pays the quantisation; likewise each catalogue
multiplier's 256x256 table is built once for the whole search.

The energy axis is analytical and cheap: the MAC-weighted relative power of
the assigned multipliers under the unit-gate model of
:mod:`repro.multipliers.hwcost` (1.0 = exact multipliers in every layer).

Evaluations are memoised on the candidate tuple and safe to run concurrently
from the engine's thread pool: each evaluation owns a private model/executor,
the shared caches are thread-safe, and each evaluation totals its model's
pipeline runs in a :func:`~repro.backends.collect_reports` scope on the
thread that scores it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..backends.pipeline import RunReport, collect_reports
from ..errors import DSEError
from ..evaluation.runner import run_inference
from ..graph.executor import infer_shapes
from ..graph.transform import approximate_graph_layerwise
from ..graph.ops.conv import Conv2D
from ..multipliers import library
from ..multipliers.hwcost import estimate_cost
from .space import Candidate, SearchSpace


@dataclass
class CandidateResult:
    """One scored candidate: objectives plus the run's accounting.

    ``candidate`` is ``None`` for results scored from a partial assignment
    (no gene tuple exists for unassigned layers).
    """

    candidate: Candidate | None
    assignment: dict[str, str]
    accuracy: float
    relative_energy: float
    report: RunReport = field(default_factory=RunReport)


def relative_power(multiplier_name: str) -> float:
    """Relative power of one library multiplier under the unit-gate model."""
    return estimate_cost(library.create(multiplier_name)).relative_power


def make_calibrated_builder(base_builder, calibration_dataset, **kwargs):
    """Deterministic builder whose classifier was calibrated exactly once.

    Calibrating inside the builder would re-run the (accurate) feature
    extraction on every candidate; calibrating once and replaying the fitted
    classifier weights keeps every build bit-identical -- which is also what
    lets the filter-bank cache share quantised banks across candidates.
    Keyword arguments are forwarded to
    :func:`repro.models.calibration.calibrate_classifier`.
    """
    from ..models.calibration import calibrate_classifier

    probe = base_builder()
    calibrate_classifier(probe, calibration_dataset, **kwargs)
    weights = probe.classifier_weights.value.copy()
    bias = probe.classifier_bias.value.copy()

    def builder():
        model = base_builder()
        model.classifier_weights.set_value(weights)
        model.classifier_bias.set_value(bias)
        return model

    return builder


class Evaluator:
    """Scores candidates of one :class:`~repro.dse.space.SearchSpace`.

    Parameters
    ----------
    space:
        The search space candidates are drawn from.
    model_builder:
        Zero-argument callable returning a fresh model (``graph``,
        ``input_node``, ``logits``).  It must be deterministic -- every call
        returns identical weights -- both for reproducible scores and so the
        filter-bank cache can share quantised banks across candidates.
    dataset:
        Evaluation split the accuracy objective is measured on.
    batch_size, normalize_inputs:
        Forwarded to :func:`repro.evaluation.run_inference`.
    probe:
        Optional already-built model instance to derive the per-layer MAC
        counts from (spares one ``model_builder()`` call when the caller
        built a probe for the search space anyway).
    """

    def __init__(self, space: SearchSpace, model_builder, dataset, *,
                 batch_size: int = 32, normalize_inputs: bool = True,
                 probe=None) -> None:
        self.space = space
        self.model_builder = model_builder
        self.dataset = dataset
        self.batch_size = batch_size
        self.normalize_inputs = normalize_inputs
        self._memo: dict[Candidate, CandidateResult] = {}
        self._lock = threading.Lock()
        self._power = {name: relative_power(name) for name in space.catalogue}

        if probe is None:
            probe = model_builder()
        self._macs = self._layer_macs(probe)
        missing = sorted(set(space.layers) - set(self._macs))
        if missing:
            raise DSEError(
                "cannot derive per-layer MAC counts for layer(s): "
                f"{', '.join(missing)}"
            )

    # -- energy objective ------------------------------------------------
    @staticmethod
    def _layer_macs(model) -> dict[str, int]:
        """Per-image MACs of every Conv2D layer, from static shape inference."""
        feed_shapes = {}
        input_node = getattr(model, "input_node", None)
        if input_node is not None:
            shape = getattr(input_node, "shape", None)
            if shape is not None:
                feed_shapes[input_node.name] = (1,) + tuple(shape[1:])
        shapes = infer_shapes(model.graph, feed_shapes)
        macs: dict[str, int] = {}
        for conv in model.graph.nodes_by_type(Conv2D.op_type):
            x_shape = shapes.get(conv.inputs[0].name)
            f_shape = shapes.get(conv.inputs[1].name)
            if x_shape is None or f_shape is None:
                continue
            macs[conv.name] = conv.macs(x_shape, f_shape)
        if not macs:
            # Shape inference failed everywhere (dynamic spatial dims):
            # fall back to the model's declared workloads when available.
            for workload in getattr(model, "conv_workloads", []) or []:
                macs[workload.name] = workload.macs_per_image
        return macs

    def relative_energy(self, assignment: dict[str, str]) -> float:
        """MAC-weighted relative power of ``assignment`` (1.0 = all exact).

        Layers missing from the assignment keep their accurate (exact)
        multiplier and contribute at relative power 1.0, matching the ALWANN
        convention for layers left exact.
        """
        total = sum(self._macs[layer] for layer in self.space.layers)
        weighted = 0.0
        for layer in self.space.layers:
            name = assignment.get(layer)
            factor = 1.0 if name is None else self._power_of(name)
            weighted += self._macs[layer] * factor
        return weighted / total

    def _power_of(self, name: str) -> float:
        if name not in self._power:
            self._power[name] = relative_power(name)
        return self._power[name]

    # -- accuracy objective ----------------------------------------------
    def cached(self, candidate: Candidate) -> CandidateResult | None:
        """Memoised result of ``candidate``, or None if never evaluated."""
        with self._lock:
            return self._memo.get(tuple(candidate))

    def evaluate(self, candidate: Candidate) -> CandidateResult:
        """Score one candidate (memoised; safe to call from worker threads)."""
        candidate = self.space.validate(candidate)
        with self._lock:
            hit = self._memo.get(candidate)
        if hit is not None:
            return hit

        assignment = self.space.assignment(candidate)
        result = self.score_assignment(assignment, candidate=candidate)
        with self._lock:
            # setdefault keeps the first finisher so racing duplicates of
            # one candidate cannot produce two distinct result objects.
            return self._memo.setdefault(candidate, result)

    def score_assignment(self, assignment: dict[str, str], *,
                         candidate: Candidate | None = None) -> CandidateResult:
        """Score an explicit layer→multiplier assignment (no memoisation).

        This is the re-scoring path the property tests use to check that a
        returned Pareto point's assignment reproduces its reported accuracy.
        Partial assignments are legal (unassigned layers stay exact, the
        ALWANN convention :meth:`relative_energy` documents); they score
        normally but carry no candidate tuple, since the space has no gene
        for an unassigned layer.
        """
        outside = sorted(set(assignment) - set(self.space.layers))
        if outside:
            # Scoring would be inconsistent: the transform would approximate
            # these layers (degrading accuracy) while the energy objective
            # iterates only the space's layers and would ignore them.
            raise DSEError(
                "assignment targets layer(s) outside the search space: "
                f"{', '.join(outside)}"
            )
        if candidate is None:
            try:
                candidate = self.space.candidate(assignment)
            except DSEError:
                candidate = None  # partial assignment: legal, not memoisable
        model = self.model_builder()
        approximate_graph_layerwise(model.graph, dict(assignment))
        with collect_reports() as report:
            inference = run_inference(
                model, self.dataset, batch_size=self.batch_size,
                normalize_inputs=self.normalize_inputs,
            )
        report.batch = inference.images
        return CandidateResult(
            candidate=candidate,
            assignment=dict(assignment),
            accuracy=inference.accuracy,
            relative_energy=self.relative_energy(assignment),
            report=report,
        )

    @property
    def memo_size(self) -> int:
        """Number of distinct candidates evaluated so far."""
        with self._lock:
            return len(self._memo)
