"""Inference runner: accurate vs approximate execution of a model graph.

The runner wires together the pieces the examples and quality benchmarks
need: it feeds a dataset through a model graph batch by batch, optionally
applies the Fig. 1 transformation first, and reports classification quality
plus the numeric error of the approximate run relative to the accurate one.

Functional emulation in pure Python is orders of magnitude slower than the
paper's CUDA implementation, so quality studies are expected to run on a
subset of the synthetic dataset (a few tens to hundreds of images); the
*timing* results of Table I come from the analytical models in
:mod:`repro.evaluation.timing_report` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..datasets.cifar import DatasetSplit, normalize
from ..errors import ConfigurationError
from ..graph import Executor, approximate_graph
from ..lut.table import LookupTable
from ..multipliers.base import Multiplier
from .accuracy import prediction_agreement, top1_accuracy
from .error_analysis import TensorErrorReport, tensor_error


@dataclass
class InferenceResult:
    """Outcome of running one model over one dataset split."""

    logits: np.ndarray
    accuracy: float
    wall_seconds: float
    batches: int
    images: int


@dataclass
class ComparisonResult:
    """Accurate-vs-approximate comparison on the same inputs."""

    accurate: InferenceResult
    approximate: InferenceResult
    agreement: float
    logits_error: TensorErrorReport
    multiplier_name: str
    transform_summary: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def accuracy_drop(self) -> float:
        """Accurate minus approximate top-1 accuracy."""
        return self.accurate.accuracy - self.approximate.accuracy


def run_inference(model, dataset: DatasetSplit, *, batch_size: int = 32,
                  normalize_inputs: bool = True) -> InferenceResult:
    """Run a model graph over a dataset split and collect logits.

    ``model`` is any object exposing ``graph``, ``input_node`` and ``logits``
    (the ResNet and simple-CNN builders both do).
    """
    if batch_size <= 0:
        raise ConfigurationError("batch_size must be positive")
    executor = Executor(model.graph)
    logits_parts = []
    batches = 0
    start = time.perf_counter()
    for images, _ in dataset.batches(batch_size):
        feed = normalize(images) if normalize_inputs else images
        logits_parts.append(executor.run(model.logits, {model.input_node: feed}))
        batches += 1
    wall = time.perf_counter() - start
    logits = np.concatenate(logits_parts, axis=0)
    return InferenceResult(
        logits=logits,
        accuracy=top1_accuracy(logits, dataset.labels),
        wall_seconds=wall,
        batches=batches,
        images=len(dataset),
    )


def compare_accurate_vs_approximate(model_builder, dataset: DatasetSplit,
                                    multiplier: Multiplier | LookupTable, *,
                                    batch_size: int = 32,
                                    normalize_inputs: bool = True) -> ComparisonResult:
    """Run the same model accurately and approximately and compare.

    ``model_builder`` is a zero-argument callable returning a fresh model
    (the graph transformation mutates the graph, so each run needs its own
    instance built with the same seed).
    """
    accurate_model = model_builder()
    accurate = run_inference(
        accurate_model, dataset, batch_size=batch_size,
        normalize_inputs=normalize_inputs,
    )

    approx_model = model_builder()
    report = approximate_graph(approx_model.graph, multiplier)
    approximate = run_inference(
        approx_model, dataset, batch_size=batch_size,
        normalize_inputs=normalize_inputs,
    )

    lut_name = multiplier.name if hasattr(multiplier, "name") else "lut"
    return ComparisonResult(
        accurate=accurate,
        approximate=approximate,
        agreement=prediction_agreement(accurate.logits, approximate.logits),
        logits_error=tensor_error(accurate.logits, approximate.logits),
        multiplier_name=lut_name,
        transform_summary=report.summary(),
    )
