"""The fine-tuning loop: mini-batch training over a model graph.

This is the piece that turns the emulator into the paper's headline use
case -- *retraining* a network through the emulated approximate accelerator.
Every forward pass of an ``AxConv2D`` layer routes through its
:class:`~repro.backends.InferencePipeline`, so the multiplier LUT and the
quantised filter banks are served from the process-wide caches across steps;
the backward pass follows the ApproxTrain straight-through-estimator
convention (exact float gradients through the dequantised values).  After
every optimiser step the trainer drops the now-stale filter banks via
:meth:`repro.backends.FilterBankCache.invalidate`, so the caches stay small
and can never serve a bank quantised from superseded weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..backends.cache import FilterBankCache
from ..datasets.cifar import DatasetSplit, normalize
from ..errors import ConfigurationError
from ..evaluation.accuracy import top1_accuracy
from ..graph import Executor, Graph
from ..graph.node import Node
from ..graph.ops.basic import Constant
from .losses import softmax_cross_entropy
from .optim import Optimizer


def trainable_constants(graph: Graph, output: Node) -> list[Constant]:
    """Constants of ``output``'s ancestry that can receive a gradient.

    Structural filter over the graph: a constant is trainable when at least
    one of its consumers differentiates through the position it occupies.
    This excludes the quantisation-range probes (``ReduceMin``/``ReduceMax``
    consumers) and the range-scalar operands of ``AxConv2D`` -- exactly the
    inputs whose ``backward`` returns ``None``.
    """
    ancestors = graph.topological_order([output])
    constants = [node for node in ancestors if isinstance(node, Constant)]

    def receives_gradient(constant: Constant) -> bool:
        for consumer in graph.consumers(constant):
            positions = [i for i, inp in enumerate(consumer.inputs)
                         if inp is constant]
            if consumer.op_type in ("ReduceMin", "ReduceMax"):
                continue
            if consumer.op_type == "AxConv2D" and min(positions) >= 2:
                continue
            return True
        return False

    return [c for c in constants if receives_gradient(c)]


@dataclass
class EpochMetrics:
    """Per-epoch accounting of one training run."""

    epoch: int
    loss: float
    accuracy: float
    lr: float
    steps: int
    images: int
    wall_seconds: float
    val_accuracy: float | None = None
    val_loss: float | None = None


@dataclass
class TrainHistory:
    """The metrics of every epoch of a :meth:`Trainer.fit` run."""

    epochs: list[EpochMetrics] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self):
        return iter(self.epochs)

    @property
    def final_accuracy(self) -> float:
        """Training accuracy of the last recorded epoch."""
        if not self.epochs:
            raise ConfigurationError("history is empty")
        return self.epochs[-1].accuracy

    def summary(self) -> str:
        """Multi-line table of the recorded epochs."""
        lines = ["epoch  lr        loss      acc     val_acc"]
        for m in self.epochs:
            val = f"{m.val_accuracy:.3f}" if m.val_accuracy is not None else "-"
            lines.append(
                f"{m.epoch:>5}  {m.lr:<8.2e}  {m.loss:<8.4f}  "
                f"{m.accuracy:<6.3f}  {val}"
            )
        return "\n".join(lines)


class Trainer:
    """Mini-batch gradient training of a model graph.

    Parameters
    ----------
    model:
        Any object exposing ``graph``, ``input_node`` and ``logits`` (the
        simple-CNN and ResNet builders both do).  The graph may contain
        accurate ``Conv2D`` layers, approximate ``AxConv2D`` layers (after
        the Fig. 1 transformation) or a mix; gradients follow the STE
        convention either way.
    optimizer:
        An :class:`~repro.train.optim.Optimizer` over the parameters to
        update.  Build one over :func:`trainable_constants` for "train
        everything" behaviour.
    batch_size:
        Mini-batch size of :meth:`fit`.
    seed:
        Seed of the per-epoch shuffling.  Runs with equal seeds, data and
        initial weights are bit-reproducible.
    reuse_caches:
        When False, every forward pass starts from cleared pipeline caches
        (the per-call-setup behaviour the paper's Section II ascribes to
        naive emulation).  The training benchmark uses this switch to
        quantify what LUT/filter-bank reuse is worth per step.
    grad_clip_norm:
        Optional global-norm gradient clipping.  Fine-tuning through a
        coarse multiplier sees occasional very large loss gradients (the
        approximate forward can place big errors on individual logits);
        clipping keeps those steps from blowing up the quantisation ranges.
    """

    def __init__(self, model, optimizer: Optimizer, *,
                 batch_size: int = 32,
                 seed: int = 0,
                 reuse_caches: bool = True,
                 grad_clip_norm: float | None = None) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if grad_clip_norm is not None and grad_clip_norm <= 0:
            raise ConfigurationError("grad_clip_norm must be positive")
        self.model = model
        self.optimizer = optimizer
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.reuse_caches = reuse_caches
        self.grad_clip_norm = grad_clip_norm
        self.executor = Executor(model.graph)
        self._epoch = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The trained model's graph."""
        return self.model.graph

    def _approx_nodes(self) -> list:
        return self.graph.nodes_by_type("AxConv2D")

    def _clear_pipeline_caches(self) -> None:
        seen: set[int] = set()
        for node in self._approx_nodes():
            for cache in (node.pipeline.lut_cache, node.pipeline.filter_cache):
                if id(cache) not in seen:
                    seen.add(id(cache))
                    cache.clear()

    def _stale_bank_digests(self) -> list[tuple[FilterBankCache, Constant, str]]:
        """Pre-update digests of every parameter-backed filter bank.

        The caller re-digests after the optimiser step and invalidates only
        the entries whose tensor actually changed.
        """
        params = set(self.optimizer.params)
        stale: list[tuple[FilterBankCache, Constant, str]] = []
        for node in self._approx_nodes():
            filters_node = node.inputs[1]
            if filters_node in params:
                stale.append((
                    node.pipeline.filter_cache,
                    filters_node,
                    FilterBankCache.content_digest(filters_node.value),
                ))
        return stale

    # ------------------------------------------------------------------
    def train_step(self, images: np.ndarray, labels: np.ndarray
                   ) -> tuple[float, np.ndarray]:
        """One forward/backward/update step; returns (loss, logits)."""
        if not self.reuse_caches:
            self._clear_pipeline_caches()
        logits, tape = self.executor.record(
            self.model.logits, {self.model.input_node: normalize(images)})
        loss, grad_logits = softmax_cross_entropy(logits, labels)
        grads = self.executor.backward(
            tape, self.model.logits, grad_logits,
            wrt=list(self.optimizer.params))
        if self.grad_clip_norm is not None:
            grads = self._clip_gradients(grads)
        stale = self._stale_bank_digests()
        self.optimizer.step(grads)
        for cache, node, digest in stale:
            # Only retire a bank when the step actually changed the
            # weights: an unchanged tensor's bank is still live.
            if FilterBankCache.content_digest(node.value) != digest:
                cache.invalidate(digest)
        return loss, logits

    def _clip_gradients(self, grads: dict) -> dict:
        total = np.sqrt(sum(
            float(np.sum(np.square(g))) for g in grads.values()))
        if total <= self.grad_clip_norm or total == 0.0:
            return grads
        scale = self.grad_clip_norm / total
        return {node: g * scale for node, g in grads.items()}

    def train_epoch(self, split: DatasetSplit) -> EpochMetrics:
        """One pass over ``split`` in shuffled mini-batches."""
        rng = np.random.default_rng(self.seed + self._epoch)
        order = rng.permutation(len(split))
        images, labels = split.images[order], split.labels[order]

        start = time.perf_counter()
        total_loss = 0.0
        hits = 0
        steps = 0
        for lo in range(0, len(split), self.batch_size):
            batch_images = images[lo:lo + self.batch_size]
            batch_labels = labels[lo:lo + self.batch_size]
            loss, logits = self.train_step(batch_images, batch_labels)
            total_loss += loss * len(batch_labels)
            hits += int(
                (np.argmax(logits, axis=1) == batch_labels).sum())
            steps += 1
        metrics = EpochMetrics(
            epoch=self._epoch,
            loss=total_loss / len(split),
            accuracy=hits / len(split),
            lr=self.optimizer.lr,
            steps=steps,
            images=len(split),
            wall_seconds=time.perf_counter() - start,
        )
        self._epoch += 1
        return metrics

    def fit(self, split: DatasetSplit, epochs: int, *,
            val_split: DatasetSplit | None = None) -> TrainHistory:
        """Train for ``epochs`` passes; optionally validate after each."""
        if epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        history = TrainHistory()
        for _ in range(epochs):
            metrics = self.train_epoch(split)
            if val_split is not None:
                metrics.val_loss, metrics.val_accuracy = self.evaluate(val_split)
            history.epochs.append(metrics)
        return history

    def evaluate(self, split: DatasetSplit, *,
                 batch_size: int | None = None) -> tuple[float, float]:
        """Mean loss and top-1 accuracy over ``split`` (no updates)."""
        if batch_size is None:
            batch_size = self.batch_size
        logits_parts = []
        for images, _ in split.batches(batch_size):
            logits_parts.append(self.executor.run(
                self.model.logits, {self.model.input_node: normalize(images)}))
        logits = np.concatenate(logits_parts, axis=0)
        loss, _ = softmax_cross_entropy(logits, split.labels)
        return loss, top1_accuracy(logits, split.labels)
