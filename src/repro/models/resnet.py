"""CIFAR-style residual networks (ResNet-N with N = 6n + 2).

The paper evaluates its emulator on ten ResNet variants (ResNet-8 to
ResNet-62) "because it enabled us to easily configure the number of building
blocks and thus the number of 2D convolutional layers L and MAC operations".
These are the classic CIFAR ResNets of He et al.: a 3x3 stem convolution with
16 filters followed by three stages of ``n`` basic blocks (two 3x3
convolutions each) with 16, 32 and 64 filters, spatial down-sampling by
stride-2 at the first block of stages two and three, identity shortcuts
("option A": sub-sampling plus zero padding, no convolution) where the shape
changes, global average pooling and a dense classifier.

Pre-trained weights are not available offline, so the builder initialises the
network with a deterministic He-style pseudo-training scheme: weights are
drawn from a seeded generator and lightly structured (per-class templates in
the final classifier) so that the synthetic CIFAR dataset of
:mod:`repro.datasets` yields a non-trivial, reproducible accuracy signal for
the approximation-quality studies.  Timing experiments (Table I / Fig. 2)
depend only on the layer geometry, which matches the original architecture
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..graph import Graph
from ..graph.ops import (
    Add,
    AvgPool2D,
    BiasAdd,
    Constant,
    Conv2D,
    GlobalAvgPool,
    Identity,
    MatMul,
    Pad,
    Placeholder,
    ReLU,
    Softmax,
)
from ..workload import ConvWorkload

#: The ten network depths evaluated in Table I of the paper.
PAPER_DEPTHS = (8, 14, 20, 26, 32, 38, 44, 50, 56, 62)


@dataclass
class ResNetModel:
    """A built ResNet graph together with its bookkeeping information."""

    depth: int
    graph: Graph
    input_node: Placeholder
    logits: Identity
    probabilities: Softmax
    num_classes: int
    conv_workloads: list[ConvWorkload] = field(default_factory=list)
    parameter_count: int = 0
    feature_node: object | None = None
    classifier_weights: Constant | None = None
    classifier_bias: Constant | None = None

    @property
    def conv_layer_count(self) -> int:
        """Number of 2D convolution layers (the ``L`` column of Table I)."""
        return len(self.conv_workloads)

    @property
    def macs_per_image(self) -> int:
        """Multiply-accumulate operations per input image (conv layers only)."""
        return sum(w.macs_per_image for w in self.conv_workloads)

    def describe(self) -> str:
        """One-line description used by reports."""
        return (
            f"ResNet-{self.depth}: L={self.conv_layer_count}, "
            f"{self.macs_per_image / 1e6:.1f}M MACs/image, "
            f"{self.parameter_count / 1e3:.1f}k parameters"
        )


def blocks_per_stage(depth: int) -> int:
    """Number of residual blocks per stage for a ResNet-``depth`` network."""
    if depth < 8 or (depth - 2) % 6:
        raise ConfigurationError(
            f"CIFAR ResNet depth must be 6*n + 2 with n >= 1, got {depth}"
        )
    return (depth - 2) // 6


def _he_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = int(np.prod(shape[:-1]))
    return rng.normal(0.0, np.sqrt(2.0 / max(fan_in, 1)), size=shape)


class _ResNetBuilder:
    """Internal helper constructing the graph layer by layer."""

    def __init__(self, depth: int, num_classes: int, input_size: int,
                 base_filters: int, seed: int) -> None:
        self.depth = depth
        self.num_classes = num_classes
        self.input_size = input_size
        self.base_filters = base_filters
        self.rng = np.random.default_rng(seed)
        self.graph = Graph(f"resnet{depth}")
        self.workloads: list[ConvWorkload] = []
        self.parameters = 0
        self._spatial = input_size
        self._channels = 3

    # ------------------------------------------------------------------
    def conv(self, x, out_channels: int, *, stride: int = 1,
             name: str) -> Conv2D:
        """Add a 3x3 convolution, recording its workload and parameters."""
        weights = _he_normal(self.rng, (3, 3, self._channels, out_channels))
        w_node = Constant(self.graph, weights, name=f"{name}/weights")
        conv = Conv2D(
            self.graph, x, w_node,
            strides=(stride, stride), padding="SAME", name=name,
        )
        self.workloads.append(ConvWorkload(
            name=name,
            input_height=self._spatial,
            input_width=self._spatial,
            input_channels=self._channels,
            kernel_height=3,
            kernel_width=3,
            output_channels=out_channels,
            stride=stride,
            padding="SAME",
        ))
        self.parameters += weights.size
        self._spatial = -(-self._spatial // stride)
        self._channels = out_channels
        return conv

    def bias_relu(self, x, channels: int, *, name: str, relu: bool = True):
        """Bias (folded batch-norm stand-in) followed by an optional ReLU."""
        bias = self.rng.normal(0.0, 0.05, size=(channels,))
        b_node = Constant(self.graph, bias, name=f"{name}/bias")
        out = BiasAdd(self.graph, x, b_node, name=f"{name}/bias_add")
        self.parameters += bias.size
        if relu:
            out = ReLU(self.graph, out, name=f"{name}/relu")
        return out

    def residual_block(self, x, out_channels: int, *, stride: int,
                       name: str):
        """Basic residual block: two 3x3 convolutions plus a shortcut."""
        in_channels = self._channels

        conv1 = self.conv(x, out_channels, stride=stride, name=f"{name}/conv1")
        act1 = self.bias_relu(conv1, out_channels, name=f"{name}/conv1")
        conv2 = self.conv(act1, out_channels, stride=1, name=f"{name}/conv2")
        act2 = self.bias_relu(conv2, out_channels, name=f"{name}/conv2", relu=False)

        # Identity shortcut ("option A" of He et al.): spatial sub-sampling
        # (a 1x1 average pool with the block's stride) followed by
        # zero-padding of the new channels.  It adds no convolution layer and
        # no MACs, which is how the paper's L column counts the CIFAR ResNets.
        shortcut = x
        if stride != 1:
            shortcut = AvgPool2D(
                self.graph, shortcut, kernel=(1, 1),
                strides=(stride, stride), padding="VALID",
                name=f"{name}/shortcut_pool")
        missing = out_channels - in_channels
        if missing > 0:
            shortcut = Pad(
                self.graph, shortcut,
                [(0, 0), (0, 0), (0, 0), (missing // 2, missing - missing // 2)],
                name=f"{name}/shortcut_pad")

        summed = Add(self.graph, act2, shortcut, name=f"{name}/add")
        return ReLU(self.graph, summed, name=f"{name}/relu")

    # ------------------------------------------------------------------
    def build(self) -> ResNetModel:
        """Construct the full network graph."""
        n = blocks_per_stage(self.depth)
        x = Placeholder(
            self.graph, (None, self.input_size, self.input_size, 3), name="images")

        stem = self.conv(x, self.base_filters, name="stem/conv")
        net = self.bias_relu(stem, self.base_filters, name="stem")

        for stage, filters in enumerate(
                (self.base_filters, 2 * self.base_filters, 4 * self.base_filters)):
            for block in range(n):
                stride = 2 if (stage > 0 and block == 0) else 1
                net = self.residual_block(
                    net, filters, stride=stride, name=f"stage{stage + 1}/block{block + 1}")

        pooled = GlobalAvgPool(self.graph, net, name="global_pool")

        # Classifier: structured per-class templates plus noise so the
        # synthetic dataset is separable by the pseudo-trained network.
        feature_dim = self._channels
        class_templates = np.zeros((feature_dim, self.num_classes))
        per_class = max(feature_dim // self.num_classes, 1)
        for cls in range(self.num_classes):
            start = (cls * per_class) % feature_dim
            class_templates[start:start + per_class, cls] = 1.0
        dense_weights = 0.4 * class_templates + 0.05 * self.rng.normal(
            size=(feature_dim, self.num_classes))
        dense_bias = np.zeros(self.num_classes)
        self.parameters += dense_weights.size + dense_bias.size

        w_node = Constant(self.graph, dense_weights, name="classifier/weights")
        b_node = Constant(self.graph, dense_bias, name="classifier/bias")
        dense = MatMul(self.graph, pooled, w_node, name="classifier/matmul")
        logits_node = BiasAdd(self.graph, dense, b_node, name="classifier/logits")
        logits = Identity(self.graph, logits_node, name="logits")
        probabilities = Softmax(self.graph, logits, name="probabilities")

        self.graph.validate()
        return ResNetModel(
            depth=self.depth,
            graph=self.graph,
            input_node=x,
            logits=logits,
            probabilities=probabilities,
            num_classes=self.num_classes,
            conv_workloads=self.workloads,
            parameter_count=self.parameters,
            feature_node=pooled,
            classifier_weights=w_node,
            classifier_bias=b_node,
        )


def build_resnet(depth: int, *, num_classes: int = 10, input_size: int = 32,
                 base_filters: int = 16, seed: int = 0) -> ResNetModel:
    """Build a CIFAR-style ResNet-``depth`` model (``L = 6n + 1`` conv layers).

    Parameters
    ----------
    depth:
        Network depth ``6n + 2`` (8, 14, 20, ... as in Table I).
    num_classes:
        Number of output classes (10 for CIFAR-10).
    input_size:
        Spatial size of the (square) input images.
    base_filters:
        Filters of the first stage (16 in the original architecture).
    seed:
        Seed of the deterministic pseudo-training initialisation.
    """
    return _ResNetBuilder(
        depth, num_classes, input_size, base_filters, seed).build()


def conv_workloads_for_depth(depth: int, *, input_size: int = 32,
                             base_filters: int = 16) -> list[ConvWorkload]:
    """Per-layer convolution workloads of ResNet-``depth`` without building weights.

    The Table I harness sweeps ten depths; constructing the weight tensors for
    each of them is unnecessary when only the analytical timing model is
    queried, so this helper re-creates just the workload list (it matches
    ``build_resnet(depth).conv_workloads`` exactly, which is covered by a
    test).
    """
    n = blocks_per_stage(depth)
    workloads: list[ConvWorkload] = []
    spatial = input_size
    channels = 3

    def add(name: str, out_channels: int, stride: int) -> None:
        nonlocal spatial, channels
        workloads.append(ConvWorkload(
            name=name,
            input_height=spatial,
            input_width=spatial,
            input_channels=channels,
            kernel_height=3,
            kernel_width=3,
            output_channels=out_channels,
            stride=stride,
            padding="SAME",
        ))
        spatial = -(-spatial // stride)
        channels = out_channels

    add("stem/conv", base_filters, 1)
    for stage, filters in enumerate((base_filters, 2 * base_filters, 4 * base_filters)):
        for block in range(n):
            stride = 2 if (stage > 0 and block == 0) else 1
            add(f"stage{stage + 1}/block{block + 1}/conv1", filters, stride)
            add(f"stage{stage + 1}/block{block + 1}/conv2", filters, 1)
    return workloads
