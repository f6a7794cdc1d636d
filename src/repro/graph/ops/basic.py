"""Elementary graph operations.

These ops cover everything a CIFAR-style ResNet needs besides the
convolution itself: data entry points, constants, elementwise arithmetic,
activations, shape manipulation and the ``Min``/``Max`` range reductions that
the Fig. 1 transformation inserts in front of every approximate layer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...errors import ExecutionError, ShapeError
from ..node import Node, OpContext, unbroadcast


class Placeholder(Node):
    """Graph input fed at execution time."""

    op_type = "Placeholder"

    def __init__(self, graph, shape: Sequence[int | None], *,
                 name: str | None = None) -> None:
        self._shape = tuple(shape)
        super().__init__(graph, name, [])

    @property
    def shape(self) -> tuple[int | None, ...]:
        """Declared shape; ``None`` entries are unconstrained (batch size)."""
        return self._shape

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        raise ExecutionError(
            f"placeholder {self.name!r} must be fed a value at execution time"
        )

    def check_feed(self, value: np.ndarray) -> np.ndarray:
        """Validate a fed value against the declared shape."""
        value = np.asarray(value, dtype=np.float64)
        if len(value.shape) != len(self._shape):
            raise ShapeError(
                f"feed for {self.name!r} has rank {value.ndim}, expected "
                f"{len(self._shape)}"
            )
        for got, want in zip(value.shape, self._shape):
            if want is not None and got != want:
                raise ShapeError(
                    f"feed for {self.name!r} has shape {value.shape}, "
                    f"expected {self._shape}"
                )
        return value

    def infer_shape(self, input_shapes):
        return self._shape


def _frozen_copy(value) -> np.ndarray:
    """A float64 copy of ``value`` whose bytes can never change.

    The copy's memory is an immutable ``bytes`` object, so neither the
    returned array nor any array on its base chain can be made writeable.
    """
    value = np.asarray(value, dtype=np.float64)
    return np.frombuffer(value.tobytes(), dtype=np.float64).reshape(value.shape)


class Constant(Node):
    """Node holding a fixed tensor (weights, biases, hyper-parameters).

    The stored tensor is read-only: writing into :attr:`value` raises, and
    :meth:`set_value` is the one way to change it.  The filter-bank cache
    relies on this to hash a constant's weights only once.
    """

    op_type = "Constant"

    def __init__(self, graph, value, *, name: str | None = None) -> None:
        self._value = _frozen_copy(value)
        super().__init__(graph, name, [])

    @property
    def value(self) -> np.ndarray:
        """The stored tensor (read-only)."""
        return self._value

    def set_value(self, value) -> None:
        """Replace the stored tensor (shape must be preserved).

        Used by the classifier-calibration helper, which re-writes the dense
        layer weights after probing the feature extractor.
        """
        value = _frozen_copy(value)
        if value.shape != self._value.shape:
            raise ShapeError(
                f"new value shape {value.shape} does not match the constant's "
                f"shape {self._value.shape}"
            )
        self._value = value

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        return self._value

    def infer_shape(self, input_shapes):
        return self._value.shape


class Identity(Node):
    """Pass-through node (useful as a graph output anchor)."""

    op_type = "Identity"

    def __init__(self, graph, x: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        return inputs[0]

    def backward(self, grad_output, ctx: OpContext):
        return [grad_output]

    def infer_shape(self, input_shapes):
        return input_shapes[0]


class Add(Node):
    """Elementwise addition (the residual shortcut of ResNet)."""

    op_type = "Add"

    def __init__(self, graph, a: Node, b: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [a, b])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 2)
        return inputs[0] + inputs[1]

    def backward(self, grad_output, ctx: OpContext):
        a, b = ctx.inputs
        return [unbroadcast(grad_output, a.shape),
                unbroadcast(grad_output, b.shape)]

    def infer_shape(self, input_shapes):
        return input_shapes[0] or input_shapes[1]


class Multiply(Node):
    """Elementwise multiplication."""

    op_type = "Multiply"

    def __init__(self, graph, a: Node, b: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [a, b])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 2)
        return inputs[0] * inputs[1]

    def backward(self, grad_output, ctx: OpContext):
        a, b = ctx.inputs
        return [unbroadcast(grad_output * b, a.shape),
                unbroadcast(grad_output * a, b.shape)]

    def infer_shape(self, input_shapes):
        return input_shapes[0] or input_shapes[1]


class BiasAdd(Node):
    """Add a per-channel bias vector to an NHWC or NC tensor."""

    op_type = "BiasAdd"

    def __init__(self, graph, x: Node, bias: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x, bias])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 2)
        x, bias = inputs
        if bias.ndim != 1:
            raise ShapeError(f"bias must be a vector, got shape {bias.shape}")
        if x.shape[-1] != bias.shape[0]:
            raise ShapeError(
                f"bias length {bias.shape[0]} does not match channel count "
                f"{x.shape[-1]}"
            )
        return x + bias

    def backward(self, grad_output, ctx: OpContext):
        axes = tuple(range(grad_output.ndim - 1))
        return [grad_output, grad_output.sum(axis=axes)]

    def infer_shape(self, input_shapes):
        return input_shapes[0]


class ReLU(Node):
    """Rectified linear activation."""

    op_type = "ReLU"

    def __init__(self, graph, x: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        return np.maximum(inputs[0], 0.0)

    def backward(self, grad_output, ctx: OpContext):
        return [grad_output * (ctx.inputs[0] > 0.0)]

    def infer_shape(self, input_shapes):
        return input_shapes[0]


class Softmax(Node):
    """Numerically stable softmax over the last axis."""

    op_type = "Softmax"

    def __init__(self, graph, x: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        x = inputs[0]
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def backward(self, grad_output, ctx: OpContext):
        y = ctx.output
        inner = (grad_output * y).sum(axis=-1, keepdims=True)
        return [y * (grad_output - inner)]

    def infer_shape(self, input_shapes):
        return input_shapes[0]


class Flatten(Node):
    """Collapse every axis but the first (batch) axis."""

    op_type = "Flatten"

    def __init__(self, graph, x: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        x = inputs[0]
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output, ctx: OpContext):
        return [grad_output.reshape(ctx.inputs[0].shape)]

    def infer_shape(self, input_shapes):
        shape = input_shapes[0]
        if shape is None or any(s is None for s in shape[1:]):
            return None
        flat = 1
        for s in shape[1:]:
            flat *= s
        return (shape[0], flat)


class Reshape(Node):
    """Reshape to a fixed target shape (``-1`` allowed once)."""

    op_type = "Reshape"

    def __init__(self, graph, x: Node, shape: Sequence[int], *,
                 name: str | None = None) -> None:
        self._target = tuple(int(s) for s in shape)
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        return inputs[0].reshape(self._target)

    def backward(self, grad_output, ctx: OpContext):
        return [grad_output.reshape(ctx.inputs[0].shape)]

    def infer_shape(self, input_shapes):
        if -1 in self._target:
            return None
        return self._target


class Pad(Node):
    """Zero padding with explicit per-axis amounts."""

    op_type = "Pad"

    def __init__(self, graph, x: Node, paddings: Sequence[tuple[int, int]], *,
                 constant_value: float = 0.0, name: str | None = None) -> None:
        self._paddings = tuple((int(a), int(b)) for a, b in paddings)
        self._constant_value = float(constant_value)
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        x = inputs[0]
        if x.ndim != len(self._paddings):
            raise ShapeError(
                f"pad spec has {len(self._paddings)} axes but input has rank {x.ndim}"
            )
        return np.pad(x, self._paddings, mode="constant",
                      constant_values=self._constant_value)

    def backward(self, grad_output, ctx: OpContext):
        crop = tuple(
            slice(lo, grad_output.shape[axis] - hi)
            for axis, (lo, hi) in enumerate(self._paddings)
        )
        return [grad_output[crop]]

    def infer_shape(self, input_shapes):
        shape = input_shapes[0]
        if shape is None:
            return None
        return tuple(
            None if s is None else s + lo + hi
            for s, (lo, hi) in zip(shape, self._paddings)
        )


class ReduceMin(Node):
    """Minimum over the whole tensor (the ``Min`` node of Fig. 1)."""

    op_type = "ReduceMin"

    def __init__(self, graph, x: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        return np.asarray(inputs[0].min(), dtype=np.float64)

    def backward(self, grad_output, ctx: OpContext):
        # The Fig. 1 range probes feed quantisation coefficients, not the
        # data path; training treats them as detached statistics (the STE
        # convention), so no gradient flows through them.
        return [None]

    def infer_shape(self, input_shapes):
        return ()


class ReduceMax(Node):
    """Maximum over the whole tensor (the ``Max`` node of Fig. 1)."""

    op_type = "ReduceMax"

    def __init__(self, graph, x: Node, *, name: str | None = None) -> None:
        super().__init__(graph, name, [x])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 1)
        return np.asarray(inputs[0].max(), dtype=np.float64)

    def backward(self, grad_output, ctx: OpContext):
        # Detached range statistic; see ReduceMin.backward.
        return [None]

    def infer_shape(self, input_shapes):
        return ()
