"""Convolution ops: the accurate ``Conv2D`` and the approximate ``AxConv2D``.

``Conv2D`` mirrors TensorFlow's NHWC/HWCK convolution.  ``AxConv2D`` is the
op the paper introduces: it reads two floating-point tensors plus "four
scalars specifying the quantization coefficients" (delivered as the min/max
of each input by the graph transformation of Fig. 1), a multiplier model
given by its truth table, the expected quantised range and the requested
round mode, and produces a floating-point output with the same range as the
original convolutional layer.
"""

from __future__ import annotations

import numpy as np

from ...backends.pipeline import InferencePipeline, check_accumulator
from ...conv.approx_conv2d import DEFAULT_CHUNK_SIZE
from ...conv.padding import resolve_geometry
from ...conv.reference import conv2d_float, conv2d_float_backward
from ...errors import ConfigurationError, ShapeError
from ...lut.table import LookupTable
from ...quantization.affine import IntegerRange
from ...quantization.rounding import RoundMode
from ..node import Node, OpContext


class Conv2D(Node):
    """Accurate float 2D convolution (NHWC input, HWCK filters)."""

    op_type = "Conv2D"

    def __init__(self, graph, x: Node, filters: Node, *, strides=(1, 1),
                 dilations=(1, 1), padding: str = "SAME",
                 name: str | None = None) -> None:
        self.strides = strides
        self.dilations = dilations
        self.padding = padding
        super().__init__(graph, name, [x, filters])

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 2)
        x, filters = inputs
        return conv2d_float(
            x, filters,
            strides=self.strides, dilations=self.dilations, padding=self.padding,
        )

    def backward(self, grad_output, ctx: OpContext):
        x, filters = ctx.inputs
        grad_x, grad_w = conv2d_float_backward(
            grad_output, x, filters,
            strides=self.strides, dilations=self.dilations, padding=self.padding,
        )
        return [grad_x, grad_w]

    def infer_shape(self, input_shapes):
        x_shape, f_shape = input_shapes
        if x_shape is None or f_shape is None:
            return None
        if len(x_shape) != 4 or len(f_shape) != 4:
            return None
        if any(s is None for s in x_shape[1:3]) or any(s is None for s in f_shape):
            return None
        geometry = resolve_geometry(
            x_shape[1], x_shape[2], f_shape[0], f_shape[1],
            strides=self.strides, dilations=self.dilations, padding=self.padding,
        )
        return (x_shape[0], geometry.output_height, geometry.output_width, f_shape[3])

    def macs(self, input_shape, filter_shape) -> int:
        """Multiply-accumulate operations for one input of ``input_shape``."""
        shape = self.infer_shape([input_shape, filter_shape])
        if shape is None:
            raise ShapeError("cannot count MACs without static shapes")
        batch = shape[0] if shape[0] is not None else 1
        out_positions = batch * shape[1] * shape[2]
        per_position = filter_shape[0] * filter_shape[1] * filter_shape[2] * filter_shape[3]
        return out_positions * per_position


class AxConv2D(Node):
    """Approximate 2D convolution backed by a multiplier lookup table.

    Inputs (positional): the data tensor, the filter tensor and the four
    range scalars ``input_min, input_max, filter_min, filter_max`` produced
    by the Min/Max nodes of the transformed graph.

    Each execution is one :meth:`~repro.backends.InferencePipeline.run`,
    which counts its work; wrap a graph run in
    :func:`repro.backends.collect_reports` to total it.
    """

    op_type = "AxConv2D"

    def __init__(self, graph, x: Node, filters: Node,
                 input_min: Node, input_max: Node,
                 filter_min: Node, filter_max: Node, *,
                 lut: LookupTable, strides=(1, 1), dilations=(1, 1),
                 padding: str = "SAME",
                 qrange: IntegerRange | None = None,
                 round_mode: RoundMode | str = RoundMode.HALF_AWAY_FROM_ZERO,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 accumulator_bits: int | None = None,
                 backend: str = "numpy",
                 max_workers: int = 1,
                 name: str | None = None) -> None:
        if not isinstance(lut, LookupTable):
            raise ConfigurationError("AxConv2D requires a LookupTable instance")
        if qrange is None:
            qrange = IntegerRange.for_bits(lut.bit_width, signed=lut.signed)
        if qrange.signed != lut.signed:
            raise ConfigurationError(
                "the quantised range signedness must match the lookup table"
            )
        self.strides = strides
        self.dilations = dilations
        self.padding = padding
        self.qrange = qrange
        #: Every execution routes through a conv backend; the pipeline
        #: caches this layer's quantised filter bank across runs, so repeated
        #: inference only pays the filter-side setup once.  The pipeline is
        #: the single owner of the tunable execution parameters -- ``lut``,
        #: ``chunk_size``, ``round_mode`` and ``accumulator_bits`` below are
        #: properties over it, so mutating them on the node keeps working.
        self.pipeline = InferencePipeline(
            backend,
            multiplier=lut,
            chunk_size=chunk_size,
            max_workers=max_workers,
            round_mode=round_mode,
            accumulator_bits=accumulator_bits,
        )
        super().__init__(
            graph, name, [x, filters, input_min, input_max, filter_min, filter_max],
        )

    # -- tunables delegated to the pipeline so post-construction mutation
    # -- (an established pattern for ablations) takes effect on execution.
    @property
    def lut(self) -> LookupTable:
        return self.pipeline.multiplier

    @lut.setter
    def lut(self, value: LookupTable) -> None:
        if not isinstance(value, LookupTable):
            raise ConfigurationError("AxConv2D requires a LookupTable instance")
        self.pipeline.multiplier = value

    @property
    def chunk_size(self) -> int:
        return self.pipeline.chunk_size

    @chunk_size.setter
    def chunk_size(self, value: int) -> None:
        self.pipeline.chunk_size = value

    @property
    def round_mode(self) -> RoundMode:
        return self.pipeline.round_mode

    @round_mode.setter
    def round_mode(self, value: RoundMode | str) -> None:
        self.pipeline.round_mode = RoundMode.from_any(value)

    @property
    def accumulator_bits(self) -> int | None:
        return self.pipeline.accumulator_bits

    @accumulator_bits.setter
    def accumulator_bits(self, value: int | None) -> None:
        check_accumulator(self.pipeline.backend, value, self.pipeline.saturate)
        self.pipeline.accumulator_bits = value

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 6)
        x, filters, in_min, in_max, f_min, f_max = inputs
        return self.pipeline.run(
            x, filters,
            strides=self.strides, dilations=self.dilations, padding=self.padding,
            input_range=(float(in_min), float(in_max)),
            filter_range=(float(f_min), float(f_max)),
            qrange=self.qrange,
        ).output

    def backward(self, grad_output, ctx: OpContext):
        """Straight-through-estimator gradient (ApproxTrain convention).

        The forward pass is the quantised, approximate convolution; the
        backward pass differentiates the *exact float* convolution of the
        original operands instead.  The quantise→dequantise pair is treated
        as identity and the multiplier's approximation error as a
        zero-gradient perturbation, which is what makes fine-tuning through
        an emulated accelerator converge.  The four range scalars are
        detached quantisation statistics and receive no gradient.
        """
        x, filters = ctx.inputs[0], ctx.inputs[1]
        grad_x, grad_w = conv2d_float_backward(
            grad_output, x, filters,
            strides=self.strides, dilations=self.dilations, padding=self.padding,
        )
        return [grad_x, grad_w, None, None, None, None]

    def infer_shape(self, input_shapes):
        x_shape, f_shape = input_shapes[0], input_shapes[1]
        if x_shape is None or f_shape is None:
            return None
        if len(x_shape) != 4 or len(f_shape) != 4:
            return None
        if any(s is None for s in x_shape[1:3]) or any(s is None for s in f_shape):
            return None
        geometry = resolve_geometry(
            x_shape[1], x_shape[2], f_shape[0], f_shape[1],
            strides=self.strides, dilations=self.dilations, padding=self.padding,
        )
        return (x_shape[0], geometry.output_height, geometry.output_width, f_shape[3])
