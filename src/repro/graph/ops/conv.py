"""Convolution ops: the accurate ``Conv2D`` and the approximate ``AxConv2D``.

``Conv2D`` mirrors TensorFlow's NHWC/HWCK convolution.  ``AxConv2D`` is the
op the paper introduces: it reads two floating-point tensors plus "four
scalars specifying the quantization coefficients" (delivered as the min/max
of each input by the graph transformation of Fig. 1) and a multiplier model
given by its truth table, and produces a floating-point output with the same
range as the original convolutional layer.  The paper's op also takes the
expected quantised range and a round mode; here the range is the table's own
operand range (the only one it can address) and the quantiser has one
rounding rule, half away from zero.  Like the paper's op, which binds the
table and quantises the filters once, a frozen ``AxConv2D`` binds its
set-up once; the filter-bank cache of :mod:`repro.backends.cache` builds
all of it, the prebuilt LUT-GEMM filter operand included, and keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...backends.cache import is_immutable
from ...backends.pipeline import InferencePipeline
from ...conv.approx_conv2d import PreparedConv
from ...conv.padding import resolve_geometry
from ...conv.reference import conv2d_float, conv2d_float_backward
from ...errors import ConfigurationError, ShapeError
from ...lut.table import LookupTable
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


@dataclass(frozen=True)
class _Plan:
    """An :class:`AxConv2D`'s set-up, bound to the arrays it came from.

    ``operands`` are the filter and the four range arrays, all immutable
    (:func:`~repro.backends.cache.is_immutable`), so holding them keeps
    their identities from being reused and the plan can never disagree
    with them.  ``prepared`` holds the bank's prebuilt LUT-GEMM operand
    whenever it fits the filter cache's byte budget.
    """

    operands: tuple
    input_shape: tuple
    prepared: PreparedConv

    def serves(self, x: np.ndarray, operands) -> bool:
        """Whether this plan is the set-up of a call with these inputs."""
        return (x.shape[1:] == self.input_shape
                and all(a is b for a, b in zip(operands, self.operands)))


class AxConv2D(Node):
    """Approximate 2D convolution backed by a multiplier lookup table.

    Inputs (positional): the data tensor, the filter tensor and the four
    range scalars ``input_min, input_max, filter_min, filter_max`` produced
    by the Min/Max nodes of the transformed graph.

    While the filter and the four range inputs are immutable arrays -- the
    values of graph :class:`~repro.graph.ops.basic.Constant` nodes, as in
    a graph whose ranges :func:`~repro.graph.freeze_ranges` froze -- the
    node binds its prepared convolution (coefficients, quantised bank,
    ``Sf`` and the prebuilt LUT-GEMM operand the filter cache builds for
    it) once, keyed on those arrays' identities and the input's spatial
    shape, and later executions run only the chunk loop
    (:meth:`~repro.backends.InferencePipeline.run_prepared`).  A new
    array in any of those slots (:meth:`Constant.set_value
    <repro.graph.ops.basic.Constant.set_value>`, a rewired input) binds
    again.  The plan is kept in the pipeline's filter cache
    (:meth:`~repro.backends.cache.FilterBankCache.bind`), which drops it
    with the bank or prebuilt operand it came from: on eviction,
    :meth:`~repro.backends.cache.FilterBankCache.invalidate` and
    :func:`~repro.backends.clear_caches`.  Per-batch ranges (the
    ``ReduceMin``/``ReduceMax`` probes) never bind: each such execution is
    one :meth:`~repro.backends.InferencePipeline.run`.  Either way the run
    counts its work; wrap a graph run in
    :func:`repro.backends.collect_reports` to total it.
    """

    op_type = "AxConv2D"

    def __init__(self, graph, x: Node, filters: Node,
                 input_min: Node, input_max: Node,
                 filter_min: Node, filter_max: Node, *,
                 lut: LookupTable, strides=(1, 1), dilations=(1, 1),
                 padding: str = "SAME",
                 name: str | None = None) -> None:
        if not isinstance(lut, LookupTable):
            raise ConfigurationError("AxConv2D requires a LookupTable instance")
        self.strides = strides
        self.dilations = dilations
        self.padding = padding
        #: The pipeline holds the table as its ``multiplier``; it
        #: caches this layer's quantised filter bank across runs, so
        #: repeated inference only pays the filter-side setup once.
        self.pipeline = InferencePipeline("numpy", multiplier=lut)
        super().__init__(
            graph, name, [x, filters, input_min, input_max, filter_min, filter_max],
        )

    def compute(self, inputs: list[np.ndarray]) -> np.ndarray:
        self._expect_inputs(inputs, 6)
        x, filters, in_min, in_max, f_min, f_max = inputs
        operands = inputs[1:]
        plan = self.pipeline.filter_cache.bound(self)
        if plan is None or not plan.serves(x, operands):
            if not all(is_immutable(value) for value in operands):
                return self.pipeline.run(
                    x, filters, strides=self.strides,
                    dilations=self.dilations, padding=self.padding,
                    input_range=(float(in_min), float(in_max)),
                    filter_range=(float(f_min), float(f_max)),
                ).output
            plan = self._bind(x, operands)
        return self.pipeline.run_prepared(
            x, plan.prepared, strides=self.strides,
            dilations=self.dilations, padding=self.padding).output

    def _bind(self, x: np.ndarray, operands) -> _Plan:
        """Prepare this node's convolution for ``x`` and keep the plan in
        the filter cache, which adds the bank's prebuilt operand and drops
        the plan with the bank it came from."""
        filters, in_min, in_max, f_min, f_max = operands
        prepared = self.pipeline.prepare(
            x, filters, strides=self.strides, dilations=self.dilations,
            padding=self.padding,
            input_range=(float(in_min), float(in_max)),
            filter_range=(float(f_min), float(f_max)),
        )
        return self.pipeline.filter_cache.bind(self, _Plan(
            operands=tuple(operands), input_shape=x.shape[1:],
            prepared=prepared))

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
