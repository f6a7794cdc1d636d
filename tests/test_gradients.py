"""Finite-difference gradient checks for every op's ``backward``.

Each op is wrapped in a tiny graph whose output is contracted with a fixed
random cotangent ``W`` (so the seed gradient exercises arbitrary directions,
not just all-ones); the analytic gradient from
:meth:`repro.graph.Executor.backward` over a recorded tape must match the central
finite-difference derivative of the same scalar, element by element, over a
grid of shapes, strides and paddings.

``AxConv2D`` is the deliberate exception: its forward pass is a quantised
staircase whose true derivative is zero almost everywhere, so it is checked
against the finite difference of the *exact float* convolution of the same
operands -- which is precisely the straight-through-estimator contract the
op's backward implements.

The tap-wise :func:`repro.conv.conv2d_float_backward` both ops call is also
checked against the im2col formulation of the same adjoints
(``tests/conv_reference.py``) on random geometry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv import conv2d_float, conv2d_float_backward
from repro.errors import ExecutionError
from repro.graph import Executor, Graph
from repro.graph.node import Node, unbroadcast
from repro.graph.ops import (
    Add,
    AvgPool2D,
    AxConv2D,
    BiasAdd,
    Conv2D,
    Flatten,
    GlobalAvgPool,
    Identity,
    MatMul,
    MaxPool2D,
    Pad,
    Placeholder,
    ReduceMax,
    ReduceMin,
    ReLU,
    Softmax,
)

from conv_reference import conv2d_float_backward_im2col

EPS = 1e-6
RTOL = 1e-5
ATOL = 1e-7


def away_from_kinks(rng, shape, margin=0.1):
    """Random values with |x| bounded away from 0 (ReLU/quantiser kinks)."""
    values = rng.normal(size=shape)
    return values + np.sign(values) * margin


def numeric_gradient(f, x, eps=EPS):
    """Central finite difference of scalar ``f`` at ``x``, elementwise."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2.0 * eps)
        it.iternext()
    return grad


def check_op_gradients(make_node, input_arrays, *, seed=0):
    """Compare analytic and numeric gradients for every placeholder input."""
    graph = Graph("gradcheck")
    placeholders = [
        Placeholder(graph, arr.shape, name=f"in{i}")
        for i, arr in enumerate(input_arrays)
    ]
    out = make_node(graph, *placeholders)
    feeds = dict(zip(placeholders, input_arrays))
    executor = Executor(graph)
    cotangent = np.random.default_rng(seed).normal(
        size=np.shape(executor.run(out, feeds)))

    _, tape = executor.record(out, feeds)
    grads = executor.backward(tape, out, cotangent, wrt=placeholders)

    for i, ph in enumerate(placeholders):
        def scalar(x, i=i):
            trial = dict(feeds)
            trial[ph] = x
            return float((executor.run(out, trial) * cotangent).sum())

        numeric = numeric_gradient(scalar, np.asarray(
            input_arrays[i], dtype=np.float64))
        np.testing.assert_allclose(
            grads[ph], numeric, rtol=RTOL, atol=ATOL,
            err_msg=f"gradient mismatch for input {i} of {out.op_type}")


class TestElementwiseOps:
    def test_identity(self, rng):
        check_op_gradients(lambda g, x: Identity(g, x),
                           [rng.normal(size=(3, 4))])

    def test_add(self, rng):
        check_op_gradients(lambda g, a, b: Add(g, a, b),
                           [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))])

    def test_add_same_node_twice_accumulates(self, rng):
        check_op_gradients(lambda g, x: Add(g, x, x),
                           [rng.normal(size=(2, 3))])

    def test_bias_add_2d_and_4d(self, rng):
        check_op_gradients(lambda g, x, b: BiasAdd(g, x, b),
                           [rng.normal(size=(3, 5)), rng.normal(size=(5,))])
        check_op_gradients(lambda g, x, b: BiasAdd(g, x, b),
                           [rng.normal(size=(2, 3, 3, 4)),
                            rng.normal(size=(4,))])

    def test_relu(self, rng):
        check_op_gradients(lambda g, x: ReLU(g, x),
                           [away_from_kinks(rng, (3, 4, 2))])

    def test_softmax(self, rng):
        check_op_gradients(lambda g, x: Softmax(g, x),
                           [rng.normal(size=(4, 6))])

    def test_flatten(self, rng):
        check_op_gradients(lambda g, x: Flatten(g, x),
                           [rng.normal(size=(2, 3, 2, 2))])

    def test_pad(self, rng):
        check_op_gradients(
            lambda g, x: Pad(g, x, [(0, 0), (1, 2), (2, 1), (0, 0)]),
            [rng.normal(size=(2, 3, 3, 2))])

    def test_matmul(self, rng):
        check_op_gradients(lambda g, x, w: MatMul(g, x, w),
                           [rng.normal(size=(3, 4)), rng.normal(size=(4, 5))])


CONV_GRID = [
    # (input NHWC, filters HWCK, strides, padding, dilations)
    ((2, 6, 6, 2), (3, 3, 2, 3), (1, 1), "SAME", (1, 1)),
    ((1, 7, 7, 1), (3, 3, 1, 2), (2, 2), "VALID", (1, 1)),
    ((1, 8, 8, 2), (3, 3, 2, 2), (1, 1), "SAME", (2, 2)),
    ((2, 5, 5, 3), (1, 1, 3, 4), (2, 2), "SAME", (1, 1)),
    ((1, 6, 5, 2), (2, 3, 2, 2), (1, 2), "VALID", (1, 1)),
]


class TestConvGradients:
    @pytest.mark.parametrize(
        "in_shape,f_shape,strides,padding,dilations", CONV_GRID,
        ids=["same", "strided-valid", "dilated", "1x1-strided", "rect"])
    def test_conv2d(self, rng, in_shape, f_shape, strides, padding, dilations):
        check_op_gradients(
            lambda g, x, w: Conv2D(g, x, w, strides=strides,
                                   padding=padding, dilations=dilations),
            [rng.normal(size=in_shape), rng.normal(size=f_shape)])


@st.composite
def _backward_cases(draw):
    """N 1-3, C 1-3, F 1-4, kernel 1-3 per axis (1x1 and rectangular),
    stride 1-3, dilation 1-2, SAME/VALID; inputs large enough for VALID."""
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dilations = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    extent = [(k - 1) * d + 1 for k, d in zip(kernel, dilations)]
    channels = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 3)), draw(st.integers(extent[0], 9)),
             draw(st.integers(extent[1], 9)), channels)
    filter_shape = (*kernel, channels, draw(st.integers(1, 4)))
    geometry = dict(
        strides=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        dilations=dilations,
        padding=draw(st.sampled_from(["SAME", "VALID"])),
    )
    return shape, filter_shape, geometry, draw(st.integers(0, 2**31 - 1))


def _relative_error(actual, expected) -> float:
    """Max-abs error over the max-abs expected value."""
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


class TestConvBackwardOracle:
    @settings(max_examples=120, deadline=None)
    @given(case=_backward_cases())
    def test_tap_wise_matches_im2col_adjoints(self, case):
        shape, filter_shape, geometry, seed = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        w = rng.normal(size=filter_shape)
        out_shape = conv2d_float(x, w, **geometry).shape
        grad = rng.normal(size=out_shape)
        x_copy, w_copy, grad_copy = x.copy(), w.copy(), grad.copy()

        grad_x, grad_w = conv2d_float_backward(grad, x, w, **geometry)
        ref_x, ref_w = conv2d_float_backward_im2col(grad, x, w, **geometry)

        assert np.array_equal(x, x_copy)
        assert np.array_equal(w, w_copy)
        assert np.array_equal(grad, grad_copy)
        assert grad_x.shape == shape and grad_w.shape == filter_shape
        assert _relative_error(grad_x, ref_x) < 1e-12
        assert _relative_error(grad_w, ref_w) < 1e-12


POOL_GRID = [
    # (input NHWC, kernel, strides, padding)
    ((2, 6, 6, 2), (2, 2), (2, 2), "VALID"),
    ((1, 5, 5, 3), (3, 3), (1, 1), "SAME"),
    ((1, 6, 4, 2), (2, 2), (1, 2), "VALID"),
]


class TestPoolGradients:
    @pytest.mark.parametrize("in_shape,kernel,strides,padding", POOL_GRID,
                             ids=["2x2", "3x3-same", "rect"])
    def test_maxpool(self, rng, in_shape, kernel, strides, padding):
        check_op_gradients(
            lambda g, x: MaxPool2D(g, x, kernel=kernel, strides=strides,
                                   padding=padding),
            [rng.normal(size=in_shape)])

    @pytest.mark.parametrize("in_shape,kernel,strides,padding", POOL_GRID,
                             ids=["2x2", "3x3-same", "rect"])
    def test_avgpool(self, rng, in_shape, kernel, strides, padding):
        check_op_gradients(
            lambda g, x: AvgPool2D(g, x, kernel=kernel, strides=strides,
                                   padding=padding),
            [rng.normal(size=in_shape)])

    def test_global_avgpool(self, rng):
        check_op_gradients(lambda g, x: GlobalAvgPool(g, x),
                           [rng.normal(size=(2, 4, 4, 3))])


class TestAxConv2DSTE:
    """The STE contract: approximate forward, exact float backward."""

    @pytest.mark.parametrize(
        "in_shape,f_shape,strides,padding,dilations", CONV_GRID[:3],
        ids=["same", "strided-valid", "dilated"])
    def test_ste_gradient_matches_exact_float_conv(
            self, rng, mitchell_lut_signed, in_shape, f_shape, strides,
            padding, dilations):
        x = rng.normal(size=in_shape)
        w = rng.normal(size=f_shape)

        graph = Graph("ax")
        xp = Placeholder(graph, x.shape, name="x")
        wp = Placeholder(graph, w.shape, name="w")
        ax = AxConv2D(
            graph, xp, wp,
            ReduceMin(graph, xp), ReduceMax(graph, xp),
            ReduceMin(graph, wp), ReduceMax(graph, wp),
            lut=mitchell_lut_signed, strides=strides, padding=padding,
            dilations=dilations,
        )
        executor = Executor(graph)
        feeds = {xp: x, wp: w}
        cotangent = np.random.default_rng(5).normal(
            size=executor.run(ax, feeds).shape)
        _, tape = executor.record(ax, feeds)
        grads = executor.backward(tape, ax, cotangent, wrt=[xp, wp])

        # The reference derivative is of the *exact float* convolution, not
        # of the quantised forward (whose derivative is 0 a.e.).
        def exact_scalar_x(xv):
            return float((conv2d_float(
                xv, w, strides=strides, padding=padding,
                dilations=dilations) * cotangent).sum())

        def exact_scalar_w(wv):
            return float((conv2d_float(
                x, wv, strides=strides, padding=padding,
                dilations=dilations) * cotangent).sum())

        np.testing.assert_allclose(
            grads[xp], numeric_gradient(exact_scalar_x, x),
            rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            grads[wp], numeric_gradient(exact_scalar_w, w),
            rtol=RTOL, atol=ATOL)

    def test_range_probes_receive_no_gradient(self, rng, exact_lut_signed):
        graph = Graph("ax-ranges")
        xp = Placeholder(graph, (1, 4, 4, 1), name="x")
        wp = Placeholder(graph, (3, 3, 1, 2), name="w")
        in_min = ReduceMin(graph, xp)
        ax = AxConv2D(
            graph, xp, wp,
            in_min, ReduceMax(graph, xp),
            ReduceMin(graph, wp), ReduceMax(graph, wp),
            lut=exact_lut_signed,
        )
        executor = Executor(graph)
        feeds = {xp: rng.normal(size=(1, 4, 4, 1)),
                 wp: rng.normal(size=(3, 3, 1, 2))}
        _, tape = executor.record(ax, feeds)
        grads = executor.backward(tape, ax, wrt=[in_min])
        assert not grads[in_min].any()


class TestBackwardMachinery:
    def test_fanout_accumulates(self, rng):
        # y = relu(x) + x  =>  dy/dx = (x > 0) + 1 through two distinct
        # consumers.
        graph = Graph("fanout")
        xp = Placeholder(graph, (3,), name="x")
        out = Add(graph, ReLU(graph, xp), xp)
        x = away_from_kinks(rng, (3,))
        executor = Executor(graph)
        _, tape = executor.record(out, {xp: x})
        grads = executor.backward(tape, out, wrt=[xp])
        np.testing.assert_allclose(grads[xp], (x > 0) + 1.0)

    def test_grad_output_shape_mismatch_raises(self, rng):
        graph = Graph("seed")
        xp = Placeholder(graph, (2, 2), name="x")
        out = Identity(graph, xp)
        executor = Executor(graph)
        _, tape = executor.record(out, {xp: rng.normal(size=(2, 2))})
        with pytest.raises(ExecutionError, match="grad_output shape"):
            executor.backward(tape, out, np.ones((3, 3)))

    def test_unimplemented_backward_raises_graph_error(self, rng):
        class Opaque(Node):
            op_type = "Opaque"

            def __init__(self, graph, x):
                super().__init__(graph, None, [x])

            def compute(self, inputs):
                return inputs[0]

        graph = Graph("opaque")
        xp = Placeholder(graph, (2,), name="x")
        out = Opaque(graph, xp)
        executor = Executor(graph)
        # The executor wraps the op-level GraphError with the node's name.
        _, tape = executor.record(out, {xp: rng.normal(size=(2,))})
        with pytest.raises(ExecutionError, match="does not implement backward"):
            executor.backward(tape, out)

    def test_unbroadcast_sums_broadcast_axes(self):
        grad = np.ones((2, 3, 4))
        np.testing.assert_allclose(
            unbroadcast(grad, (3, 4)), np.full((3, 4), 2.0))
        np.testing.assert_allclose(
            unbroadcast(grad, (2, 1, 4)), np.full((2, 1, 4), 3.0))

    def test_wrt_unreachable_node_gets_zeros(self, rng):
        graph = Graph("unreachable")
        xp = Placeholder(graph, (2,), name="x")
        other = Placeholder(graph, (3,), name="other")
        out = Identity(graph, xp)
        feeds = {xp: rng.normal(size=(2,)), other: rng.normal(size=(3,))}
        value, tape = Executor(graph).record([out, Identity(graph, other)],
                                             feeds)
        grads = Executor(graph).backward(tape, out, wrt=[other])
        assert grads[other].shape == (3,)
        assert not grads[other].any()
