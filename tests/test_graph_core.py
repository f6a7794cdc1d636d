"""Tests of the dataflow-graph framework: graph structure, ops and executor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collections import deque

from repro.errors import ExecutionError, GraphError, ShapeError
from repro.graph import Executor, Graph, infer_shapes, replace_consumers
from repro.graph.transform import approximate_graph
from repro.models import build_resnet, build_simple_cnn
from repro.multipliers import library
from repro.graph.ops import (
    Add,
    AvgPool2D,
    BiasAdd,
    Constant,
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


class TestGraphStructure:
    def test_unique_automatic_names(self):
        g = Graph()
        a = Constant(g, 1.0)
        b = Constant(g, 2.0)
        assert a.name != b.name
        assert len(g) == 2

    def test_duplicate_name_rejected(self):
        g = Graph()
        Constant(g, 1.0, name="c")
        with pytest.raises(GraphError):
            Constant(g, 2.0, name="c")

    def test_get_and_contains(self):
        g = Graph()
        c = Constant(g, 1.0, name="c")
        assert g.get("c") is c
        assert c in g and "c" in g
        with pytest.raises(GraphError):
            g.get("missing")

    def test_cross_graph_input_rejected(self):
        g1, g2 = Graph("a"), Graph("b")
        c = Constant(g1, 1.0)
        with pytest.raises(GraphError):
            Identity(g2, c)

    def test_consumers_and_remove(self):
        g = Graph()
        c = Constant(g, 1.0)
        ident = Identity(g, c)
        assert g.consumers(c) == [ident]
        with pytest.raises(GraphError):
            g.remove(c)          # still consumed
        g.remove(ident)
        g.remove(c)
        assert len(g) == 0

    def test_topological_order_respects_dependencies(self):
        g = Graph()
        a = Constant(g, 1.0)
        b = Constant(g, 2.0)
        s = Add(g, a, b)
        out = Identity(g, s)
        order = g.topological_order([out])
        assert order.index(a) < order.index(s) < order.index(out)

    def test_topological_order_subset(self):
        g = Graph()
        a = Constant(g, 1.0)
        b = Constant(g, 2.0)
        Identity(g, b)
        order = g.topological_order([Identity(g, a)])
        assert b not in order

    @pytest.mark.parametrize("model", ["resnet8", "resnet20", "simple_cnn",
                                       "resnet8_approximated"])
    def test_topological_order_matches_quadratic_reference(self, model):
        """The linear sort returns exactly the old consumer-scan order, for
        whole graphs and target subsets, also after a rewrite has added
        nodes after their consumers."""
        if model == "simple_cnn":
            built = build_simple_cnn(input_size=16, seed=0)
        else:
            built = build_resnet(8 if model.startswith("resnet8") else 20)
        if model.endswith("approximated"):
            approximate_graph(built.graph, library.create("mul8s_exact"))
        g = built.graph
        nodes = g.nodes()
        for targets in (None, [built.logits], [built.probabilities],
                        [built.feature_node], nodes[::7], nodes[-3:]):
            assert (g.topological_order(targets)
                    == _quadratic_topological_order(g, targets))

    def test_topological_order_raises_on_cycle(self):
        g = Graph()
        a = Constant(g, 1.0)
        b = Identity(g, a)
        c = Add(g, a, b)
        out = Identity(g, c)
        b.replace_input(a, c)
        for targets in (None, [out], [c]):
            with pytest.raises(GraphError, match="cycle"):
                g.topological_order(targets)

    def test_summary_and_histogram(self):
        g = Graph("demo")
        a = Constant(g, 1.0)
        Identity(g, a)
        assert "demo" in g.summary()
        assert g.op_type_histogram() == {"Constant": 1, "Identity": 1}

    def test_replace_consumers(self):
        g = Graph()
        a = Constant(g, 1.0)
        b = Constant(g, 2.0)
        out = Identity(g, a)
        count = replace_consumers(g, a, b)
        assert count == 1
        assert out.inputs == (b,)
        with pytest.raises(GraphError):
            replace_consumers(g, a, a)


def _quadratic_topological_order(graph, targets=None):
    """The consumer-scan sort ``Graph.topological_order`` used to run, kept
    as the reference its order must equal (``consumers()`` is O(N) per
    node)."""
    if targets is None:
        wanted = set(graph.nodes())
    else:
        wanted = set()
        stack = list(targets)
        while stack:
            node = stack.pop()
            if node not in wanted:
                wanted.add(node)
                stack.extend(node.inputs)
    in_degree = {
        node: len({p for p in node.inputs if p in wanted}) for node in wanted
    }
    ready = deque(node for node in graph.nodes()
                  if node in wanted and in_degree[node] == 0)
    order = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for consumer in graph.consumers(node):
            if consumer not in in_degree:
                continue
            in_degree[consumer] -= 1
            if in_degree[consumer] == 0:
                ready.append(consumer)
    return order


class TestElementwiseOps:
    def test_add_relu(self):
        g = Graph()
        a = Constant(g, np.array([1.0, -2.0]))
        b = Constant(g, np.array([3.0, 4.0]))
        ex = Executor(g)
        np.testing.assert_array_equal(ex.run(Add(g, a, b)), [4.0, 2.0])
        np.testing.assert_array_equal(ex.run(ReLU(g, a)), [1.0, 0.0])

    def test_bias_add_validation(self):
        g = Graph()
        x = Constant(g, np.zeros((1, 2, 2, 3)))
        bias = Constant(g, np.ones(4))
        node = BiasAdd(g, x, bias)
        with pytest.raises(ExecutionError):
            Executor(g).run(node)

    def test_softmax_rows_sum_to_one(self, rng):
        g = Graph()
        x = Constant(g, rng.normal(size=(5, 10)) * 50)
        out = Executor(g).run(Softmax(g, x))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(out >= 0)

    def test_flatten_pad(self, rng):
        g = Graph()
        x = Constant(g, rng.normal(size=(2, 3, 4, 5)))
        ex = Executor(g)
        assert ex.run(Flatten(g, x)).shape == (2, 60)
        padded = ex.run(Pad(g, x, [(0, 0), (1, 1), (2, 0), (0, 0)]))
        assert padded.shape == (2, 5, 6, 5)

    def test_reduce_min_max(self, rng):
        g = Graph()
        data = rng.normal(size=(3, 4))
        x = Constant(g, data)
        ex = Executor(g)
        assert ex.run(ReduceMin(g, x)) == pytest.approx(data.min())
        assert ex.run(ReduceMax(g, x)) == pytest.approx(data.max())

    def test_matmul_validation(self):
        g = Graph()
        a = Constant(g, np.zeros((2, 3)))
        b = Constant(g, np.zeros((4, 5)))
        with pytest.raises(ExecutionError):
            Executor(g).run(MatMul(g, a, b))


def _pool_reference(data, kernel, strides, padding):
    """Max and average pooling by a direct loop over TensorFlow's windows.

    Each window keeps only its in-image pixels: max ignores the padding and
    the average divides by the in-image count.
    """
    batch, height, width, channels = data.shape
    (kh, kw), (sh, sw) = kernel, strides
    if padding == "SAME":
        out_h, out_w = -(-height // sh), -(-width // sw)
        top = max((out_h - 1) * sh + kh - height, 0) // 2
        left = max((out_w - 1) * sw + kw - width, 0) // 2
    else:
        out_h, out_w = (height - kh) // sh + 1, (width - kw) // sw + 1
        top = left = 0
    ref_max = np.zeros((batch, out_h, out_w, channels))
    ref_avg = np.zeros((batch, out_h, out_w, channels))
    for n in range(batch):
        for oy in range(out_h):
            for ox in range(out_w):
                for c in range(channels):
                    values = [
                        data[n, y, xx, c]
                        for y in range(oy * sh - top, oy * sh - top + kh)
                        for xx in range(ox * sw - left, ox * sw - left + kw)
                        if 0 <= y < height and 0 <= xx < width]
                    ref_max[n, oy, ox, c] = max(values)
                    ref_avg[n, oy, ox, c] = sum(values) / len(values)
    return ref_max, ref_avg


class TestPoolingOps:
    def test_max_pool(self):
        g = Graph()
        data = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = Executor(g).run(MaxPool2D(g, Constant(g, data)))
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_avg_pool(self):
        g = Graph()
        data = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = Executor(g).run(AvgPool2D(g, Constant(g, data)))
        np.testing.assert_array_equal(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])

    @pytest.mark.parametrize("in_shape,kernel,strides", [
        ((2, 5, 5, 3), (2, 2), (2, 2)),
        ((1, 7, 6, 2), (3, 3), (2, 2)),
        ((1, 6, 7, 2), (2, 3), (1, 2)),
        ((2, 5, 4, 1), (3, 2), (2, 1)),
        ((1, 4, 4, 2), (1, 1), (2, 2)),
        ((1, 3, 5, 1), (3, 3), (3, 2)),
    ])
    @pytest.mark.parametrize("padding", ["SAME", "VALID"])
    def test_pools_match_nested_loop_reference(self, rng, in_shape, kernel,
                                               strides, padding):
        data = rng.normal(size=in_shape)
        ref_max, ref_avg = _pool_reference(data, kernel, strides, padding)
        g = Graph()
        x = Constant(g, data)
        options = dict(kernel=kernel, strides=strides, padding=padding)
        executor = Executor(g)
        np.testing.assert_array_equal(
            executor.run(MaxPool2D(g, x, **options)), ref_max)
        np.testing.assert_allclose(
            executor.run(AvgPool2D(g, x, **options)), ref_avg,
            rtol=1e-12, atol=1e-15)

    def test_avg_pool_same_ignores_padding(self):
        """TensorFlow divides a SAME window by its in-image pixels."""
        g = Graph()
        pool = AvgPool2D(g, Constant(g, np.ones((1, 3, 3, 1))),
                         kernel=(2, 2), strides=(2, 2), padding="SAME")
        np.testing.assert_array_equal(Executor(g).run(pool), np.ones((1, 2, 2, 1)))

    def test_global_avg_pool(self, rng):
        g = Graph()
        data = rng.normal(size=(2, 5, 5, 3))
        out = Executor(g).run(GlobalAvgPool(g, Constant(g, data)))
        np.testing.assert_allclose(out, data.mean(axis=(1, 2)))

    def test_pool_shape_inference(self):
        g = Graph()
        x = Placeholder(g, (None, 8, 8, 4))
        pool = MaxPool2D(g, x)
        shapes = infer_shapes(g)
        assert shapes[pool.name] == (None, 4, 4, 4)


class TestExecutor:
    def test_placeholder_feed_required(self):
        g = Graph()
        x = Placeholder(g, (None, 2))
        out = Identity(g, x)
        with pytest.raises(ExecutionError):
            Executor(g).run(out)

    def test_feed_shape_checked(self):
        g = Graph()
        x = Placeholder(g, (None, 3))
        out = Identity(g, x)
        with pytest.raises(ShapeError):
            Executor(g).run(out, {x: np.zeros((2, 4))})

    def test_feed_by_name_and_multiple_fetches(self):
        g = Graph()
        x = Placeholder(g, (None, 2), name="x")
        double = Add(g, x, x)
        results = Executor(g).run([x, double], {"x": np.ones((1, 2))})
        np.testing.assert_array_equal(results[1], 2 * np.ones((1, 2)))

    def test_only_placeholders_can_be_fed(self):
        g = Graph()
        c = Constant(g, 1.0)
        out = Identity(g, c)
        with pytest.raises(ExecutionError):
            Executor(g).run(out, {c: np.array(2.0)})

    def test_conv_shape_inference_and_macs(self):
        g = Graph()
        x = Placeholder(g, (4, 16, 16, 3))
        w = Constant(g, np.zeros((3, 3, 3, 8)))
        conv = Conv2D(g, x, w, strides=(2, 2))
        shapes = infer_shapes(g)
        assert shapes[conv.name] == (4, 8, 8, 8)
        assert conv.macs((1, 16, 16, 3), (3, 3, 3, 8)) == 8 * 8 * 3 * 3 * 3 * 8


@settings(max_examples=30, deadline=None)
@given(n_nodes=st.integers(min_value=2, max_value=25),
       seed=st.integers(min_value=0, max_value=1000))
def test_random_dag_executes_in_topological_order(n_nodes, seed):
    """Random DAGs of Add nodes evaluate correctly and without cycles."""
    rng = np.random.default_rng(seed)
    g = Graph()
    nodes = [Constant(g, float(rng.integers(0, 5)), name="c0")]
    expected = [nodes[0].value.item()]
    for i in range(1, n_nodes):
        a_idx = int(rng.integers(0, len(nodes)))
        b_idx = int(rng.integers(0, len(nodes)))
        node = Add(g, nodes[a_idx], nodes[b_idx], name=f"add{i}")
        nodes.append(node)
        expected.append(expected[a_idx] + expected[b_idx])
    result = Executor(g).run(nodes[-1])
    assert result == pytest.approx(expected[-1])
    order = g.topological_order()
    assert order == _quadratic_topological_order(g)
    positions = {node: i for i, node in enumerate(order)}
    for node in order:
        for producer in node.inputs:
            assert positions[producer] < positions[node]


class TestConstantIsReadOnly:
    """A constant's tensor changes only through ``set_value``."""

    def test_writes_raise(self):
        source = np.arange(6.0).reshape(2, 3)
        c = Constant(Graph(), source)
        with pytest.raises(ValueError):
            c.value[...] = 1.0
        with pytest.raises(ValueError):
            c.value.setflags(write=True)
        # No array under the value can be made writeable either.
        base = c.value.base
        while isinstance(base, np.ndarray):
            with pytest.raises(ValueError):
                base.setflags(write=True)
            base = base.base
        assert isinstance(base, bytes)
        # The constant holds a private copy of what it was given.
        source[0, 0] = 99.0
        assert c.value[0, 0] == 0.0
        c.set_value(source)
        source[0, 0] = -1.0
        assert c.value[0, 0] == 99.0
        with pytest.raises(ValueError):
            c.value[0, 0] = 5.0

    def test_set_value_matches_a_fresh_graph(self):
        from repro.graph.ops.conv import AxConv2D
        from repro.lut import LookupTable

        lut = LookupTable.from_multiplier(library.create("mul8s_mitchell"))
        rng = np.random.default_rng(8)
        x_val = rng.normal(size=(1, 6, 6, 2))
        old_w, new_w = rng.normal(size=(2, 3, 3, 2, 4))

        def build(weights):
            g = Graph()
            x = Placeholder(g, (None, 6, 6, 2), name="x")
            w = Constant(g, weights, name="w")
            ranges = [Constant(g, v) for v in (-4.0, 4.0, -3.0, 3.0)]
            return g, x, w, AxConv2D(g, x, w, *ranges, lut=lut)

        g, x, w, out = build(old_w)
        executor = Executor(g)
        for _ in range(3):    # a reused bank: the later runs use its row table
            executor.run(out, {x: x_val})
        w.set_value(new_w)
        fresh_g, fresh_x, _, fresh_out = build(new_w)
        np.testing.assert_array_equal(
            executor.run(out, {x: x_val}),
            Executor(fresh_g).run(fresh_out, {fresh_x: x_val}))
