"""Bound ``AxConv2D`` plans: a frozen layer prepares once and stays exact.

Once ``freeze_ranges`` has replaced the range probes with constants, every
set-up input of an ``AxConv2D`` is an immutable array, and the node keeps
its prepared convolution in the filter cache instead of preparing it on
every execution.  Each test here checks a node's output against a cold
``InferencePipeline`` run on private caches -- no binding, no warm state --
on the same inputs, bit for bit, and that the plan is taken, dropped and
taken again exactly when it should be.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (DEFAULT_FILTER_CACHE, FilterBankCache,
                            InferencePipeline, LUTCache, clear_caches,
                            collect_reports)
from repro.conv import CHUNK_SIZE
from repro.conv import gemm as gemm_mod
from repro.graph import (Executor, Graph, approximate_graph,
                         approximate_graph_layerwise, freeze_ranges)
from repro.graph.ops import AxConv2D, Constant, Placeholder
from repro.lut import LookupTable
from repro.models import build_simple_cnn
from repro.multipliers import library

#: The four multiplier configurations of the serve benchmark.
CONFIGS = {
    "mitchell": "mul8s_mitchell",
    "exact": "mul8s_exact",
    "trunc2": "mul8s_trunc2",
    "mix": {"conv1": "mul8s_trunc2", "conv2": "mul8s_exact",
            "conv3": "mul8s_mitchell"},
}


def frozen_model(config):
    model = build_simple_cnn(input_size=16, seed=0)
    if isinstance(config, str):
        approximate_graph(model.graph, config)
    else:
        approximate_graph_layerwise(model.graph, dict(config))
    calibration = np.random.default_rng(3).uniform(0, 1, (8, 16, 16, 3))
    freeze_ranges(model.graph, {model.input_node: calibration})
    return model


def samples(batch, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (batch, 16, 16, 3))


def ax_nodes(model):
    return list(model.graph.nodes_by_type(AxConv2D.op_type))


def cold_output(node, x):
    """The node's convolution of ``x`` on fresh, private caches."""
    filters, lo, hi, f_lo, f_hi = (inp.value for inp in node.inputs[1:])
    pipeline = InferencePipeline(
        lut_cache=LUTCache(), filter_cache=FilterBankCache())
    return pipeline.run(
        x, filters, node.pipeline.multiplier, strides=node.strides,
        dilations=node.dilations, padding=node.padding,
        input_range=(float(lo), float(hi)),
        filter_range=(float(f_lo), float(f_hi)))


def check_against_cold(model, x):
    """Run ``model`` on ``x``; every AxConv2D output must equal a cold run
    on the input that layer received.  Returns the filter-cache lookups the
    run made."""
    nodes = ax_nodes(model)
    before = DEFAULT_FILTER_CACHE.stats_snapshot()
    values = Executor(model.graph).run(
        nodes + [node.inputs[0] for node in nodes], {model.input_node: x})
    after = DEFAULT_FILTER_CACHE.stats_snapshot()
    for node, out, data in zip(nodes, values, values[len(nodes):]):
        assert np.array_equal(out, cold_output(node, data)), node.name
    return after.lookups - before.lookups


def warm(model, x):
    """Run once, which binds every node."""
    check_against_cold(model, x)
    assert all(DEFAULT_FILTER_CACHE.bound(node) is not None
               for node in ax_nodes(model))


def assert_plans_hold_their_operands(model):
    """Each plan holds its kernel's prebuilt filter operand."""
    for node in ax_nodes(model):
        prepared = DEFAULT_FILTER_CACHE.bound(node).prepared
        kind = (gemm_mod.RowTable
                if node.pipeline.multiplier.name == "mul8s_mitchell"
                else gemm_mod.FactoredFilters)
        assert isinstance(prepared.prebuilt, kind), node.name


@pytest.fixture
def model():
    clear_caches()
    return frozen_model(CONFIGS["mitchell"])


class TestBinding:
    def test_bound_run_skips_the_set_up(self, model):
        x = samples(1)
        warm(model, x)
        assert check_against_cold(model, x) == 0

    def test_bound_run_counts_every_layer(self, model):
        x = samples(2)
        warm(model, x)
        with collect_reports() as report:
            Executor(model.graph).run(model.logits, {model.input_node: x})
        assert report.stats.chunks == 3
        assert report.stats.macs == model.macs_per_image * 2

    def test_new_filter_value_binds_again(self, model):
        x = samples(1)
        warm(model, x)
        node = ax_nodes(model)[1]
        weights = node.inputs[1]
        plan = DEFAULT_FILTER_CACHE.bound(node)
        old = Executor(model.graph).run(node, {model.input_node: x})
        weights.set_value(weights.value * -0.5)
        assert check_against_cold(model, x) > 0
        assert DEFAULT_FILTER_CACHE.bound(node) is not plan
        assert not np.array_equal(
            Executor(model.graph).run(node, {model.input_node: x}), old)
        assert check_against_cold(model, x) == 0

    def test_new_range_value_binds_again(self, model):
        x = samples(1)
        warm(model, x)
        node = ax_nodes(model)[0]
        high = node.inputs[3]
        plan = DEFAULT_FILTER_CACHE.bound(node)
        high.set_value(high.value * 0.5)
        assert check_against_cold(model, x) > 0
        assert DEFAULT_FILTER_CACHE.bound(node) is not plan
        assert check_against_cold(model, x) == 0

    def test_invalidate_drops_the_plan(self, model):
        x = samples(1)
        warm(model, x)
        node = ax_nodes(model)[2]
        digest = FilterBankCache.content_digest(node.inputs[1].value)
        assert DEFAULT_FILTER_CACHE.invalidate(digest) == 1
        assert DEFAULT_FILTER_CACHE.bound(node) is None
        assert all(DEFAULT_FILTER_CACHE.bound(other) is not None
                   for other in ax_nodes(model) if other is not node)
        misses = DEFAULT_FILTER_CACHE.stats_snapshot().misses
        check_against_cold(model, x)
        assert DEFAULT_FILTER_CACHE.stats_snapshot().misses == misses + 1

    def test_clear_caches_drops_every_plan(self, model):
        x = samples(1)
        warm(model, x)
        clear_caches()
        assert all(DEFAULT_FILTER_CACHE.bound(node) is None
                   for node in ax_nodes(model))
        check_against_cold(model, x)
        stats = DEFAULT_FILTER_CACHE.stats_snapshot()
        assert (stats.hits, stats.misses) == (0, 3)

    def test_evicted_bank_drops_its_plan(self, model, monkeypatch):
        x = samples(1)
        warm(model, x)
        node = ax_nodes(model)[0]
        # One more bank through a one-entry cache evicts the model's three.
        monkeypatch.setattr(DEFAULT_FILTER_CACHE, "_max_entries", 1)
        rng = np.random.default_rng(5)
        emulate = InferencePipeline()
        emulate.run(rng.normal(size=(1, 4, 4, 3)),
                    rng.normal(size=(3, 3, 3, 2)), "mul8s_exact")
        assert DEFAULT_FILTER_CACHE.bound(node) is None
        check_against_cold(model, x)

    def test_evicted_row_table_drops_its_plan(self, model, monkeypatch):
        # A new bank's row table over a budget that a model's operands fill
        # evicts the oldest of them, and that operand's plan with it: a
        # row table (mitchell) or factored right-hand sides (exact).
        x = samples(1)
        rng = np.random.default_rng(6)
        inputs, filters = rng.normal(size=(1, 4, 4, 8)), rng.normal(
            size=(3, 3, 8, 4))
        for frozen in (model, frozen_model(CONFIGS["exact"])):
            clear_caches()
            warm(frozen, x)
            monkeypatch.setattr(gemm_mod, "ROW_TABLE_CACHE_BYTES",
                                DEFAULT_FILTER_CACHE.table_bytes)
            for _ in range(2):
                InferencePipeline().run(inputs, filters, "mul8s_mitchell")
            assert any(DEFAULT_FILTER_CACHE.bound(node) is None
                       for node in ax_nodes(frozen))
            check_against_cold(frozen, x)

    def test_new_input_shape_binds_again(self):
        clear_caches()
        rng = np.random.default_rng(7)
        graph = Graph("free_shape")
        x = Placeholder(graph, (None, None, None, 4), name="x")
        lut = LookupTable.from_multiplier(library.create("mul8s_mitchell"))
        node = AxConv2D(
            graph, x, Constant(graph, rng.normal(size=(3, 3, 4, 8))),
            Constant(graph, -2.0), Constant(graph, 2.0),
            Constant(graph, -3.0), Constant(graph, 3.0), lut=lut)
        plans = []
        for size in (8, 8, 8, 12, 12, 12):
            data = rng.normal(size=(1, size, size, 4))
            out = Executor(graph).run(node, {x: data})
            assert np.array_equal(out, cold_output(node, data)), size
            plans.append(DEFAULT_FILTER_CACHE.bound(node))
        assert plans[2].input_shape == (8, 8, 4)
        assert plans[5].input_shape == (12, 12, 4)

    def test_probed_ranges_never_bind(self):
        clear_caches()
        model = build_simple_cnn(input_size=16, seed=0)
        approximate_graph(model.graph, "mul8s_mitchell")
        x = samples(1)
        for _ in range(3):
            Executor(model.graph).run(model.logits, {model.input_node: x})
        assert all(DEFAULT_FILTER_CACHE.bound(node) is None
                   for node in ax_nodes(model))

    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("batch", [1, 4, CHUNK_SIZE + 1])
    def test_serve_configs_match_a_cold_run(self, config, batch):
        clear_caches()
        model = frozen_model(CONFIGS[config])
        warm(model, samples(1, seed=1))
        assert_plans_hold_their_operands(model)
        x = samples(batch, seed=2)
        check_against_cold(model, x)
        assert check_against_cold(model, x) == 0

    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_a_short_call_after_a_tall_one_makes_no_lookup(self, config):
        # The first call binds every node with its operand, so a later
        # single-sample call needs nothing more from the filter cache.
        clear_caches()
        model = frozen_model(CONFIGS[config])
        check_against_cold(model, samples(4, seed=1))
        assert check_against_cold(model, samples(1, seed=2)) == 0
        assert_plans_hold_their_operands(model)
