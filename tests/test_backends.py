"""Tests of the backend table, caches and the batched inference pipeline.

The central property here is *cross-backend parity*: every backend must
produce bit-identical outputs for the same prepared convolution, because
they all claim to emulate the same accelerator.  The parity test runs every
backend over a grid of shapes x multipliers x signedness.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import (
    DEFAULT_FILTER_CACHE,
    DEFAULT_LUT_CACHE,
    FilterBankCache,
    InferencePipeline,
    LUTCache,
    available_backends,
    clear_caches,
    collect_reports,
    emulate_conv2d,
    get_backend,
)
from repro.conv import CHUNK_SIZE, ApproxConvStats, approx_conv2d_direct
from repro.conv import gemm as gemm_mod
from repro.conv.gemm import lut_matmul
from repro.errors import (
    ConfigurationError, QuantizationError, RegistryError, ShapeError,
    TruthTableError)
from repro.graph import Graph
from repro.graph.ops.basic import Constant
from repro.graph.ops.conv import AxConv2D
from repro.lut import LookupTable
from repro.multipliers import library
from repro.quantization import (
    IntegerRange, compute_coeffs, compute_coeffs_from_tensor)

from lut_gemm_reference import kernels_for, lut_matmul_naive


# Small cases: the cpusim backend is a per-pixel Python loop.
SHAPES = [
    # (input NHWC, filter HWCK, strides, padding)
    ((1, 5, 5, 2), (3, 3, 2, 3), (1, 1), "SAME"),
    ((2, 6, 6, 1), (3, 3, 1, 2), (2, 2), "VALID"),
    ((3, 4, 4, 2), (1, 1, 2, 4), (1, 1), "SAME"),
]
MULTIPLIERS = ["mul8s_mitchell", "mul8u_drum4", "mul8s_exact"]


def _cold_pipeline() -> InferencePipeline:
    """A pipeline on caches of its own: nothing is served from a cache."""
    return InferencePipeline("numpy", lut_cache=LUTCache(),
                             filter_cache=FilterBankCache())


def _case(shape_spec, seed=7):
    in_shape, f_shape, strides, padding = shape_spec
    rng = np.random.default_rng(seed)
    return (rng.normal(size=in_shape), rng.normal(size=f_shape),
            strides, padding)


class TestBackendParity:
    @pytest.mark.parametrize("shape_spec", SHAPES, ids=["same", "strided", "1x1"])
    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_all_backends_bit_identical(self, shape_spec, multiplier):
        inputs, filters, strides, padding = _case(shape_spec)
        outputs = {
            name: emulate_conv2d(
                inputs, filters, multiplier, backend=name,
                strides=strides, padding=padding,
            )
            for name in available_backends()
        }
        reference = outputs.pop("numpy")
        assert reference.shape[0] == inputs.shape[0]
        for name, out in outputs.items():
            assert np.array_equal(out, reference), (
                f"backend {name!r} diverged from numpy for {multiplier}"
            )

    @pytest.mark.parametrize("shape_spec", SHAPES, ids=["same", "strided", "1x1"])
    @pytest.mark.parametrize("multiplier", MULTIPLIERS)
    def test_exact_ties_round_half_away_from_zero(self, shape_spec, multiplier):
        """Inputs on exact quantisation ties round half away from zero on
        every engine and in the direct loop.

        The range (-32, 31.75) gives scale 0.25 exactly (zero point 0 signed,
        128 unsigned), so odd multiples of 0.125 land on ``i + 0.5``: -0.375
        quantises to -2 and 2.625 to 11.  Snapping the inputs half away from
        zero onto the 0.25 grid first must not change any output.
        """
        inputs, filters, strides, padding = _case(shape_spec)
        odd = 2 * np.random.default_rng(11).integers(-128, 127, inputs.shape) + 1
        ties = odd * 0.125                      # in [-31.875, 31.625]
        snapped = np.sign(ties) * (np.abs(ties) + 0.125)
        # Ties to even would round some of these the other way.
        assert not np.array_equal(np.rint(ties / 0.25), snapped / 0.25)
        input_range = (-32.0, 31.75)
        lut = LookupTable.from_multiplier(library.create(multiplier))
        qrange = IntegerRange.for_bits(8, signed=lut.signed)
        input_q = compute_coeffs(*input_range, qrange=qrange)
        filter_q = compute_coeffs_from_tensor(filters, qrange=qrange)
        assert input_q.scale == 0.25

        def direct(data):
            return approx_conv2d_direct(data, filters, lut, input_q, filter_q,
                                        strides=strides, padding=padding)

        reference = direct(snapped)
        assert np.array_equal(direct(ties), reference)
        for name in available_backends():
            for data in (ties, snapped):
                out = emulate_conv2d(
                    data, filters, lut, backend=name, strides=strides,
                    padding=padding, input_range=input_range,
                )
                assert np.array_equal(out, reference), (name, multiplier)


#: Grid for the LUT-GEMM kernel-variant parity test: [P, K] x [K, F] shapes
#: spanning tall/square/wide products plus panel-boundary remainders.
GEMM_SHAPES = [
    (7, 9, 5),       # remainders against every default block size
    (64, 48, 16),    # exact block multiples
    (130, 100, 33),  # spills one partial row panel and K panel
]
GEMM_MULTIPLIERS = ["mul8s_exact", "mul8s_mitchell", "mul8u_drum4"]


class TestKernelVariantParity:
    """Every LUT-GEMM kernel in ``KERNELS`` must agree bit for bit.

    The grid crosses shapes x multipliers (signed and unsigned); every
    kernel sums in one int64 accumulator and ``lut_matmul_naive`` is the
    reference.  ``factored`` joins for the tables it can compute
    (``exact``, ``drum4``).
    """

    @pytest.mark.parametrize("shape", GEMM_SHAPES,
                             ids=["remainder", "aligned", "spill"])
    @pytest.mark.parametrize("multiplier", GEMM_MULTIPLIERS)
    @pytest.mark.parametrize("acc_dtype", [np.int64], ids=["acc64"])
    def test_all_kernels_bit_identical(self, shape, multiplier, acc_dtype):
        p, k, f = shape
        lut = LookupTable.from_multiplier(library.create(multiplier))
        lo, hi = (-128, 128) if lut.signed else (0, 256)
        rng = np.random.default_rng(p * 1000 + k)
        patches = rng.integers(lo, hi, size=(p, k))
        filters = rng.integers(lo, hi, size=(k, f))
        reference = lut_matmul_naive(patches, filters, lut)
        for name in kernels_for(lut, k):
            out = lut_matmul(patches, filters, lut, kernel=name)
            assert out.dtype == acc_dtype
            assert np.array_equal(out, reference), (
                f"kernel {name!r} diverged from naive for {multiplier} "
                f"at shape {shape}"
            )

    @pytest.mark.parametrize("multiplier", ["mul8s_mitchell", "mul8u_drum4"])
    def test_default_conv_above_crossover_matches_naive(self, multiplier,
                                                        monkeypatch):
        """A conv whose chunks have P >= 512 rows takes the kernel the table
        selects -- ``rowgather`` for ``mitchell`` (rank 64),
        ``factored`` for the rank-1 ``drum4`` -- and still matches the naive
        reference exactly."""
        expected = {"mul8s_mitchell": "rowgather",
                    "mul8u_drum4": "factored"}[multiplier]
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(4, 12, 12, 3))     # P = 4*12*12 = 576
        filters = rng.normal(size=(3, 3, 3, 5))
        with monkeypatch.context() as pinned:
            for name in list(gemm_mod.KERNELS):
                pinned.setitem(gemm_mod.KERNELS, name, lut_matmul_naive)
            reference = emulate_conv2d(inputs, filters, multiplier)

        chosen = gemm_mod.KERNELS[expected]
        rows = []

        def spy(patches, *args, **kwargs):
            rows.append(len(patches))
            return chosen(patches, *args, **kwargs)

        monkeypatch.setitem(gemm_mod.KERNELS, expected, spy)
        out = emulate_conv2d(inputs, filters, multiplier)
        assert rows == [576]
        assert np.array_equal(out, reference)


class TestRegistry:
    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(RegistryError, match="known backends"):
            get_backend("tpu")
        with pytest.raises(RegistryError, match="numpy"):
            get_backend("definitely-not-a-backend")

    def test_unknown_backend_via_pipeline(self):
        with pytest.raises(RegistryError):
            InferencePipeline("tpu")
        with pytest.raises(RegistryError):
            emulate_conv2d(np.zeros((1, 4, 4, 1)), np.zeros((3, 3, 1, 1)),
                           "mul8u_exact", backend="tpu")


class TestCaches:
    def test_lut_cache_hits_on_repeat(self):
        cache = LUTCache()
        first = cache.resolve("mul8s_mitchell")
        second = cache.resolve("mul8s_mitchell")
        assert first is second
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        # A different multiplier is a separate entry.
        cache.resolve("mul8u_drum4")
        assert cache.stats.misses == 2

    def test_lut_cache_passthrough_and_errors(self):
        cache = LUTCache()
        lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
        assert cache.resolve(lut) is lut
        assert cache.stats.lookups == 0
        with pytest.raises(ConfigurationError):
            cache.resolve(1234)  # type: ignore[arg-type]

    def test_pipeline_reports_cache_hits_per_run(self):
        lut_cache, filter_cache = LUTCache(), FilterBankCache()
        pipeline = InferencePipeline(
            "numpy", multiplier="mul8s_mitchell",
            lut_cache=lut_cache, filter_cache=filter_cache)
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(2, 6, 6, 2))
        filters = rng.normal(size=(3, 3, 2, 3))

        def counts(cache):
            stats = cache.stats_snapshot()
            return stats.hits, stats.misses

        pipeline.run(inputs, filters)
        assert counts(lut_cache) == (0, 1)
        assert counts(filter_cache) == (0, 1)

        pipeline.run(inputs, filters)
        assert counts(lut_cache) == (1, 1)
        assert counts(filter_cache) == (1, 1)

        # New batch, same filters: the filter bank still hits.
        pipeline.run(rng.normal(size=(3, 6, 6, 2)), filters)
        assert counts(filter_cache) == (2, 1)

        # Different filters miss; the hit rate reflects the history.
        pipeline.run(inputs, rng.normal(size=(3, 3, 2, 3)))
        assert filter_cache.stats.misses == 2
        assert filter_cache.stats.hits == 2

    def test_filter_cache_distinguishes_quant_config(self):
        """Same bytes, different quantisation config => different entries."""
        filter_cache = FilterBankCache()
        pipeline = InferencePipeline(
            "numpy", multiplier="mul8s_mitchell", filter_cache=filter_cache)
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(1, 5, 5, 1))
        filters = rng.normal(size=(3, 3, 1, 2))
        pipeline.run(inputs, filters)
        pipeline.run(inputs, filters, filter_range=(-4.0, 4.0))
        assert filter_cache.stats.misses == 2

    def test_lru_eviction_order_prefers_recently_hit_entries(self):
        """A hit refreshes the eviction queue: true LRU, not insertion order."""
        cache = LUTCache(max_entries=2)
        cache.resolve("mul8s_mitchell")   # oldest insertion...
        cache.resolve("mul8u_drum4")
        cache.resolve("mul8s_mitchell")   # ...but refreshed by this hit
        cache.resolve("mul8u_loa4")       # evicts mul8u_drum4, not mitchell
        assert cache.stats.evictions == 1

        before = cache.stats.snapshot()
        cache.resolve("mul8s_mitchell")
        assert cache.stats.hits == before.hits + 1

        cache.resolve("mul8u_drum4")      # was evicted => rebuilt
        assert cache.stats.misses == before.misses + 1

    def test_filter_cache_invalidate_drops_stale_banks(self):
        """After a weight update, invalidated banks are rebuilt, not served."""
        filter_cache = FilterBankCache()
        pipeline = InferencePipeline(
            "numpy", multiplier="mul8s_mitchell", filter_cache=filter_cache)
        rng = np.random.default_rng(17)
        inputs = rng.normal(size=(1, 5, 5, 2))
        filters = rng.normal(size=(3, 3, 2, 3))

        pipeline.run(inputs, filters)
        digest = FilterBankCache.content_digest(filters)
        assert filter_cache.invalidate(digest) == 1
        assert filter_cache.stats.invalidations == 1
        assert len(filter_cache) == 0

        # The next run with the same weights must rebuild, never serve a
        # stale entry...
        before = filter_cache.stats_snapshot()
        pipeline.run(inputs, filters)
        after = filter_cache.stats_snapshot()
        assert after.misses - before.misses == 1
        assert after.hits == before.hits
        # ...and invalidating an unknown digest is a harmless no-op.
        assert filter_cache.invalidate("no-such-digest") == 0

    def test_filter_cache_invalidate_is_content_exact(self):
        """Invalidation only removes banks of the superseded tensor."""
        filter_cache = FilterBankCache()
        pipeline = InferencePipeline(
            "numpy", multiplier="mul8s_mitchell", filter_cache=filter_cache)
        rng = np.random.default_rng(23)
        inputs = rng.normal(size=(1, 5, 5, 1))
        old_weights = rng.normal(size=(3, 3, 1, 2))
        other_layer = rng.normal(size=(3, 3, 1, 4))
        pipeline.run(inputs, old_weights)
        pipeline.run(inputs, other_layer)

        # A weight update: the old bank dies, the unrelated layer survives.
        filter_cache.invalidate(FilterBankCache.content_digest(old_weights))
        new_weights = old_weights + 0.01
        pipeline.run(inputs, new_weights)
        hits = filter_cache.stats_snapshot().hits
        pipeline.run(inputs, other_layer)
        assert filter_cache.stats_snapshot().hits == hits + 1
        assert filter_cache.stats.invalidations == 1

    def test_clear_resets_entries_and_stats(self):
        filter_cache = FilterBankCache()
        pipeline = InferencePipeline(
            "numpy", multiplier="mul8s_mitchell", filter_cache=filter_cache)
        rng = np.random.default_rng(29)
        pipeline.run(rng.normal(size=(1, 4, 4, 1)),
                     rng.normal(size=(3, 3, 1, 1)))
        assert len(filter_cache) == 1
        filter_cache.clear()
        assert len(filter_cache) == 0
        assert filter_cache.stats.lookups == 0

    def test_clear_caches_resets_default_caches(self):
        clear_caches()
        rng = np.random.default_rng(9)
        inputs = rng.normal(size=(1, 4, 4, 1))
        filters = rng.normal(size=(3, 3, 1, 1))
        emulate_conv2d(inputs, filters, "mul8u_loa4")
        assert DEFAULT_LUT_CACHE.stats_snapshot().misses == 1
        clear_caches()
        assert DEFAULT_LUT_CACHE.stats_snapshot().lookups == 0
        emulate_conv2d(inputs, filters, "mul8u_loa4")
        assert DEFAULT_LUT_CACHE.stats_snapshot().misses == 1


class TestRunReport:
    def test_gpusim_report_includes_launch_accounting(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(CHUNK_SIZE + 1, 5, 5, 2))
        filters = rng.normal(size=(3, 3, 2, 3))
        with collect_reports() as report:
            emulate_conv2d(inputs, filters, "mul8s_exact", backend="gpusim")
        assert report.gpu is not None
        assert report.stats.chunks == 2
        assert report.gpu.kernel_launches == 4      # im2cols + gemm per chunk
        assert [launch.name for launch in report.gpu.launches] == [
            "ax_im2cols", "ax_gemm"] * 2
        # One texture fetch per MAC, summed over both chunks.
        assert report.gpu.texture_fetches == report.stats.macs
        assert report.lut_name == "mul8s_exact"

    def test_numpy_report_has_no_gpu_section_and_counts_work(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(CHUNK_SIZE + 1, 5, 5, 2))
        filters = rng.normal(size=(3, 3, 2, 3))
        with collect_reports() as report:
            emulate_conv2d(inputs, filters, "mul8s_exact")
        assert report.gpu is None
        positions = (CHUNK_SIZE + 1) * 5 * 5
        assert report.stats.macs == positions * 3 * 3 * 2 * 3
        assert report.stats.chunks == 2
        assert "backend=numpy" in report.summary()

    def test_stats_identical_across_backends(self):
        """Operation counts depend on geometry, not on the executing engine.

        A run counts the inputs it quantises, cold caches or warm; the
        filter bank quantised on the cold run is the filter cache's miss.
        """
        inputs, filters, strides, padding = _case(SHAPES[0])
        positions, depth, count = 5 * 5, 3 * 3 * 2, 3
        reference = ApproxConvStats(
            quantized_values=inputs.size,
            output_values=positions * count,
            chunks=1,
            macs=positions * depth * count,
        )
        for name in ("numpy", "cpusim", "gpusim"):
            clear_caches()
            cold, warm = [
                InferencePipeline(name).run(
                    inputs, filters, "mul8s_exact",
                    strides=strides, padding=padding).report
                for _ in range(2)]
            assert cold.stats == warm.stats == reference, name
            filter_counts = DEFAULT_FILTER_CACHE.stats_snapshot()
            assert (filter_counts.hits, filter_counts.misses) == (1, 1), name

    @pytest.mark.parametrize("backend", ["numpy", "cpusim", "gpusim"])
    @pytest.mark.parametrize("operand", ["inputs", "filters"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operands_raise(self, backend, operand, bad):
        inputs, filters, strides, padding = _case(SHAPES[0])
        (inputs if operand == "inputs" else filters)[0, 0, 0, 0] = bad
        with pytest.raises(QuantizationError):
            emulate_conv2d(inputs, filters, "mul8s_exact", backend=backend,
                           strides=strides, padding=padding)

    @pytest.mark.parametrize("backend", ["numpy", "cpusim", "gpusim"])
    def test_operands_outside_the_table_range_raise(self, backend):
        """Inputs quantised to a 12-bit range feed an 8-bit table operands
        it cannot address; no engine may wrap them into a wrong answer."""
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(2, 5, 5, 3))
        filters = rng.normal(size=(3, 3, 3, 4))
        lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
        prepared = dataclasses.replace(
            _cold_pipeline().prepare(inputs, filters, lut),
            input_q=compute_coeffs_from_tensor(
                inputs, qrange=IntegerRange.for_bits(12, signed=True)))
        with pytest.raises(TruthTableError, match="outside the table range"):
            get_backend(backend)(inputs, prepared, (1, 1), (1, 1), "SAME")

    def test_report_merge_accumulates(self):
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(2, 4, 4, 1))
        filters = rng.normal(size=(3, 3, 1, 2))
        with collect_reports() as total:
            for _ in range(3):
                emulate_conv2d(inputs, filters, "mul8s_exact")
        assert total.batch == 6
        assert total.stats.chunks == 3


class TestCollectReports:
    """The scope that totals every pipeline run on the calling thread."""

    @staticmethod
    def _run():
        rng = np.random.default_rng(9)
        return InferencePipeline("numpy", multiplier="mul8s_exact").run(
            rng.normal(size=(2, 4, 4, 1)), rng.normal(size=(3, 3, 1, 2))
        ).report

    def test_nested_scopes_both_receive_a_run(self):
        with collect_reports() as outer:
            with collect_reports() as inner:
                first = self._run()
            second = self._run()
        assert inner.stats == first.stats
        assert inner.batch == 2
        assert outer.stats.macs == first.stats.macs + second.stats.macs
        assert outer.batch == 4
        assert outer.backend == "numpy" and outer.lut_name == "mul8s_exact"

    def test_run_outside_any_scope_merges_nowhere(self):
        with collect_reports() as closed:
            self._run()
        before = dataclasses.replace(closed.stats)
        self._run()
        assert closed.stats == before
        assert closed.batch == 2

    def test_scope_does_not_reach_other_threads(self):
        import threading

        reports = []
        with collect_reports() as scope:
            worker = threading.Thread(
                target=lambda: reports.append(self._run()))
            worker.start()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert reports[0].stats.macs > 0
        assert scope.batch == 0 and scope.stats == ApproxConvStats()


class TestPipelineConfiguration:
    def test_missing_multiplier(self):
        pipeline = InferencePipeline("numpy")
        with pytest.raises(ConfigurationError, match="multiplier"):
            pipeline.run(np.zeros((1, 4, 4, 1)), np.zeros((3, 3, 1, 1)))

    def test_qrange_derived_from_lut_signedness(self):
        rng = np.random.default_rng(8)
        inputs = np.abs(rng.normal(size=(1, 5, 5, 1)))
        filters = np.abs(rng.normal(size=(3, 3, 1, 2)))
        # Unsigned multiplier: no explicit qrange needed.
        out = emulate_conv2d(inputs, filters, "mul8u_drum4")
        assert out.shape == (1, 5, 5, 2)

    def test_approx_conv2d_and_axconv2d_derive_qrange_too(self):
        rng = np.random.default_rng(8)
        inputs = np.abs(rng.normal(size=(2, 5, 5, 1)))
        filters = np.abs(rng.normal(size=(3, 3, 1, 2)))
        lut = LookupTable.from_multiplier(library.create("mul8u_drum4"))
        expected = emulate_conv2d(inputs, filters, "mul8u_drum4")
        assert np.array_equal(emulate_conv2d(inputs, filters, lut), expected)
        graph = Graph("unsigned")
        operands = [Constant(graph, value) for value in (
            inputs, filters, inputs.min(), inputs.max(),
            filters.min(), filters.max())]
        node = AxConv2D(graph, *operands, lut=lut)
        prepared = node.pipeline.prepare(inputs, filters)
        assert not prepared.input_q.qrange.signed
        assert not prepared.filter_q.qrange.signed
        np.testing.assert_array_equal(
            node.compute([op.value for op in operands]),
            emulate_conv2d(inputs, filters, lut,
                           input_range=(inputs.min(), inputs.max()),
                           filter_range=(filters.min(), filters.max())))

    @pytest.mark.parametrize("engine", ["numpy", "cpusim", "gpusim"])
    @pytest.mark.parametrize("input_range", [None, (-1.0, 1.0)])
    def test_zero_image_batch_raises_shape_error(self, engine, input_range):
        """An empty batch or an empty filter bank (0-size kernel or F=0)
        raises ``ShapeError`` on every engine, with or without ranges."""
        cases = [((0, 4, 4, 1), (3, 3, 1, 1), None)] + [
            ((1, 4, 4, 1), filter_shape, filter_range)
            for filter_shape in ((0, 3, 1, 1), (3, 3, 1, 0))
            for filter_range in (None, (-1.0, 1.0))]
        lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
        for input_shape, filter_shape, filter_range in cases:
            inputs, filters = np.ones(input_shape), np.ones(filter_shape)
            with pytest.raises(ShapeError, match="empty"):
                emulate_conv2d(inputs, filters, "mul8s_exact",
                               backend=engine, input_range=input_range,
                               filter_range=filter_range)

class TestAxConv2DIntegration:
    def test_graph_op_routes_through_pipeline_and_caches(self):
        clear_caches()
        lut = LookupTable.from_multiplier(library.create("mul8s_mitchell"))
        rng = np.random.default_rng(13)
        x_val = rng.normal(size=(2, 6, 6, 2))
        w_val = rng.normal(size=(3, 3, 2, 3))

        graph = Graph("ax")
        x = Constant(graph, x_val, name="x")
        w = Constant(graph, w_val, name="w")
        in_min = Constant(graph, np.float64(x_val.min()), name="in_min")
        in_max = Constant(graph, np.float64(x_val.max()), name="in_max")
        f_min = Constant(graph, np.float64(w_val.min()), name="f_min")
        f_max = Constant(graph, np.float64(w_val.max()), name="f_max")
        node = AxConv2D(graph, x, w, in_min, in_max, f_min, f_max, lut=lut)

        expected = _cold_pipeline().run(
            x_val, w_val, lut,
            input_range=(float(x_val.min()), float(x_val.max())),
            filter_range=(float(w_val.min()), float(w_val.max())),
        ).output
        feeds = [x_val, w_val, x_val.min(), x_val.max(), w_val.min(), w_val.max()]
        filter_cache = node.pipeline.filter_cache
        with collect_reports() as cold:
            first = node.compute(feeds)
        assert np.array_equal(first, expected)
        assert filter_cache.stats_snapshot().misses == 1
        assert cold.stats.quantized_values == x_val.size

        # Re-execution reuses the cached filter bank and stays identical.
        with collect_reports() as warm:
            second = node.compute(feeds)
        assert np.array_equal(second, expected)
        assert filter_cache.stats_snapshot().hits == 1
        assert filter_cache.stats_snapshot().misses == 1
        assert warm.stats.macs == cold.stats.macs == 2 * 6 * 6 * 18 * 3
        assert warm.stats.quantized_values == x_val.size


def _read_only(array):
    """A read-only array over a private ``bytes`` copy, as ``Constant``
    stores."""
    array = np.asarray(array, dtype=np.float64)
    return np.frombuffer(array.tobytes()).reshape(array.shape)


class TestRowTables:
    """A filter bank used again keeps its ``rowgather`` table in the cache."""

    @staticmethod
    def _setup(multiplier="mul8s_mitchell", seed=31, filter_shape=(3, 3, 2, 4)):
        cache = FilterBankCache()
        pipeline = InferencePipeline("numpy", multiplier=multiplier,
                                     filter_cache=cache)
        rng = np.random.default_rng(seed)
        return (pipeline, cache, rng.normal(size=(1, 6, 6, 2)),
                rng.normal(size=filter_shape))

    def test_built_on_second_use_below_the_size_rule(self):
        pipeline, cache, inputs, filters = self._setup()
        assert pipeline.prepare(inputs, filters).prebuilt is None
        assert cache.table_bytes == 0
        # A tall call (15 * 36 >= 512 patch rows) neither counts nor
        # builds.
        tall = np.repeat(inputs, 15, axis=0)
        assert pipeline.prepare(tall, filters).prebuilt is None
        table = pipeline.prepare(inputs, filters).prebuilt
        assert table is not None and table.shape == (18, 4)
        assert cache.table_bytes == table.nbytes == 18 * 256 * 4 * 2
        # Every later call of any size gets the same table.
        assert pipeline.prepare(inputs, filters).prebuilt is table
        assert pipeline.prepare(tall, filters).prebuilt is table
        # Another table through the same bank is a separate pair.
        other = pipeline.prepare(inputs, filters, "mul8s_bam_v5")
        assert other.prebuilt is None
        other = pipeline.prepare(inputs, filters, "mul8s_bam_v5")
        assert other.prebuilt.lut.name == "mul8s_bam_v5"
        assert cache.table_bytes == 2 * table.nbytes

    def test_never_at_the_size_rule(self):
        pipeline, cache, inputs, filters = self._setup()
        tall = np.repeat(inputs, 15, axis=0)
        for _ in range(3):
            assert pipeline.prepare(tall, filters).prebuilt is None
        assert cache.table_bytes == 0

    def test_rows_follow_the_geometry_and_chunk_size(self):
        pipeline, cache, inputs, filters = self._setup()
        tall = np.repeat(inputs, 15, axis=0)
        # 15 * 3 * 3 = 135 patch rows at stride 2: a short call.
        for _ in range(2):
            prepared = pipeline.prepare(tall, filters, strides=(2, 2))
        assert prepared.prebuilt is not None
        # Two chunks of 3x3 images: 9 * CHUNK_SIZE = 288 patch rows each,
        # though the whole batch has 576.
        pipeline, cache, inputs, filters = self._setup()
        small = np.repeat(inputs[:, :3, :3], 2 * CHUNK_SIZE, axis=0)
        assert 9 * CHUNK_SIZE < 512 <= 9 * len(small)
        for _ in range(2):
            prepared = pipeline.prepare(small, filters)
        assert prepared.prebuilt is not None

    def test_never_for_a_factored_table(self):
        pipeline, cache, inputs, filters = self._setup("mul8s_exact")
        for _ in range(3):
            assert pipeline.prepare(inputs, filters).prebuilt is None
        assert cache.table_bytes == 0

    def test_only_for_backends_that_use_them(self):
        _, cache, inputs, filters = self._setup()
        pipeline = InferencePipeline("gpusim", multiplier="mul8s_mitchell",
                                     filter_cache=cache)
        for _ in range(3):
            pipeline.run(inputs, filters)
        assert cache.table_bytes == 0

    def test_byte_budget_and_lru_eviction(self, monkeypatch):
        pipeline, cache, inputs, _ = self._setup()
        banks = [np.random.default_rng(seed).normal(size=(3, 3, 2, 4))
                 for seed in range(3)]
        size = 18 * 256 * 4 * 2
        monkeypatch.setattr(gemm_mod, "ROW_TABLE_CACHE_BYTES", 2 * size)
        for bank in banks[:2]:
            pipeline.prepare(inputs, bank)
            assert pipeline.prepare(inputs, bank).prebuilt is not None
        assert cache.table_bytes == 2 * size
        # Refresh bank 0, then a third table evicts bank 1's, the LRU one.
        first = pipeline.prepare(inputs, banks[0]).prebuilt
        pipeline.prepare(inputs, banks[2])
        assert pipeline.prepare(inputs, banks[2]).prebuilt is not None
        assert cache.table_bytes == 2 * size
        assert pipeline.prepare(inputs, banks[0]).prebuilt is first
        assert pipeline.prepare(inputs, banks[1]).prebuilt is None
        # A table larger than the whole budget is never built.
        monkeypatch.setattr(gemm_mod, "ROW_TABLE_CACHE_BYTES", size - 1)
        pipeline, cache, inputs, filters = self._setup()
        for _ in range(3):
            assert pipeline.prepare(inputs, filters).prebuilt is None
        assert cache.table_bytes == 0

    def test_runs_match_approx_conv2d_bit_for_bit(self, monkeypatch):
        """Runs on a cached row table match a cold pipeline."""
        calls = []
        rowgather = gemm_mod.KERNELS["rowgather"]

        def spy(patches, filters, *args, **kwargs):
            calls.append(isinstance(filters, gemm_mod.RowTable))
            return rowgather(patches, filters, *args, **kwargs)

        pipeline, cache, inputs, filters = self._setup()
        expected = _cold_pipeline().run(
            inputs, filters, "mul8s_mitchell", strides=(2, 2)).output
        monkeypatch.setitem(gemm_mod.KERNELS, "rowgather", spy)
        for _ in range(3):
            out = pipeline.run(inputs, filters, strides=(2, 2)).output
            np.testing.assert_array_equal(out, expected)
        # The first run builds W per call; the second builds the table.
        assert calls == [False, True, True]
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_clear_and_invalidate_drop_tables_and_digests(self):
        pipeline, cache, inputs, filters = self._setup()
        for _ in range(2):
            pipeline.prepare(inputs, filters)
        assert cache.table_bytes > 0
        cache.clear()
        assert cache.table_bytes == 0
        for _ in range(2):
            pipeline.prepare(inputs, filters)
        assert cache.table_bytes > 0
        assert cache.invalidate(FilterBankCache.content_digest(filters)) == 1
        assert cache.table_bytes == 0
        # The next call is a first use again.
        assert pipeline.prepare(inputs, filters).prebuilt is None

    def test_evicted_bank_drops_its_tables(self):
        cache = FilterBankCache(max_entries=1)
        pipeline = InferencePipeline("numpy", multiplier="mul8s_mitchell",
                                     filter_cache=cache)
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(1, 6, 6, 2))
        filters = rng.normal(size=(3, 3, 2, 4))
        for _ in range(2):
            pipeline.prepare(inputs, filters)
        assert cache.table_bytes > 0
        pipeline.prepare(inputs, filters + 1.0)
        assert cache.stats.evictions == 1 and cache.table_bytes == 0


def test_every_resolve_hashes_its_filters(monkeypatch):
    calls = []
    digest = FilterBankCache.content_digest

    def spy(filters):
        calls.append(filters)
        return digest(filters)

    monkeypatch.setattr(FilterBankCache, "content_digest", staticmethod(spy))
    pipeline = InferencePipeline("numpy", multiplier="mul8s_mitchell",
                                 filter_cache=FilterBankCache())
    inputs = np.ones((1, 4, 4, 1))
    owner = np.random.default_rng(2).normal(size=(3, 3, 1, 2))
    # A read-only view of a writeable owner, and an array over immutable
    # bytes, are hashed on every call too.
    view = owner.view()
    view.setflags(write=False)
    for filters in (owner, view, _read_only(owner)):
        for _ in range(2):
            pipeline.run(inputs, filters)
    assert len(calls) == 6


class TestDigestShortcut:
    """Every resolve hashes its filters, so no change to them goes unseen."""

    def test_a_changed_owner_is_never_served_stale(self):
        cache = FilterBankCache()
        pipeline = InferencePipeline("numpy", multiplier="mul8s_mitchell",
                                     filter_cache=cache)
        inputs = np.random.default_rng(4).normal(size=(1, 5, 5, 1))
        owner = np.random.default_rng(5).normal(size=(3, 3, 1, 2))
        view = owner.view()
        view.setflags(write=False)
        pipeline.run(inputs, view)
        owner *= 2.0
        np.testing.assert_array_equal(
            pipeline.run(inputs, view).output,
            _cold_pipeline().run(inputs, owner, "mul8s_mitchell").output)
        assert cache.stats.misses == 2

    def test_an_unfrozen_owner_is_never_served_stale(self, monkeypatch):
        inputs = np.random.default_rng(6).normal(size=(1, 5, 5, 1))
        owner = np.random.default_rng(7).normal(size=(3, 3, 1, 2))
        expected = _cold_pipeline().run(
            inputs, owner * 2.0, "mul8s_mitchell").output
        calls = []
        digest = FilterBankCache.content_digest

        def spy(filters):
            calls.append(filters)
            return digest(filters)

        monkeypatch.setattr(FilterBankCache, "content_digest",
                            staticmethod(spy))
        cache = FilterBankCache()
        pipeline = InferencePipeline("numpy", multiplier="mul8s_mitchell",
                                     filter_cache=cache)
        owner.flags.writeable = False
        pipeline.run(inputs, owner)
        # An array that owns its memory can be made writeable again.
        owner.flags.writeable = True
        owner *= 2.0
        owner.flags.writeable = False
        np.testing.assert_array_equal(pipeline.run(inputs, owner).output,
                                      expected)
        assert cache.stats.misses == 2 and len(calls) == 2


class TestSharedPipeline:
    """The process-wide memoised pipeline handle (serving-era API)."""

    def test_same_configuration_shares_one_instance(self):
        from repro.backends import shared_pipeline

        first = shared_pipeline("numpy")
        second = shared_pipeline("numpy")
        other = shared_pipeline("gpusim")
        assert first is second
        assert first is not other
        assert first.backend == "numpy" and other.backend == "gpusim"

    def test_emulate_conv2d_routes_through_the_shared_handle(self):
        from repro.backends import emulate_conv2d, shared_pipeline
        from repro.backends.pipeline import _SHARED_PIPELINES

        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(2, 6, 6, 2))
        filters = rng.normal(size=(3, 3, 2, 4))
        emulate_conv2d(inputs, filters, "mul8s_exact")
        count = len(_SHARED_PIPELINES)
        emulate_conv2d(inputs, filters, "mul8s_exact")
        assert len(_SHARED_PIPELINES) == count  # memoised, not re-created
        handle = shared_pipeline("numpy")
        assert handle.multiplier is None  # callers never see a default

    def test_concurrent_runs_on_one_handle_are_identical(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.backends import shared_pipeline

        pipeline = shared_pipeline("numpy")
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(4, 8, 8, 2))
        filters = rng.normal(size=(3, 3, 2, 4))
        reference = pipeline.run(inputs, filters, "mul8s_mitchell").output
        with ThreadPoolExecutor(max_workers=4) as pool:
            outputs = list(pool.map(
                lambda _: pipeline.run(
                    inputs, filters, "mul8s_mitchell").output,
                range(8)))
        for output in outputs:
            assert np.array_equal(output, reference)
