"""Micro-benchmarks of the emulation hot paths.

These do not correspond to a specific paper artefact; they document where the
pure-Python emulation spends its time (quantisation, im2col, LUT GEMM) so the
Fig. 2 style attribution of the *host* implementation can be sanity-checked
against the analytical models.

The LUT-GEMM section follows tinygrad's benchmark discipline
(``speed_v_theoretical``): each kernel's achieved MACs/s is asserted against
a *stated roofline* measured on this host.  The gather kernels are bound by
the bytes their NumPy passes move, so their roofline is the host's measured
copy bandwidth divided by the bytes each moves per emulated MAC
(:func:`bytes_per_mac` states them); every intermediate is cache-sized by
design, so the bandwidth is a STREAM-style copy of a cache-resident buffer
(a memory-sized copy is recorded beside it).  ``factored`` is bound by
BLAS, so its roofline is a bare float64 GEMM of the same ``[P, r*K] x [r*K,
F]`` shape, at ``r`` multiply-adds per emulated MAC.  The JSON artefact
records the bandwidths, each kernel's bytes per MAC, roofline, absolute
MACs/s and fraction of its roofline, plus the rowgather-vs-naive speedup
(>= 1.5x, asserted here and archived by CI).

The naive kernel is the seed's one-gather-per-product reference, kept in
``tests/lut_gemm_reference.py``; it is timed here but is not one of the
kernels ``lut_matmul`` dispatches to.  The two kernels are timed by calling
their functions directly (``rowgather`` with its per-call ``W`` build and
depth split, and on a prebuilt row table as ``rowgather_cached``), without
``lut_matmul``'s operand validation.

It also archives ``rowgather``'s MACs/s on the ResNet-20 stage shapes of a
batch-32 forward pass and on one single-sample serve shape.  Those calls
take the operands the pipeline passes: the narrow int8 patch matrix
``im2col_quantized`` emits and the int64 quantised filter bank.  The
``im2col_quantized`` time of each stage's batch-32 input is archived too.

A filter bank used again keeps its whole-depth ``rowgather`` table
(:class:`~repro.conv.gemm.RowTable`).  At the three ``mul8s_mitchell``
calls of a single-sample ``serve_cnn16_open`` request the cached-table path
is timed against per-call ``rowgather`` -- what those calls run without a
table -- and must beat it; its MACs/s, the table's bytes and its one-off
build time are archived.

``factored`` is timed on rank-1/2/3 tables at the same shapes against
``rowgather``, the kernel the table would take without factors, on the
same call, and must match it bit for bit and not lose to it.  For every
library table the JSON
records the rank of its exact factors (``null`` above 3, beside the float
SVD rank), their denominator ``d`` and the kernel ``lut_matmul`` chooses
for a serve call (P=16) and a batch-32 stage-2 call (P=8192).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.conv import im2col_quantized, lut_matmul
from repro.conv.gemm import (
    RowTable,
    choose_gemm_kernel,
    lut_matmul_factored,
    lut_matmul_rowgather,
)
from repro.lut import LookupTable
from repro.multipliers import library
from repro.quantization import compute_coeffs_from_tensor

from lut_gemm_reference import lut_matmul_naive

#: Bench shape: one im2col'd 3x3x16 layer chunk against 64 filters.
BENCH_P, BENCH_K, BENCH_F = 1024, 144, 64

#: Minimum fraction of its roofline each kernel must reach on the bench
#: shape.  Observed on a 2-vCPU host with a 60 GB/s cache-resident copy:
#: naive ~0.06, rowgather ~0.07 and cached-table rowgather ~0.14 of the
#: copy-bandwidth roofline, factored ~0.2 of a bare GEMM.
#: The gathers are bound by latency more than bandwidth, hence the low
#: fractions.  The floors sit about 4x lower, to stay robust on noisy
#: shared runners while still catching order-of-magnitude regressions.
ROOFLINE_FLOORS = {"naive": 0.015, "rowgather": 0.02,
                   "rowgather_cached": 0.03, "factored": 0.05}

#: Asserted on every run: median rowgather MACs/s on the bench shape must
#: be at least this multiple of the naive kernel's.
MIN_ROWGATHER_SPEEDUP = 1.5

#: (P, K, F) of the ResNet-20 stage convolutions at batch 32 and one
#: single-sample serve call (P=16).
STAGE_SHAPES = {
    "stage1": (32768, 144, 16),
    "stage2": (8192, 288, 32),
    "stage3": (2048, 576, 64),
}
SERVE_SHAPE = (16, 288, 64)

#: NHWC input of each stage's 3x3 convolutions at batch 32, whose patch
#: matrix has the P and K of :data:`STAGE_SHAPES`.
STAGE_INPUTS = {
    "stage1": (32, 32, 32, 16),
    "stage2": (32, 16, 16, 32),
    "stage3": (32, 8, 8, 64),
}

#: (P, K, F) of the three ``mul8s_mitchell`` conv calls of one
#: single-sample ``simple_cnn`` 16x16 request, all short calls that earn
#: their filter banks a cached row table.
SERVE_MITCHELL_SHAPES = {
    "conv1": (256, 27, 16),
    "conv2": (64, 144, 32),
    "conv3": (16, 288, 64),
}

#: The LUT-GEMM kernels timed here, by the name their JSON keys carry.
TIMED_KERNELS = {"factored": lut_matmul_factored,
                 "rowgather": lut_matmul_rowgather}

#: One library table per factor rank the factored kernel serves.
FACTORED_TABLES = {1: "mul8s_trunc2", 2: "mul8s_udm", 3: "mul8u_bam_h2v4"}

#: Required median factored speed-up over ``rowgather`` on every stage and
#: serve shape: ``lut_matmul`` takes ``factored`` whenever the table has
#: factors, so it must never lose.
MIN_FACTORED_SPEEDUP = 1.0


@pytest.fixture(scope="module")
def activations():
    rng = np.random.default_rng(5)
    return rng.normal(size=(8, 32, 32, 16))


@pytest.fixture(scope="module")
def gemm_case():
    rng = np.random.default_rng(9)
    patches = rng.integers(-128, 128, size=(BENCH_P, BENCH_K))
    weights = rng.integers(-128, 128, size=(BENCH_K, BENCH_F))
    return patches, weights


def _median_seconds(fn, *args, repeats=7, **kwargs):
    """Median wall time of ``fn`` after one untimed warmup call."""
    fn(*args, **kwargs)
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


@pytest.mark.benchmark(group="micro")
def test_quantize_batch(benchmark, activations):
    params = compute_coeffs_from_tensor(activations)
    out = benchmark(params.quantize, activations)
    assert out.min() >= -128 and out.max() <= 127


@pytest.mark.benchmark(group="micro")
def test_dequantize_batch(benchmark, activations):
    params = compute_coeffs_from_tensor(activations)
    quantized = params.quantize(activations)
    out = benchmark(params.dequantize, quantized)
    assert out.shape == activations.shape


@pytest.mark.benchmark(group="micro")
def test_im2col_quantized(benchmark, activations):
    params = compute_coeffs_from_tensor(activations)
    patches, sums, _ = benchmark(im2col_quantized, activations, 3, 3, params)
    assert patches.shape[1] == 9 * 16
    assert sums.shape[0] == patches.shape[0]


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("kernel", ["naive", *sorted(TIMED_KERNELS)])
def test_lut_gemm(benchmark, exact_lut, gemm_case, kernel):
    patches, weights = gemm_case
    if kernel == "naive":
        acc = benchmark(lut_matmul_naive, patches, weights, exact_lut)
    else:
        acc = benchmark(TIMED_KERNELS[kernel], patches, weights, exact_lut)
    assert acc.shape == (BENCH_P, BENCH_F)


def _paired_median_seconds(lut, shape, kernels, repeats=5):
    """Median wall time of each kernel on one (P, K, F) GEMM through ``lut``.

    ``rowgather_cached`` names ``rowgather`` on a prebuilt
    :class:`~repro.conv.gemm.RowTable` of the same filters.  The kernels
    are timed in alternation so host drift over the run hits
    them alike and the speed-up between them stays meaningful.  Every
    kernel's result must equal the first kernel's.
    """
    rng = np.random.default_rng(sum(shape))
    p, k, f = shape
    lo, hi = lut.operand_min, lut.operand_max + 1
    patches = rng.integers(lo, hi, size=(p, k),
                           dtype=np.int8 if lut.signed else np.uint8)
    weights = rng.integers(lo, hi, size=(k, f))
    table = RowTable(weights, lut) if "rowgather_cached" in kernels else None

    def call(kernel):
        if kernel == "rowgather_cached":
            return lut_matmul_rowgather(patches, table, lut)
        return TIMED_KERNELS[kernel](patches, weights, lut)

    timings = {kernel: [] for kernel in kernels}
    first = call(kernels[0])
    for kernel in kernels:                                  # warm-up
        np.testing.assert_array_equal(call(kernel), first)
    for _ in range(repeats):
        for kernel in kernels:
            start = time.perf_counter()
            call(kernel)
            timings[kernel].append(time.perf_counter() - start)
    return {kernel: statistics.median(t) for kernel, t in timings.items()}


def bytes_per_mac(kernel: str, shape, patch_itemsize: int,
                  bit_width: int = 8) -> float:
    """Bytes a gather kernel's NumPy passes stream per emulated MAC.

    Reads and writes of every ``P * K * F``-sized stream count; the patch
    matrix (read once per ``F`` MACs) is amortised and the table itself is
    cache-resident.

    * ``naive``: int64 stitched index written and read (16), int64 product
      written and read (16).
    * ``rowgather_cached``: one int16 ``W`` entry read per MAC, written
      into a slab and read back by the sum (6).
    * ``rowgather``: the same, plus building ``W`` per call -- ``2**n * K *
      F`` int16 entries gathered, then transposed into place (6 bytes
      each), or ``6 * 2**n / P`` per MAC.
    """
    p, _, f = shape
    operand = patch_itemsize / f
    streams = {"naive": 32.0, "rowgather_cached": 6.0,
               "rowgather": 6.0 + 6.0 * (1 << bit_width) / p}
    return streams[kernel] + operand


def _copy_bandwidth_bytes_per_s(nbytes: int, repeats: int = 7) -> float:
    """STREAM-style copy bandwidth (bytes read + written per second).

    Like STREAM, it takes the best of ``repeats`` timings: a roofline is a
    peak, and on a shared host the median wanders.
    """
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    copies = max(1, (64 << 20) // nbytes)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(copies):
            np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return 2 * nbytes * copies / best


def _gemm_flops_per_s(rows: int, inner: int, cols: int) -> float:
    """Float64 BLAS rate on one ``[rows, inner] x [inner, cols]`` product."""
    rng = np.random.default_rng(3)
    lhs = rng.normal(size=(rows, inner))
    rhs = rng.normal(size=(inner, cols))
    return 2 * rows * inner * cols / _median_seconds(np.matmul, lhs, rhs)


def test_lut_gemm_roofline(exact_lut, mitchell_lut, gemm_case, bench_json):
    """Roofline-anchored LUT-GEMM throughput (emulated MACs per second).

    Timed by hand (medians over repeats) rather than through the
    ``benchmark`` fixture so the numbers are still produced and asserted
    under ``--benchmark-disable``, which is how the CI smoke job runs.
    """
    patches, weights = gemm_case
    shape = (BENCH_P, BENCH_K, BENCH_F)
    macs = BENCH_P * BENCH_K * BENCH_F
    cache_bandwidth = _copy_bandwidth_bytes_per_s(256 << 10)
    rank = exact_lut.factors.rank
    blas_macs_per_s = _gemm_flops_per_s(
        BENCH_P, rank * BENCH_K, BENCH_F) / (2 * rank)

    payload = {
        "lut_gemm_macs": macs,
        "copy_bandwidth_cache_bytes_per_s": cache_bandwidth,
        "copy_bandwidth_memory_bytes_per_s":
            _copy_bandwidth_bytes_per_s(32 << 20, repeats=3),
        "factored_rank": rank,
    }
    table = RowTable(weights, exact_lut)
    runs = {
        "naive": lambda: lut_matmul_naive(patches, weights, exact_lut),
        **{kernel: (lambda run=run: run(patches, weights, exact_lut))
           for kernel, run in sorted(TIMED_KERNELS.items())},
        "rowgather_cached": lambda: lut_matmul_rowgather(patches, table,
                                                         exact_lut),
    }
    achieved, fractions = {}, {}
    for kernel, run in runs.items():
        median = _median_seconds(run)
        achieved[kernel] = macs / median
        if kernel == "factored":
            roofline = blas_macs_per_s
        else:
            payload[f"{kernel}_bytes_per_mac"] = bytes_per_mac(
                kernel, shape, patches.itemsize)
            roofline = cache_bandwidth / payload[f"{kernel}_bytes_per_mac"]
        fractions[kernel] = achieved[kernel] / roofline
        payload[f"{kernel}_median_seconds"] = median
        payload[f"{kernel}_macs_per_s"] = achieved[kernel]
        payload[f"{kernel}_roofline_macs_per_s"] = roofline
        payload[f"{kernel}_roofline_fraction"] = fractions[kernel]

    speedup = achieved["rowgather"] / achieved["naive"]
    payload["rowgather_vs_naive_speedup"] = speedup
    # Trajectory keys earlier PRs archived, continued by whatever kernel the
    # default dispatch picks for the bench shape.
    default_median = _median_seconds(lut_matmul, patches, weights, exact_lut)
    payload["lut_gemm_macs_per_s"] = macs / default_median
    payload["lut_gemm_median_seconds"] = default_median

    for label, shape in {**STAGE_SHAPES, "serve": SERVE_SHAPE}.items():
        times = _paired_median_seconds(mitchell_lut, shape, ("rowgather",))
        payload[f"{label}_rowgather_macs_per_s"] = \
            np.prod(shape) / times["rowgather"]
    cached_speedups = {}
    for label, shape in SERVE_MITCHELL_SHAPES.items():
        times = _paired_median_seconds(mitchell_lut, shape,
                                       ("rowgather", "rowgather_cached"))
        cached_speedups[label] = times["rowgather"] / times["rowgather_cached"]
        filters = np.random.default_rng(shape[1]).integers(
            -128, 128, size=shape[1:])
        key = f"serve_{label}"
        payload[f"{key}_rowgather_cached_vs_rowgather_speedup"] = \
            cached_speedups[label]
        payload[f"{key}_rowgather_cached_macs_per_s"] = \
            np.prod(shape) / times["rowgather_cached"]
        payload[f"{key}_row_table_bytes"] = RowTable.nbytes_for(
            shape[1], shape[2], mitchell_lut)
        payload[f"{key}_row_table_build_seconds"] = _median_seconds(
            RowTable, filters, mitchell_lut, repeats=5)
    factored_speedups = {}
    for rank, name in FACTORED_TABLES.items():
        lut = LookupTable.from_multiplier(library.create(name))
        assert lut.factors is not None and lut.factors.rank == rank
        for label, shape in {**STAGE_SHAPES, "serve": SERVE_SHAPE}.items():
            assert choose_gemm_kernel(lut, shape[1]) == "factored"
            times = _paired_median_seconds(lut, shape,
                                           ("rowgather", "factored"))
            key = f"{label}_rank{rank}"
            factored_speedups[key] = times["rowgather"] / times["factored"]
            payload[f"{key}_factored_vs_rowgather_speedup"] = \
                factored_speedups[key]
            payload[f"{key}_factored_macs_per_s"] = \
                np.prod(shape) / times["factored"]
    tables = {}
    for name in library.available():
        lut = LookupTable.from_multiplier(library.create(name))
        factors = lut.factors
        tables[name] = {
            "rank": factors.rank if factors else None,
            "float_rank": int(np.linalg.matrix_rank(
                lut.dense().astype(np.float64))),
            "denominator": factors.denominator if factors else None,
            "kernel_p16": choose_gemm_kernel(lut, SERVE_SHAPE[1]),
            "kernel_p8192": choose_gemm_kernel(lut, STAGE_SHAPES["stage2"][1]),
        }
    payload["library_tables"] = tables
    for label, shape in STAGE_INPUTS.items():
        inputs = np.random.default_rng(len(label)).normal(size=shape)
        params = compute_coeffs_from_tensor(inputs)
        patches, _, _ = im2col_quantized(inputs, 3, 3, params)
        assert patches.shape == STAGE_SHAPES[label][:2]
        assert patches.dtype == np.int8
        payload[f"{label}_im2col_quantized_seconds"] = _median_seconds(
            im2col_quantized, inputs, 3, 3, params, repeats=5)
    bench_json("microkernels", payload)

    for kernel, floor in ROOFLINE_FLOORS.items():
        assert fractions[kernel] >= floor, (
            f"{kernel} kernel reached {achieved[kernel]:.3e} MACs/s = "
            f"{fractions[kernel]:.3f} of its "
            f"{payload[f'{kernel}_roofline_macs_per_s']:.3e} MACs/s "
            f"roofline (floor: {floor})"
        )
    assert speedup >= MIN_ROWGATHER_SPEEDUP, (
        f"rowgather kernel is only {speedup:.2f}x the naive kernel "
        f"(required: {MIN_ROWGATHER_SPEEDUP}x)"
    )
    for label, speedup in cached_speedups.items():
        assert speedup > 1.0, (
            f"cached-table rowgather is only {speedup:.2f}x per-call "
            f"rowgather on the serve {label} shape "
            f"{SERVE_MITCHELL_SHAPES[label]}"
        )
    for key, speedup in factored_speedups.items():
        assert speedup >= MIN_FACTORED_SPEEDUP, (
            f"factored is only {speedup:.2f}x rowgather at "
            f"{key} (required: {MIN_FACTORED_SPEEDUP}x)"
        )


@pytest.mark.benchmark(group="micro")
def test_float_gemm_reference(benchmark, gemm_case):
    """The accurate float GEMM the LUT path is compared against."""
    patches, weights = gemm_case
    out = benchmark(np.matmul,
                    patches.astype(np.float64), weights.astype(np.float64))
    assert out.shape == (BENCH_P, BENCH_F)
