"""Shared fixtures of the benchmark harness.

Run with ``pytest benchmarks/ --benchmark-only``.  Each benchmark module maps
to one experiment of DESIGN.md's experiment index (E1..E8) and prints the
rows/series the corresponding paper artefact reports, in addition to the
pytest-benchmark timing of the regeneration itself.

Headline numbers (ops/s, cache speedups, training steps/s) are additionally
written as machine-readable ``BENCH_<name>.json`` files through the
:func:`bench_json` fixture, so CI can archive them as artifacts and the
performance trajectory stays comparable across PRs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.lut import LookupTable
from repro.multipliers import library

#: Environment variable overriding where BENCH_*.json results are written.
RESULTS_DIR_ENV = "BENCH_RESULTS_DIR"

# The LUT-GEMM reference kernel the microbenchmarks time the kernels
# against lives with the tests (tests/lut_gemm_reference.py).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def bench_json():
    """Writer for machine-readable benchmark results.

    ``bench_json(name, payload)`` writes ``BENCH_<name>.json`` (the payload
    plus host metadata) into ``$BENCH_RESULTS_DIR`` -- default
    ``benchmarks/results/`` -- and returns the path.  Values should be plain
    numbers with self-describing keys (``*_per_s``, ``*_speedup``,
    ``*_seconds``) so downstream tooling needs no schema knowledge.
    """
    def write(name: str, payload: dict) -> Path:
        directory = Path(os.environ.get(
            RESULTS_DIR_ENV, str(Path(__file__).parent / "results")))
        directory.mkdir(parents=True, exist_ok=True)
        document = {
            "benchmark": name,
            "unix_time": time.time(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "results": payload,
        }
        path = directory / f"BENCH_{name}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return path

    return write


@pytest.fixture(scope="session")
def exact_lut():
    """Signed exact 8-bit LUT shared across benchmarks."""
    return LookupTable.from_multiplier(library.create("mul8s_exact"))


@pytest.fixture(scope="session")
def mitchell_lut():
    """Signed Mitchell LUT shared across benchmarks."""
    return LookupTable.from_multiplier(library.create("mul8s_mitchell"))


@pytest.fixture(scope="session")
def conv_case():
    """A mid-sized convolution case used by the engine micro-benchmarks."""
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(4, 16, 16, 8))
    filters = rng.normal(size=(3, 3, 8, 16))
    return inputs, filters
