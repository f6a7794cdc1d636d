"""E5 -- "The content of the LUT table ... does not have any impact on the
execution time" (Section IV).

The claim is about the paper's gather kernel, and the analytical GPU timing
model is shown to be a function of the workload only.  The wall-clock of
the functional NumPy engine is benchmarked for several very different
multipliers on the same workload.  Its gather kernel (``rowgather``)
costs the same for any table, but ``lut_matmul`` runs tables
with exact rank <= 3 factors (``mul8s_exact`` and ``mul8s_drum4`` here)
through the ``factored`` BLAS kernel, so on the host those two run faster:
there the content does change the time, by design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import emulate_conv2d
from repro.gpusim import GPUTimingModel
from repro.lut import LookupTable
from repro.models import conv_workloads_for_depth
from repro.multipliers import library

MULTIPLIERS = ["mul8s_exact", "mul8s_mitchell", "mul8s_drum4", "mul8s_noise64"]


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    inputs = rng.normal(size=(2, 16, 16, 8))
    filters = rng.normal(size=(3, 3, 8, 16))
    return inputs, filters


@pytest.mark.benchmark(group="lut-content")
@pytest.mark.parametrize("name", MULTIPLIERS)
def test_emulation_time_independent_of_lut_content(benchmark, workload, name):
    """The same convolution through different LUTs costs the same time."""
    inputs, filters = workload
    lut = LookupTable.from_multiplier(library.create(name))
    out = benchmark(emulate_conv2d, inputs, filters, lut)
    assert out.shape == (2, 16, 16, 16)


def test_timing_model_ignores_lut_content():
    """The analytical model depends only on the layer workload."""
    model = GPUTimingModel()
    workloads = conv_workloads_for_depth(20)
    reference = model.approximate_inference(workloads, 1000)
    again = model.approximate_inference(list(workloads), 1000)
    assert reference == again
    print(f"\nResNet-20, 1000 images, any LUT: t_init={reference.initialization:.2f}s "
          f"t_comp={reference.compute:.2f}s")
