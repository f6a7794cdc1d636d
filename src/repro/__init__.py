"""TFApprox reproduction: fast emulation of DNN approximate hardware accelerators.

This package reproduces the system described in "TFApprox: Towards a Fast
Emulation of DNN Approximate Hardware Accelerators on GPU" (DATE 2020) as a
self-contained Python library:

* :mod:`repro.multipliers` -- behavioural models and truth tables of
  approximate 8-bit multipliers;
* :mod:`repro.lut` -- the lookup-table / texture-memory emulation of those
  multipliers;
* :mod:`repro.quantization` -- the affine quantisation scheme of Eq. 1;
* :mod:`repro.conv` -- the approximate convolution engines (direct loop and
  the GEMM-based Algorithm 1);
* :mod:`repro.graph` -- a small dataflow-graph framework plus the Fig. 1
  transformation replacing ``Conv2D`` with ``AxConv2D``;
* :mod:`repro.gpusim` / :mod:`repro.cpusim` -- simulated GPU/CPU devices and
  the analytical timing models behind Table I and Fig. 2;
* :mod:`repro.models`, :mod:`repro.datasets`, :mod:`repro.evaluation` -- the
  CIFAR ResNets, a synthetic CIFAR-10 stand-in and the experiment harness;
* :mod:`repro.train` -- approximate-aware training: the STE backward pass,
  the SGD optimiser and the fine-tuning loop;
* :mod:`repro.dse` -- layer-wise multiplier design-space exploration: search
  strategies, Pareto-front bookkeeping and the budgeted evaluation engine;
* :mod:`repro.serve` -- the micro-batching emulation service: work-conserving
  request coalescing, config-keyed admission and offline trace replay.
"""

from . import (
    backends,
    conv,
    cpusim,
    datasets,
    dse,
    evaluation,
    graph,
    gpusim,
    lut,
    models,
    multipliers,
    quantization,
    serve,
    train,
)
from .backends import InferencePipeline, RunReport, emulate_conv2d
from .errors import TFApproxError
from .hwspec import CPUSpec, GPUSpec, GTX_1080, PAPER_SYSTEM, SystemSpec, XEON_E5_2620
from .workload import ConvWorkload, WorkloadTotals, total_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TFApproxError",
    "InferencePipeline",
    "RunReport",
    "emulate_conv2d",
    "backends",
    "CPUSpec",
    "GPUSpec",
    "SystemSpec",
    "GTX_1080",
    "XEON_E5_2620",
    "PAPER_SYSTEM",
    "ConvWorkload",
    "WorkloadTotals",
    "total_workload",
    "multipliers",
    "lut",
    "quantization",
    "conv",
    "graph",
    "gpusim",
    "cpusim",
    "models",
    "datasets",
    "evaluation",
    "train",
    "dse",
    "serve",
]
