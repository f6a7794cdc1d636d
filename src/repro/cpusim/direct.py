"""CPU baseline: the timing model of the ALWANN-style direct emulation.

The paper compares its GPU emulator against the CPU implementation of [12]
(ALWANN), which evaluates the approximate convolution with a system of nested
loops and one LUT access per multiplication.  :class:`CPUTimingModel` is the
analytical model producing the CPU columns of Table I and the CPU half of
Fig. 2 (calibrated against a Xeon E5-2620-class machine).  The algorithm it
describes is :func:`repro.conv.reference.approx_conv2d_direct`; the
``cpusim`` backend of :mod:`repro.backends` runs it per chunk.
"""

from __future__ import annotations

from ..gpusim.timing import PhaseTimes
from ..hwspec import CPUSpec, XEON_E5_2620
from ..workload import ConvWorkload, total_workload


class CPUTimingModel:
    """Analytical performance model of the CPU emulation baseline.

    ``spec`` is the CPU description (defaults to the paper's Xeon
    E5-2620); the three calibration coefficients are class constants.
    """

    #: Fraction of the vector FMA peak achieved by the accurate float
    #: convolution (optimised BLAS-backed path).
    float_efficiency = 0.95
    #: Throughput of the scalar quantisation / range scanning code.
    quant_elements_per_second = 9.0e7
    #: Per-MAC cost of everything in the direct loop that is not the LUT
    #: access itself: loop/index arithmetic, accumulation and the Eq. 4
    #: correction.  This is the dominant term of the CPU emulation, which is
    #: why Fig. 2 attributes ~64 % of the CPU time to "remaining".
    remaining_seconds_per_mac = 1.64e-9

    def __init__(self, spec: CPUSpec = XEON_E5_2620) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    @property
    def accurate_macs_per_second(self) -> float:
        """Sustained MAC throughput of the accurate float convolution."""
        return self.spec.peak_flops / 2.0 * self.float_efficiency

    @property
    def lut_lookups_per_second(self) -> float:
        """Sustained emulated LUT multiplication throughput."""
        return self.spec.peak_lut_lookups

    # ------------------------------------------------------------------
    def initialization_time(self) -> float:
        """``t_init`` of the CPU runs (thread pools, graph set-up)."""
        return self.spec.init_overhead_s

    def accurate_inference(self, workloads: list[ConvWorkload],
                           images: int) -> PhaseTimes:
        """Time of the accurate (native float) inference path."""
        totals = total_workload(workloads, images)
        compute = totals.macs / self.accurate_macs_per_second
        return PhaseTimes(
            initialization=self.initialization_time(),
            quantization=0.0,
            lut_lookups=0.0,
            remaining=compute,
        )

    def approximate_inference(self, workloads: list[ConvWorkload],
                              images: int) -> PhaseTimes:
        """Time of the approximate (direct-loop, LUT-based) inference path."""
        totals = total_workload(workloads, images)
        lut_time = totals.macs / self.lut_lookups_per_second
        quant_time = totals.quantization_elements / self.quant_elements_per_second
        remaining = totals.macs * self.remaining_seconds_per_mac
        return PhaseTimes(
            initialization=self.initialization_time(),
            quantization=quant_time,
            lut_lookups=lut_time,
            remaining=remaining,
        )
