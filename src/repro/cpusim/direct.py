"""CPU baseline: the ALWANN-style direct emulation and its timing model.

The paper compares its GPU emulator against the CPU implementation of [12]
(ALWANN), which evaluates the approximate convolution with a system of nested
loops and one LUT access per multiplication.  Two things are provided here:

* :class:`CPUTimingModel` -- the analytical model producing the CPU columns
  of Table I and the CPU half of Fig. 2 (calibrated against a Xeon
  E5-2620-class machine);
* :func:`run_direct_reference` -- a thin wrapper over the functional direct
  engine (:func:`repro.conv.reference.approx_conv2d_direct`) so small-scale
  functional cross-checks go through the same entry point the timing model
  describes.
"""

from __future__ import annotations

from .. import xp
from ..errors import ConfigurationError
from ..gpusim.timing import PhaseTimes
from ..hwspec import CPUSpec, XEON_E5_2620
from ..lut.table import LookupTable
from ..quantization.affine import QuantParams
from ..workload import ConvWorkload, total_workload


class CPUTimingModel:
    """Analytical performance model of the CPU emulation baseline.

    Parameters
    ----------
    spec:
        CPU description (defaults to the paper's Xeon E5-2620).
    float_efficiency:
        Fraction of the vector FMA peak achieved by the accurate float
        convolution (optimised BLAS-backed path).
    quant_elements_per_second:
        Throughput of the scalar quantisation / range scanning code.
    remaining_seconds_per_mac:
        Per-MAC cost of everything in the direct loop that is not the LUT
        access itself: loop/index arithmetic, accumulation and the Eq. 4
        correction.  This is the dominant term of the CPU emulation, which is
        why Fig. 2 attributes ~64 % of the CPU time to "remaining".
    """

    def __init__(self, spec: CPUSpec = XEON_E5_2620, *,
                 float_efficiency: float = 0.95,
                 quant_elements_per_second: float = 9.0e7,
                 remaining_seconds_per_mac: float = 1.64e-9) -> None:
        if not 0.0 < float_efficiency <= 1.0:
            raise ConfigurationError("float_efficiency must lie in (0, 1]")
        if quant_elements_per_second <= 0 or remaining_seconds_per_mac <= 0:
            raise ConfigurationError("throughput coefficients must be positive")
        self.spec = spec
        self.float_efficiency = float_efficiency
        self.quant_elements_per_second = quant_elements_per_second
        self.remaining_seconds_per_mac = remaining_seconds_per_mac

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


def run_direct_reference(inputs: xp.ndarray, filters: xp.ndarray,
                         lut: LookupTable, input_q: QuantParams,
                         filter_q: QuantParams, *, strides=(1, 1),
                         dilations=(1, 1), padding: str = "SAME") -> xp.ndarray:
    """Run the functional direct-loop engine (small tensors only).

    This is the algorithm whose performance the :class:`CPUTimingModel`
    describes.  It routes through the ``cpusim`` backend of
    :mod:`repro.backends`, so the filter bank is quantised by the
    same shared :func:`repro.conv.approx_conv2d.prepare_conv2d` path every
    other engine uses (the explicit ``input_q``/``filter_q`` coefficients
    are forwarded unchanged).
    """
    # Imported here: repro.backends builds on the conv/gpusim layers, so the
    # low-level cpusim module must not import it at module scope.
    from ..backends.registry import get_backend
    from ..conv.approx_conv2d import prepare_conv2d

    prepared = prepare_conv2d(
        inputs, filters, lut,
        qrange=input_q.qrange, round_mode=input_q.round_mode,
        input_params=input_q, filter_params=filter_q,
    )
    result = get_backend("cpusim").run_chunk(
        inputs, prepared,
        strides=strides, dilations=dilations, padding=padding,
    )
    return result.output
