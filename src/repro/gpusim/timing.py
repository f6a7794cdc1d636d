"""Analytical GPU timing model.

The model converts a set of convolution workloads into the ``t_init`` +
``t_comp`` times that Table I reports and into the phase breakdown of Fig. 2
(initialisation, quantisation, LUT lookups, remaining computation).  The
throughput constants are taken from :class:`repro.hwspec.GPUSpec` (GTX
1080-like) and from three calibration coefficients documented below; they
were fitted so that the generated table reproduces the *shape* of the paper's
results (times linear in MACs, ~1.1 TMAC/s for the accurate cuDNN-style
convolution, ~0.3 T LUT-lookups/s for the emulated approximate convolution,
and the 26 % / 20 % / 10 % LUT/quantisation/initialisation split reported for
ResNet-62).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..conv.approx_conv2d import CHUNK_SIZE
from ..hwspec import GPUSpec, GTX_1080
from ..workload import ConvWorkload, total_workload


@dataclass(frozen=True)
class PhaseTimes:
    """Times of the four phases distinguished by Fig. 2 (in seconds)."""

    initialization: float
    quantization: float
    lut_lookups: float
    remaining: float

    @property
    def compute(self) -> float:
        """``t_comp``: everything except the initialisation."""
        return self.quantization + self.lut_lookups + self.remaining

    @property
    def total(self) -> float:
        """``t_init + t_comp``."""
        return self.initialization + self.compute

    def breakdown(self) -> dict[str, float]:
        """Fractions of the total time per phase (the Fig. 2 series)."""
        total = self.total
        if total <= 0.0:
            return {"initialization": 0.0, "quantization": 0.0,
                    "lut_lookups": 0.0, "remaining": 0.0}
        return {
            "initialization": self.initialization / total,
            "quantization": self.quantization / total,
            "lut_lookups": self.lut_lookups / total,
            "remaining": self.remaining / total,
        }


class GPUTimingModel:
    """Analytical performance model of the GPU emulation path.

    ``spec`` is the GPU description providing peak arithmetic/texture
    throughput; the three calibration coefficients are class constants.
    """

    #: Fraction of peak FMA throughput achieved by the accurate (cuDNN-like)
    #: convolution.  Calibrated to ~0.25 so a GTX 1080 sustains ~1.1 TMAC/s,
    #: matching the accurate GPU column of Table I.
    gemm_efficiency = 0.25
    #: Throughput of the quantisation/dequantisation and min/max kernels.
    quant_elements_per_second = 6.8e9
    #: Cost of the non-LUT part of the emulated convolution (im2cols, index
    #: arithmetic, accumulation, output writes) per MAC.
    remaining_seconds_per_mac = 5.1e-12

    def __init__(self, spec: GPUSpec = GTX_1080) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    @property
    def accurate_macs_per_second(self) -> float:
        """Sustained MAC throughput of the accurate float convolution."""
        return self.spec.peak_flops / 2.0 * self.gemm_efficiency

    @property
    def lut_lookups_per_second(self) -> float:
        """Sustained texture-LUT multiplication throughput."""
        return self.spec.peak_lut_lookups

    # ------------------------------------------------------------------
    def initialization_time(self, *, dataset_bytes: int = 0,
                            model_bytes: int = 0) -> float:
        """``t_init``: framework start-up plus host-to-device transfers."""
        transfer = (dataset_bytes + model_bytes) / (self.spec.host_to_device_gbs * 1e9)
        return self.spec.init_overhead_s + transfer

    def accurate_inference(self, workloads: list[ConvWorkload], images: int, *,
                           dataset_bytes: int = 0) -> PhaseTimes:
        """Time of the accurate (native ``Conv2D``) inference path."""
        totals = total_workload(workloads, images)
        compute = totals.macs / self.accurate_macs_per_second
        # The native path has no quantisation or LUT phases.
        return PhaseTimes(
            initialization=self.initialization_time(dataset_bytes=dataset_bytes),
            quantization=0.0,
            lut_lookups=0.0,
            remaining=compute,
        )

    def approximate_inference(self, workloads: list[ConvWorkload], images: int, *,
                              dataset_bytes: int = 0) -> PhaseTimes:
        """Time of the approximate (``AxConv2D``) inference path."""
        totals = total_workload(workloads, images)
        lut_time = totals.macs / self.lut_lookups_per_second
        quant_time = totals.quantization_elements / self.quant_elements_per_second
        remaining = totals.macs * self.remaining_seconds_per_mac
        # Kernel-launch overhead: one Im2Cols + one GEMM launch per layer and
        # per chunk of images.
        chunks = -(-images // CHUNK_SIZE)
        launches = 2 * totals.layers * chunks
        remaining += launches * self.spec.kernel_launch_overhead_us * 1e-6
        # Patch-matrix traffic (written by Im2Cols, re-read by the GEMM).
        remaining += 2 * totals.patch_matrix_bytes / (self.spec.memory_bandwidth_gbs * 1e9)
        return PhaseTimes(
            initialization=self.initialization_time(dataset_bytes=dataset_bytes),
            quantization=quant_time,
            lut_lookups=lut_time,
            remaining=remaining,
        )
