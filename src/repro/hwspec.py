"""Hardware descriptions used by the CPU and GPU timing models.

The paper evaluates TFApprox on an Intel Xeon E5-2620 CPU and an NVIDIA
GTX 1080 GPU.  Neither device is available here, so the timing models in
:mod:`repro.cpusim` and :mod:`repro.gpusim` are *analytical*: they charge a
cost per arithmetic operation, per emulated LUT lookup, per byte moved and per
kernel launch, using the figures collected in this module.  The constants were
calibrated so that the generated Table I reproduces the shape reported in the
paper (growth linear in MACs, roughly 200x GPU-vs-CPU speed-up for the
approximate layers of ResNet-62, initialization of about two seconds on the
GPU and a fraction of a second on the CPU).

The dataclasses are deliberately plain so users can describe their own devices
and re-run the benchmark harness against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError

#: Highest CPU or GPU clock, in GHz, that the specs' ``__post_init__``
#: accepts; a faster clock is taken for a configuration error.
_MAX_REASONABLE_FREQ_GHZ = 10.0


@dataclass(frozen=True)
class CPUSpec:
    """Description of a CPU used by the analytical timing model.

    Attributes
    ----------
    name:
        Human readable device name.
    cores:
        Physical cores used by the emulation (the paper's baseline is a
        single-socket Xeon E5-2620, six cores).
    frequency_ghz:
        Sustained clock of the cores.
    flops_per_cycle_per_core:
        Fused multiply-add throughput per core and cycle for the *accurate*
        (vectorised float) convolution path.
    lut_lookups_per_cycle_per_core:
        Throughput of emulated approximate multiplications.  Emulating one
        8x8-bit LUT multiplication on a CPU requires address arithmetic, a
        table load that rarely hits L1 and the dequantisation bookkeeping,
        which is why the paper observes a slow-down of two to three orders of
        magnitude compared to native float arithmetic.
    memory_bandwidth_gbs:
        Sustained DRAM bandwidth.
    init_overhead_s:
        Fixed framework initialisation charged once per run (thread pools,
        graph construction); Table I reports ~0.2-0.3 s on the CPU.
    """

    name: str = "Intel Xeon E5-2620"
    cores: int = 6
    frequency_ghz: float = 2.1
    flops_per_cycle_per_core: float = 8.0
    lut_lookups_per_cycle_per_core: float = 0.11
    memory_bandwidth_gbs: float = 42.6
    init_overhead_s: float = 0.25

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("CPU must have at least one core")
        if not 0.0 < self.frequency_ghz <= _MAX_REASONABLE_FREQ_GHZ:
            raise ConfigurationError(
                f"CPU frequency {self.frequency_ghz} GHz is outside (0, "
                f"{_MAX_REASONABLE_FREQ_GHZ}]"
            )
        if self.flops_per_cycle_per_core <= 0:
            raise ConfigurationError("flops_per_cycle_per_core must be positive")
        if self.lut_lookups_per_cycle_per_core <= 0:
            raise ConfigurationError("lut_lookups_per_cycle_per_core must be positive")
        if self.memory_bandwidth_gbs <= 0:
            raise ConfigurationError("memory bandwidth must be positive")
        if self.init_overhead_s < 0:
            raise ConfigurationError("init overhead cannot be negative")

    @property
    def peak_flops(self) -> float:
        """Peak float operations per second of the whole CPU."""
        return self.cores * self.frequency_ghz * 1e9 * self.flops_per_cycle_per_core

    @property
    def peak_lut_lookups(self) -> float:
        """Peak emulated LUT multiplications per second of the whole CPU."""
        return (
            self.cores
            * self.frequency_ghz
            * 1e9
            * self.lut_lookups_per_cycle_per_core
        )


@dataclass(frozen=True)
class GPUSpec:
    """Description of a CUDA-capable GPU used by the analytical timing model.

    The defaults approximate an NVIDIA GTX 1080 (Pascal, GP104): 20 SMs at
    roughly 1.7 GHz, 320 GB/s of GDDR5X bandwidth and a dedicated L1/texture
    cache per SM.  The approximate-multiplication throughput models one
    texture fetch plus accumulator update per MAC; the texture cache makes the
    128 kB LUT effectively resident, which is the key observation of the
    paper.
    """

    name: str = "NVIDIA GTX 1080"
    sm_count: int = 20
    frequency_ghz: float = 1.733
    cuda_cores_per_sm: int = 128
    flops_per_cycle_per_core: float = 2.0
    lut_lookups_per_cycle_per_sm: float = 9.5
    memory_bandwidth_gbs: float = 320.0
    texture_cache_kb_per_sm: int = 48
    shared_memory_kb_per_sm: int = 96
    max_threads_per_block: int = 1024
    warp_size: int = 32
    init_overhead_s: float = 1.8
    kernel_launch_overhead_us: float = 6.0
    host_to_device_gbs: float = 11.0

    def __post_init__(self) -> None:
        if self.sm_count <= 0:
            raise ConfigurationError("GPU must have at least one SM")
        if not 0.0 < self.frequency_ghz <= _MAX_REASONABLE_FREQ_GHZ:
            raise ConfigurationError("GPU frequency out of range")
        if self.cuda_cores_per_sm <= 0:
            raise ConfigurationError("cuda_cores_per_sm must be positive")
        if self.lut_lookups_per_cycle_per_sm <= 0:
            raise ConfigurationError("lut_lookups_per_cycle_per_sm must be positive")
        if self.memory_bandwidth_gbs <= 0 or self.host_to_device_gbs <= 0:
            raise ConfigurationError("memory bandwidths must be positive")
        if self.warp_size <= 0 or self.max_threads_per_block % self.warp_size:
            raise ConfigurationError(
                "max_threads_per_block must be a positive multiple of warp_size"
            )
        if self.init_overhead_s < 0 or self.kernel_launch_overhead_us < 0:
            raise ConfigurationError("overheads cannot be negative")

    @property
    def peak_flops(self) -> float:
        """Peak float operations per second of the whole GPU."""
        return (
            self.sm_count
            * self.cuda_cores_per_sm
            * self.frequency_ghz
            * 1e9
            * self.flops_per_cycle_per_core
        )

    @property
    def peak_lut_lookups(self) -> float:
        """Peak texture-LUT multiplications per second of the whole GPU."""
        return (
            self.sm_count * self.frequency_ghz * 1e9 * self.lut_lookups_per_cycle_per_sm
        )


@dataclass(frozen=True)
class SystemSpec:
    """A host/device pair used by the evaluation harness."""

    cpu: CPUSpec = field(default_factory=CPUSpec)
    gpu: GPUSpec = field(default_factory=GPUSpec)

    def describe(self) -> str:
        """Return a one-line description used in reports."""
        return f"{self.cpu.name} + {self.gpu.name}"


#: The system used throughout the paper's evaluation (Section IV).
PAPER_SYSTEM = SystemSpec()

#: Default CPU specification (Xeon E5-2620-like).
XEON_E5_2620 = PAPER_SYSTEM.cpu

#: Default GPU specification (GTX 1080-like).
GTX_1080 = PAPER_SYSTEM.gpu
