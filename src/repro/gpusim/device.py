"""Simulated CUDA device.

The :class:`GPUDevice` couples a :class:`~repro.hwspec.GPUSpec` (the physical
description used by the timing model) with the functional state the emulated
kernels need: the LUTs bound to texture memory and :class:`DeviceCounters`,
the one record of every launch, texture fetch, atomicAdd and byte of memory
traffic.  It is *not* a cycle-accurate simulator -- the paper does not need
one; it needs a faithful functional model of the kernels plus an analytical
cost model that reproduces where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeviceError
from ..hwspec import GPUSpec, GTX_1080
from ..lut.table import LookupTable


@dataclass
class KernelLaunch:
    """Record of one simulated kernel launch."""

    name: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    shared_memory_bytes: int = 0


@dataclass
class DeviceCounters:
    """Aggregated work counters of every kernel executed on the device.

    The one record of what the simulated GPU did: the kernels charge it
    directly, and whoever owns the :class:`GPUDevice` reads it.
    """

    kernel_launches: int = 0
    global_bytes_read: int = 0
    global_bytes_written: int = 0
    shared_bytes_traffic: int = 0
    texture_fetches: int = 0
    atomic_adds: int = 0
    launches: list[KernelLaunch] = field(default_factory=list)

    def record_launch(self, launch: KernelLaunch) -> None:
        """Account for a kernel launch."""
        self.kernel_launches += 1
        self.launches.append(launch)


class GPUDevice:
    """Functional + accounting model of the CUDA device running the emulation."""

    def __init__(self, spec: GPUSpec = GTX_1080) -> None:
        self._spec = spec
        self.counters = DeviceCounters()
        self._textures: dict[str, LookupTable] = {}

    @property
    def spec(self) -> GPUSpec:
        """The physical device description."""
        return self._spec

    def bind_texture(self, lut: LookupTable) -> None:
        """Bind a multiplier LUT to texture memory.

        Binding mimics ``cudaCreateTextureObject``; the table is uploaded
        once per accelerator configuration and reused by every approximate
        convolution, so a repeated bind of the same table costs nothing.
        """
        if self._textures.get(lut.name) is lut:
            return
        self._textures[lut.name] = lut
        self.counters.global_bytes_written += lut.nbytes  # host->device upload

    # ------------------------------------------------------------------
    # Launch-geometry helpers
    # ------------------------------------------------------------------
    def launch_config_1d(self, total_threads: int, *,
                         block_size: int = 256) -> tuple[tuple[int, int, int],
                                                          tuple[int, int, int]]:
        """1D grid/block configuration covering ``total_threads`` threads."""
        if block_size <= 0 or block_size > self._spec.max_threads_per_block:
            raise DeviceError(
                f"block size {block_size} outside (0, "
                f"{self._spec.max_threads_per_block}]"
            )
        if block_size % self._spec.warp_size:
            raise DeviceError(
                f"block size {block_size} is not a multiple of the warp size "
                f"({self._spec.warp_size})"
            )
        blocks = max(1, -(-total_threads // block_size))
        return (blocks, 1, 1), (block_size, 1, 1)

    def launch_config_2d(self, rows: int, cols: int, *,
                         tile: int = 16) -> tuple[tuple[int, int, int],
                                                  tuple[int, int, int]]:
        """2D tiled grid/block configuration (used by the GEMM kernel)."""
        if tile <= 0 or tile * tile > self._spec.max_threads_per_block:
            raise DeviceError(
                f"tile size {tile} gives more threads than the device allows"
            )
        grid = (max(1, -(-cols // tile)), max(1, -(-rows // tile)), 1)
        return grid, (tile, tile, 1)

    def reset(self) -> None:
        """Clear counters and unbind textures (a fresh emulation run)."""
        self.counters = DeviceCounters()
        self._textures.clear()
