"""Workload descriptions shared by the timing models.

A :class:`ConvWorkload` captures everything the analytical CPU/GPU timing
models need to know about one convolutional layer: its geometry, the number
of multiply-accumulate operations per image and the number of tensor elements
that are quantised and dequantised around the integer GEMM.  The model
builders in :mod:`repro.models` derive these workloads from a graph via shape
inference, and the Table I / Fig. 2 harness multiplies them by the number of
processed images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conv.padding import resolve_geometry
from .errors import ShapeError


@dataclass(frozen=True)
class ConvWorkload:
    """Static description of one 2D convolution layer's work per image."""

    name: str
    input_height: int
    input_width: int
    input_channels: int
    kernel_height: int
    kernel_width: int
    output_channels: int
    stride: int = 1
    padding: str = "SAME"

    def __post_init__(self) -> None:
        if min(self.input_height, self.input_width, self.input_channels,
               self.kernel_height, self.kernel_width, self.output_channels,
               self.stride) <= 0:
            raise ShapeError(f"workload {self.name!r} has non-positive dimensions")

    # ------------------------------------------------------------------
    @property
    def output_height(self) -> int:
        """Output feature-map height."""
        return self._geometry().output_height

    @property
    def output_width(self) -> int:
        """Output feature-map width."""
        return self._geometry().output_width

    def _geometry(self):
        return resolve_geometry(
            self.input_height, self.input_width,
            self.kernel_height, self.kernel_width,
            strides=(self.stride, self.stride), padding=self.padding,
        )

    # ------------------------------------------------------------------
    @property
    def patch_length(self) -> int:
        """Values per im2col patch (``KH * KW * C``)."""
        return self.kernel_height * self.kernel_width * self.input_channels

    @property
    def output_positions(self) -> int:
        """Kernel positions per image (``OH * OW``)."""
        return self.output_height * self.output_width

    @property
    def macs_per_image(self) -> int:
        """Multiply-accumulate operations per image."""
        return self.output_positions * self.patch_length * self.output_channels

    @property
    def input_elements_per_image(self) -> int:
        """Input tensor elements quantised per image."""
        return self.input_height * self.input_width * self.input_channels

    @property
    def output_elements_per_image(self) -> int:
        """Output tensor elements dequantised per image."""
        return self.output_positions * self.output_channels

    @property
    def quantization_elements_per_image(self) -> int:
        """Elements touched by range scans, quantisation and dequantisation.

        The approximate layer reads the input twice (min/max scan and
        quantisation) and writes/dequantises the output once, plus the final
        correction pass -- modelled as two passes over the input and two over
        the output.
        """
        return 2 * self.input_elements_per_image + 2 * self.output_elements_per_image

    @property
    def patch_matrix_bytes_per_image(self) -> int:
        """Bytes of the int8 patch matrix ``Mp`` per image."""
        return self.output_positions * self.patch_length

    def scaled(self, images: int) -> "WorkloadTotals":
        """Totals for ``images`` processed images."""
        return WorkloadTotals(
            macs=self.macs_per_image * images,
            quantization_elements=self.quantization_elements_per_image * images,
            patch_matrix_bytes=self.patch_matrix_bytes_per_image * images,
            input_bytes=self.input_elements_per_image * images * 4,
            output_bytes=self.output_elements_per_image * images * 4,
            layers=1,
        )


@dataclass(frozen=True)
class WorkloadTotals:
    """Aggregated work over a set of layers and images."""

    macs: int = 0
    quantization_elements: int = 0
    patch_matrix_bytes: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    layers: int = 0

    def __add__(self, other: "WorkloadTotals") -> "WorkloadTotals":
        return WorkloadTotals(
            macs=self.macs + other.macs,
            quantization_elements=self.quantization_elements + other.quantization_elements,
            patch_matrix_bytes=self.patch_matrix_bytes + other.patch_matrix_bytes,
            input_bytes=self.input_bytes + other.input_bytes,
            output_bytes=self.output_bytes + other.output_bytes,
            layers=self.layers + other.layers,
        )


def total_workload(workloads: list[ConvWorkload], images: int) -> WorkloadTotals:
    """Sum the totals of every layer workload over ``images`` images."""
    totals = WorkloadTotals()
    for workload in workloads:
        totals = totals + workload.scaled(images)
    return totals
