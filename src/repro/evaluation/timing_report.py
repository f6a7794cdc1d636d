"""Table I and Fig. 2 generation.

This module regenerates the paper's evaluation artefacts from the analytical
CPU/GPU timing models and the exact layer geometries of the CIFAR ResNets:

* :func:`generate_table1` produces one row per network with the same columns
  as Table I: ``L``, MAC count, ``t_init + t_comp`` for the accurate and
  approximate implementations on CPU and GPU, the approximation overheads and
  the GPU-vs-CPU speed-ups.
* :func:`generate_fig2` produces the phase breakdown (initialisation,
  quantisation, LUT lookups, remaining) for the four networks shown in
  Fig. 2, for both the CPU and the GPU implementation.

Absolute seconds depend on the modelled hardware and will not equal the
authors' Xeon E5-2620 + GTX 1080 testbed measurements; the *shape* (linear
growth with MACs, who wins, roughly 200x speed-up at ResNet-62, the relative
phase shares) is the reproduction target, and the comparison helpers place
the published numbers next to the regenerated ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpusim.direct import CPUTimingModel
from ..datasets.cifar import IMAGE_SIZE, NUM_CHANNELS, PAPER_TEST_IMAGES
from ..errors import ConfigurationError
from ..gpusim.timing import GPUTimingModel, PhaseTimes
from ..models.resnet import PAPER_DEPTHS, conv_workloads_for_depth
from .paper_reference import PAPER_FIG2_MODELS, PAPER_TABLE1, paper_row_for_depth


@dataclass(frozen=True)
class Table1Row:
    """One regenerated row of Table I."""

    model: str
    depth: int
    conv_layers: int
    macs_per_image: int
    cpu_accurate: PhaseTimes
    gpu_accurate: PhaseTimes
    cpu_approximate: PhaseTimes
    gpu_approximate: PhaseTimes

    # ------------------------------------------------------------------
    @property
    def overhead_cpu(self) -> float:
        """Extra time of the approximate vs accurate CPU run (seconds)."""
        return self.cpu_approximate.total - self.cpu_accurate.total

    @property
    def overhead_gpu(self) -> float:
        """Extra time of the approximate vs accurate GPU run (seconds)."""
        return self.gpu_approximate.total - self.gpu_accurate.total

    @property
    def speedup_accurate(self) -> float:
        """GPU-vs-CPU speed-up of the accurate implementation."""
        return self.cpu_accurate.total / self.gpu_accurate.total

    @property
    def speedup_approximate(self) -> float:
        """GPU-vs-CPU speed-up of the approximate (emulated) implementation."""
        return self.cpu_approximate.total / self.gpu_approximate.total


def generate_table1(*, depths=PAPER_DEPTHS, images: int = PAPER_TEST_IMAGES,
                    ) -> list[Table1Row]:
    """Regenerate Table I for the given network depths and image count."""
    if images <= 0:
        raise ConfigurationError("images must be positive")
    cpu_model, gpu_model = CPUTimingModel(), GPUTimingModel()
    dataset_bytes = images * IMAGE_SIZE * IMAGE_SIZE * NUM_CHANNELS * 4

    rows: list[Table1Row] = []
    for depth in depths:
        workloads = conv_workloads_for_depth(depth)
        rows.append(Table1Row(
            model=f"ResNet-{depth}",
            depth=depth,
            conv_layers=len(workloads),
            macs_per_image=sum(w.macs_per_image for w in workloads),
            cpu_accurate=cpu_model.accurate_inference(workloads, images),
            gpu_accurate=gpu_model.accurate_inference(
                workloads, images, dataset_bytes=dataset_bytes),
            cpu_approximate=cpu_model.approximate_inference(workloads, images),
            gpu_approximate=gpu_model.approximate_inference(
                workloads, images, dataset_bytes=dataset_bytes),
        ))
    return rows


def format_table1(rows: list[Table1Row], *, include_paper: bool = True) -> str:
    """Render regenerated Table I rows as a fixed-width text table."""
    header = (
        f"{'DNN':<10} {'L':>3} {'MACs':>8} "
        f"{'CPU Conv2D':>16} {'GPU Conv2D':>14} "
        f"{'CPU AxConv2D':>18} {'GPU AxConv2D':>16} "
        f"{'Ovh CPU':>9} {'Ovh GPU':>8} {'SpdAcc':>7} {'SpdApx':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.model:<10} {row.conv_layers:>3} "
            f"{row.macs_per_image / 1e6:>6.0f}e6 "
            f"{row.cpu_accurate.initialization:>6.1f}+{row.cpu_accurate.compute:<8.1f} "
            f"{row.gpu_accurate.initialization:>5.1f}+{row.gpu_accurate.compute:<7.1f} "
            f"{row.cpu_approximate.initialization:>6.1f}+{row.cpu_approximate.compute:<10.1f} "
            f"{row.gpu_approximate.initialization:>6.1f}+{row.gpu_approximate.compute:<8.1f} "
            f"{row.overhead_cpu:>9.1f} {row.overhead_gpu:>8.1f} "
            f"{row.speedup_accurate:>6.1f}x {row.speedup_approximate:>6.1f}x"
        )
    if include_paper:
        lines.append("")
        lines.append("Paper (Table I) reference speed-ups:")
        for paper in PAPER_TABLE1:
            lines.append(
                f"  {paper.model:<10} accurate {paper.speedup_accurate:>5.1f}x   "
                f"approximate {paper.speedup_approximate:>6.1f}x"
            )
    return "\n".join(lines)


def compare_row_with_paper(row: Table1Row) -> dict:
    """Paper-vs-regenerated comparison for one network."""
    paper = paper_row_for_depth(row.depth)
    return {
        "model": row.model,
        "L_paper": paper.conv_layers,
        "L_ours": row.conv_layers,
        "macs_paper_millions": paper.macs_per_image / 1e6,
        "macs_ours_millions": row.macs_per_image / 1e6,
        "speedup_accurate_paper": paper.speedup_accurate,
        "speedup_accurate_ours": row.speedup_accurate,
        "speedup_approximate_paper": paper.speedup_approximate,
        "speedup_approximate_ours": row.speedup_approximate,
        "cpu_approx_total_paper": sum(paper.cpu_approximate),
        "cpu_approx_total_ours": row.cpu_approximate.total,
        "gpu_approx_total_paper": sum(paper.gpu_approximate),
        "gpu_approx_total_ours": row.gpu_approximate.total,
    }


# ----------------------------------------------------------------------
# Fig. 2: distribution of the total computational time
# ----------------------------------------------------------------------
def generate_fig2(*, models=PAPER_FIG2_MODELS, images: int = PAPER_TEST_IMAGES,
                  ) -> dict[tuple[str, str], dict[str, float]]:
    """Regenerate the Fig. 2 phase breakdown.

    Returns a mapping ``(implementation, model) -> {phase: fraction}`` with
    the same keys as :data:`repro.evaluation.paper_reference.PAPER_FIG2`.
    """
    cpu_model, gpu_model = CPUTimingModel(), GPUTimingModel()
    dataset_bytes = images * IMAGE_SIZE * IMAGE_SIZE * NUM_CHANNELS * 4

    breakdown: dict[tuple[str, str], dict[str, float]] = {}
    for model_name in models:
        depth = int(model_name.split("-")[1])
        workloads = conv_workloads_for_depth(depth)
        cpu_phases = cpu_model.approximate_inference(workloads, images)
        gpu_phases = gpu_model.approximate_inference(
            workloads, images, dataset_bytes=dataset_bytes)
        breakdown[("cpu", model_name)] = cpu_phases.breakdown()
        breakdown[("gpu", model_name)] = gpu_phases.breakdown()
    return breakdown


def format_fig2(breakdown: dict[tuple[str, str], dict[str, float]]) -> str:
    """Render a Fig. 2 style breakdown as a text table."""
    lines = [
        f"{'impl':<5} {'model':<11} {'init':>7} {'quant':>7} {'LUT':>7} {'rest':>7}"
    ]
    lines.append("-" * len(lines[0]))
    for (impl, model_name), shares in sorted(breakdown.items()):
        lines.append(
            f"{impl:<5} {model_name:<11} "
            f"{shares['initialization']:>6.1%} {shares['quantization']:>6.1%} "
            f"{shares['lut_lookups']:>6.1%} {shares['remaining']:>6.1%}"
        )
    return "\n".join(lines)
