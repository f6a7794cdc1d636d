"""Command-line entry point of the design-space exploration (``tfapprox-dse``).

Sits next to ``tfapprox-table1`` / ``tfapprox-fig2`` from
:mod:`repro.evaluation.cli`: build a calibrated model, explore per-layer
multiplier assignments with the requested strategy/budget/seed, print the
Pareto front as a table and optionally archive the full
:class:`~repro.dse.engine.DSEReport` as JSON.

``--dry-run`` prints the resolved search plan (model, space, strategy,
budget) without evaluating anything; its output is deterministic and golden
tested.
"""

from __future__ import annotations

import argparse

from ..datasets.cifar import generate_cifar_like
from ..errors import TFApproxError
from ..models import MODELS
from .engine import format_front, search
from .evaluator import make_calibrated_builder
from .space import SearchSpace
from .strategies import available_strategies

#: Default catalogue: signed families spanning the accuracy/energy spread.
DEFAULT_CATALOGUE = [
    "mul8s_exact",
    "mul8s_udm",
    "mul8s_bam_v5",
    "mul8s_trunc2",
    "mul8s_mitchell",
]


def build_parser() -> argparse.ArgumentParser:
    """The ``tfapprox-dse`` argument parser (exposed for doc generation)."""
    parser = argparse.ArgumentParser(
        prog="tfapprox-dse",
        description="Layer-wise multiplier design-space exploration: search "
                    "per-Conv2D-layer multiplier assignments for the best "
                    "accuracy/relative-energy trade-off.")
    parser.add_argument("--model", choices=sorted(MODELS), default="simple_cnn",
                        help="model whose conv layers are explored")
    parser.add_argument("--input-size", type=int, default=32,
                        help="spatial input size of the model")
    parser.add_argument("--images", type=int, default=64,
                        help="evaluation images per candidate")
    parser.add_argument("--calibration-images", type=int, default=100,
                        help="images used to calibrate the classifier once")
    parser.add_argument("--noise", type=float, default=0.4,
                        help="synthetic-dataset noise; the default makes the "
                             "accuracy axis sensitive to coarse multipliers "
                             "(lower values saturate accuracy at 100%%)")
    parser.add_argument("--multipliers", nargs="*", default=DEFAULT_CATALOGUE,
                        help="library names forming the per-layer catalogue")
    parser.add_argument("--strategy", choices=available_strategies(),
                        default="nsga2", help="search strategy")
    parser.add_argument("--budget", type=int, default=32,
                        help="maximum number of fresh candidate evaluations")
    parser.add_argument("--seed", type=int, default=0,
                        help="search seed (same seed => identical results)")
    parser.add_argument("--workers", type=int, default=1,
                        help="thread-pool width for candidate evaluation")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full DSEReport as JSON to PATH")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the resolved search plan and exit "
                             "without evaluating")
    return parser


def main_dse(argv: list[str] | None = None) -> int:
    """Run (or dry-run) one design-space exploration from the command line."""
    args = build_parser().parse_args(argv)

    def base_builder():
        return MODELS[args.model](input_size=args.input_size)

    try:
        probe = base_builder()
        space = SearchSpace.for_model(probe, list(args.multipliers))
    except TFApproxError as exc:
        print(f"error: {exc}")
        return 2

    print("== tfapprox-dse: layer-wise multiplier design-space exploration ==")
    print(f"model: {args.model} (input {args.input_size}x{args.input_size}, "
          f"{len(space.layers)} conv layer(s))")
    print(space.describe())
    print(f"strategy: {args.strategy}  budget: {args.budget} evaluation(s)  "
          f"seed: {args.seed}  workers: {args.workers}")
    if args.dry_run:
        print("dry run: no candidates evaluated")
        return 0

    calibration = generate_cifar_like(
        args.calibration_images, seed=3, image_size=args.input_size,
        noise=args.noise)
    evaluation = generate_cifar_like(
        args.images, seed=29, image_size=args.input_size, noise=args.noise)
    builder = make_calibrated_builder(base_builder, calibration)

    try:
        report = search(
            builder, evaluation,
            space=space, strategy=args.strategy, budget=args.budget,
            seed=args.seed, max_workers=args.workers,
            batch_size=max(8, args.images // 4),
        )
    except TFApproxError as exc:
        print(f"error: {exc}")
        return 2

    print()
    print(report.summary())
    print()
    print(format_front(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.dumps() + "\n")
        print(f"\nreport written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(main_dse())
