#!/usr/bin/env python3
"""Design-space exploration over a CIFAR ResNet's per-layer multipliers.

Reproduces: the use case the paper's conclusion motivates ("automated design
of approximate DNN accelerators in which many candidate designs have to be
quickly evaluated") and the per-layer assignment search of its predecessor
ALWANN (reference [12]) -- the loop fast emulation exists to serve.  Each
candidate assigns one approximate multiplier from a small catalogue to every
convolutional layer of a CIFAR ResNet-8; the NSGA-II strategy searches the
space for the accuracy/relative-energy Pareto front.

Expected output: the search-space summary (7 conv layers, so the catalogue
spans thousands of candidates of which only ``--budget`` are emulated), a
progress digest with candidates/s (the whole search shares one quantised
bank per layer and one 256x256 table per catalogue multiplier through the
process-wide caches), and the resulting front -- the exact-heavy
assignments anchor the high-accuracy end while Mitchell/truncation in the
wide layers buys the energy reduction.

Run:  python examples/dse_resnet.py [--budget 16] [--images 32]
(a budget of 16 takes roughly a minute of functional emulation on a laptop)
"""

from __future__ import annotations

import argparse

from repro.datasets import generate_cifar_like
from repro.dse import (
    SearchSpace,
    format_front,
    make_calibrated_builder,
    search,
)
from repro.models import build_resnet

#: Signed designs covering the trade-off from "exact" to "aggressive".
CATALOGUE = ["mul8s_exact", "mul8s_udm", "mul8s_trunc2", "mul8s_mitchell"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=16,
                        help="fresh candidate evaluations to spend")
    parser.add_argument("--images", type=int, default=32,
                        help="evaluation images per candidate")
    parser.add_argument("--input-size", type=int, default=16,
                        help="spatial input size (16 keeps the demo quick)")
    parser.add_argument("--seed", type=int, default=0,
                        help="search seed (same seed => identical front)")
    parser.add_argument("--workers", type=int, default=2,
                        help="threads evaluating candidates concurrently")
    args = parser.parse_args()

    calibration = generate_cifar_like(
        100, seed=3, image_size=args.input_size, noise=0.4)
    evaluation = generate_cifar_like(
        args.images, seed=29, image_size=args.input_size, noise=0.4)

    def base_builder():
        return build_resnet(8, input_size=args.input_size, seed=0)

    builder = make_calibrated_builder(base_builder, calibration)
    space = SearchSpace.for_model(builder(), CATALOGUE)

    print("== DSE over ResNet-8 per-layer multipliers ==")
    print(space.describe())
    print(f"emulating {args.budget} candidate(s) on {args.images} synthetic "
          f"CIFAR images each\n")

    report = search(
        builder, evaluation, space=space, strategy="nsga2",
        strategy_params={"population": min(8, max(2, args.budget)),
                         "generations": 8},
        budget=args.budget, seed=args.seed, max_workers=args.workers,
        batch_size=max(8, args.images // 2),
    )

    print(report.summary())
    print()
    print(format_front(report))
    print("\nReading the front: each row is a non-dominated accelerator"
          "\nconfiguration; moving down trades accuracy for energy.  Re-run"
          "\nwith the same --seed to get the identical front, or a different"
          "\nseed/strategy to explore from another trajectory -- the LUT and"
          "\nfilter-bank caches persist, so follow-up searches run warm.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
