"""Command-line entry point of the emulation service (``tfapprox-serve``).

Offline mode only: build a service, replay a request trace (recorded JSONL
or synthesised) through it and print the latency/throughput report.  Sits
next to ``tfapprox-table1`` / ``tfapprox-fig2`` / ``tfapprox-dse``; like
them, ``--dry-run`` prints the resolved plan deterministically (golden
tested) without executing anything.
"""

from __future__ import annotations

import argparse

from ..errors import TFApproxError
from ..models import MODELS
from .service import EmulationService, ServiceConfig
from .trace import load_trace, synthetic_trace

#: Default multiplier rotation of the synthetic trace: one exact and two
#: approximate designs, so the replay exercises config-keyed admission.
DEFAULT_MULTIPLIERS = ["mul8s_exact", "mul8s_mitchell", "mul8s_trunc2"]


def build_parser() -> argparse.ArgumentParser:
    """The ``tfapprox-serve`` argument parser (exposed for doc generation)."""
    parser = argparse.ArgumentParser(
        prog="tfapprox-serve",
        description="Micro-batching emulation service, offline replay mode: "
                    "coalesce a request trace into batches of up to the "
                    "batch cap and report throughput/latency.")
    parser.add_argument("--model", choices=sorted(MODELS),
                        default="simple_cnn",
                        help="registered model the trace runs against")
    parser.add_argument("--input-size", type=int, default=16,
                        help="spatial input size of the model")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="JSONL request trace to replay (default: "
                             "synthesise one)")
    parser.add_argument("--requests", type=int, default=64,
                        help="synthetic-trace request count")
    parser.add_argument("--samples", type=int, default=1,
                        help="samples per synthetic request")
    parser.add_argument("--multipliers", nargs="*",
                        default=DEFAULT_MULTIPLIERS,
                        help="multiplier rotation of the synthetic trace")
    parser.add_argument("--batch-cap", type=int, default=32,
                        help="maximum samples coalesced into one batch")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker threads executing batches")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic trace")
    parser.add_argument("--no-warmup", action="store_true",
                        help="skip cache pre-population before the replay")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full replay report as JSON to PATH")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the resolved serving plan and exit "
                             "without executing")
    return parser


def main_serve(argv: list[str] | None = None) -> int:
    """Run (or dry-run) one offline trace replay from the command line."""
    args = build_parser().parse_args(argv)

    try:
        if args.trace is not None:
            trace = load_trace(args.trace)
        else:
            trace = synthetic_trace(
                args.model, requests=args.requests, samples=args.samples,
                multipliers=tuple(args.multipliers), seed=args.seed)
    except (TFApproxError, OSError) as exc:
        print(f"error: {exc}")
        return 2

    def config_label(multiplier) -> str:
        if isinstance(multiplier, str):
            return multiplier
        return ("{" + ", ".join(f"{layer}={name}" for layer, name
                                in sorted(multiplier.items())) + "}")

    configs = sorted({config_label(r.multiplier) for r in trace})
    total_samples = sum(request.samples for request in trace)

    print("== tfapprox-serve: micro-batching emulation service ==")
    print(f"model: {args.model} (input {args.input_size}x{args.input_size})")
    print(f"trace: {len(trace)} request(s), {total_samples} sample(s), "
          f"{len(configs)} multiplier configuration(s)")
    print(f"configs: {', '.join(configs)}")
    print(f"batcher: cap {args.batch_cap} sample(s), "
          f"{args.workers} worker(s)")
    if args.dry_run:
        print("dry run: no requests executed")
        return 0

    service = EmulationService(ServiceConfig(
        max_batch_samples=args.batch_cap,
        workers=args.workers,
    ))
    try:
        service.register_model(
            args.model,
            lambda: MODELS[args.model](input_size=args.input_size))
        if not args.no_warmup:
            distinct = []
            for request in trace:
                if request.multiplier not in distinct:
                    distinct.append(request.multiplier)
            service.warmup(args.model, distinct)
        # replay() enqueues the whole trace before starting the workers,
        # which is what makes the batch sequence (and every per-request
        # output) deterministic at any --workers value.
        report = service.replay(trace)
    except TFApproxError as exc:
        print(f"error: {exc}")
        return 2
    finally:
        service.stop()

    print()
    print(report.summary())
    print()
    print(service.telemetry().summary())
    if args.json:
        import json
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nreport written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    raise SystemExit(main_serve())
