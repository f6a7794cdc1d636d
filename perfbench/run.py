"""Run one workload of the benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload infer_resnet20 --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation.  ``--trace 1`` runs the same workload with every layer
function wrapped in a span and reports the per-layer metrics instead; the
spans go to ``perfbench/results/trace-<workload>-<seed>.json.gz`` (Chrome
trace-event format).  Every run appends a record with its metrics, the
exact-repeat counters and the host context to
``perfbench/results/results.jsonl``; ``compare.py`` reads those files.

The last line of standard output is the JSON result.  The exit code is
non-zero, with no result printed, when the checkout holds no program to
measure or the workload cannot run.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads use at most two threads of their own, and
# float results then do not depend on how BLAS splits the work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Import the benchmark as the ``perfbench`` package, not its files as
# top-level modules.
sys.path[0] = str(ROOT)
WORKLOADS = ("infer_resnet20", "serve_cnn16_open", "finetune_resnet8")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        default=ROOT / "perfbench" / "results",
                        help="directory for results.jsonl and trace files")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench import finetune, infer, serve
    from perfbench.common import host_context
    from perfbench.tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    workload = {"infer_resnet20": infer, "serve_cnn16_open": serve,
                "finetune_resnet8": finetune}[args.workload]

    host = host_context()
    tracer = span_cost_s = None
    if args.trace:
        tracer = Tracer()
        span_cost_s = tracer.span_cost_s()
        tracer.install()
    started = time.time()
    try:
        outcome = workload.run(args.seed, args.seconds, tracer, span_cost_s)
    finally:
        if tracer is not None:
            tracer.uninstall()

    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"workload did not measure: {', '.join(missing)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]),
                           "unit": unit} for name, unit in units.items()},
    }

    args.results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "started": started,
        "host": host, "info": outcome.info, "counters": outcome.counters,
        "failures": outcome.notes, "result": result,
        "all_metrics": {name: float(value)
                        for name, value in outcome.metrics.items()},
    }
    with (args.results / "results.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        tracer.write(args.results
                     / f"trace-{args.workload}-{args.seed}.json.gz")

    for note in outcome.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(f"host: {json.dumps(host)}")
    print(f"info: {json.dumps(outcome.info)}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
