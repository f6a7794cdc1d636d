"""Compare result sets of the benchmark under its own bounds.

Usage::

    python3 perfbench/compare.py BASE [NEW]

``BASE`` and ``NEW`` are ``results.jsonl`` files written by ``run.py`` (or
directories holding one).  With one set, it prints the median and spread of
every end-to-end metric per workload, the tracing overhead and whether the
exact-repeat counters repeated.  With two sets, it prints one row per
workload judging every end-to-end metric of ``NEW`` against ``BASE``:

``better``      NEW wins at least 9 of 10 run pairs and the medians differ
                by more than BASE's own interquartile range;
``worse``       NEW's median is worse than BASE's by more than the bound;
``unresolved``  the run-to-run spread of either set exceeds the bound and
                not every NEW run beats every BASE run;
``same``        none of the above: within the bound.

Spread is the interquartile range over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    if path.is_dir():
        path = path / "results.jsonl"
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_workload(records, *, trace: int) -> dict:
    """workload -> metric -> [(seed, value)] of runs with that trace flag."""
    table = defaultdict(lambda: defaultdict(list))
    for record in records:
        if record["trace"] != trace:
            continue
        for name, value in record["all_metrics"].items():
            table[record["workload"]][name].append((record["seed"], value))
    return table


def values(runs) -> list[float]:
    return [value for _, value in runs]


def verdict(base: list, new: list, better: str, bound: float) -> str:
    a, b = values(base), values(new)
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (med_b - med_a) / med_a
    wins = lambda x, y: sign * (y - x) > 0          # noqa: E731
    by_seed_a, by_seed_b = dict(reversed(base)), dict(reversed(new))
    seeds = sorted(set(by_seed_a) & set(by_seed_b))
    pairs = ([(by_seed_a[s], by_seed_b[s]) for s in seeds] if len(seeds) >= 2
             else [(x, y) for x in a for y in b])
    won = sum(wins(x, y) for x, y in pairs) / len(pairs)
    every = all(wins(x, y) for x in a for y in b)
    q = statistics.quantiles(a, n=4) if len(a) >= 2 else [med_a] * 3
    label = f"{100 * gain:+.1f}%"
    if gain < -bound:
        return f"worse ({label})"
    if max(spread(a), spread(b)) > bound and not every:
        return f"unresolved ({label})"
    if won >= 0.9 and abs(med_b - med_a) > q[2] - q[0]:
        return f"better ({label})"
    return f"same ({label})"


def counter_sets(records) -> dict:
    """workload -> set of distinct exact-repeat counter tuples."""
    seen = defaultdict(set)
    for record in records:
        if record["trace"] and record.get("counters"):
            seen[record["workload"]].add(
                tuple(sorted(record["counters"].items())))
    return seen


def summarize(records, spec) -> None:
    untraced = by_workload(records, trace=0)
    traced = by_workload(records, trace=1)
    counters = counter_sets(records)
    for workload in sorted(untraced):
        metrics = untraced[workload]
        runs = len(next(iter(metrics.values())))
        print(f"{workload} ({runs} runs)")
        for metric in spec["end_to_end"]:
            runs_of = values(metrics[metric["name"]])
            s = spread(runs_of)
            flag = "" if s <= metric["bound"] / 3 else "  (spread > bound/3)"
            middle = statistics.median(runs_of)
            print(f"  {metric['name']:<22} median {middle:.6g}"
                  f" {metric['unit']:<6} spread {s:.3f} bound"
                  f" {metric['bound']}{flag}")
        if workload in traced:
            on = statistics.median(values(traced[workload]["latency_p50_ms"]))
            off = statistics.median(values(metrics["latency_p50_ms"]))
            print(f"  tracing overhead on latency_p50_ms: "
                  f"{100 * (on - off) / off:+.2f}%")
        if workload in counters:
            state = ("repeat exactly" if len(counters[workload]) == 1
                     else "DIFFER between runs")
            print(f"  exact-repeat counters {state}")
    hosts = [record["host"]["copy_gb_per_s"] for record in records]
    print(f"host copy bandwidth: median {statistics.median(hosts):.1f} GB/s "
          f"over {len(hosts)} runs")


def compare(base, new, spec) -> None:
    base_table = by_workload(base, trace=0)
    new_table = by_workload(new, trace=0)
    for workload in sorted(set(base_table) & set(new_table)):
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells.append(f"{name}: " + verdict(
                base_table[workload][name], new_table[workload][name],
                metric["better"], metric["bound"]))
        print(f"{workload}: " + "; ".join(cells))
    base_counters, new_counters = counter_sets(base), counter_sets(new)
    for workload in sorted(set(base_counters) & set(new_counters)):
        if base_counters[workload] != new_counters[workload]:
            print(f"{workload}: exact-repeat counters changed: emulated work "
                  f"differs, so this is not a speed-only change")
    for label, records in (("base", base), ("new", new)):
        hosts = [record["host"]["copy_gb_per_s"] for record in records]
        print(f"{label} host copy bandwidth: median "
              f"{statistics.median(hosts):.1f} GB/s")


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(Path(arg)) for arg in argv]
    if len(sets) == 1:
        summarize(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
