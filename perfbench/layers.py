"""Per-layer metrics computed from the spans of a traced run.

Window metrics cover the spans that descend from an *op root*: the
benchmark's own ``bench.op`` span around one inference batch or training
step, or ``serve.session_run`` on the serve worker thread.  Times are
seconds per op (batch, request or step); counts are per forward pass, per
image or per set-up, whichever makes them repeat exactly for a given seed.
Layers that only some workloads run are reported as shares, so that they
read 0 elsewhere rather than as a time that never changes.
"""

from __future__ import annotations

from collections import defaultdict

ROOTS = ("bench.op", "serve.session_run")
BUCKETS = ("stem", "stage1", "stage2", "stage3")

#: Spans whose self time a reported per-layer metric accounts for
#: (``conv.backward`` through ``train.backward_frac``).
ATTRIBUTED = (
    "conv.lut_gemm", "conv.im2col", "conv.dequant", "conv.col2im",
    "conv.backward", "graph.forward", "graph.backward", "backends.prepare",
    "quantization.filter_bank", "lut.build", "train.update",
)


#: Counters that depend only on the model and the workload, never on speed.
EXACT_COUNTERS = ("conv.lut_gemm.calls", "conv.lut_gemm.macs",
                  "backends.filter_cache.misses", "lut.builds")


def gemm_bucket(depth: int, filters: int) -> str:
    """Call-shape class of one LUT-GEMM: the 3-channel stem or a stage."""
    if depth == 27:
        return "stem"
    return {16: "stage1", 32: "stage2", 64: "stage3"}.get(filters, "other")


def _root_finder():
    memo: dict[int, object] = {}

    def root(span):
        chain, node = [], span
        while node.parent is not None and id(node) not in memo:
            chain.append(node)
            node = node.parent
        top = memo.get(id(node), node)
        for item in chain:
            memo[id(item)] = top
        return top
    return root


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def window_metrics(spans, *, phase: str, ops: int, images: int,
                   span_cost_s: float) -> tuple[dict, int]:
    """(metrics, forward passes) of the spans of one measured window."""
    root_of = _root_finder()
    dur = defaultdict(float)
    self_s = defaultdict(float)
    count = defaultdict(int)
    train = defaultdict(float)
    buckets = defaultdict(float)
    root_time = glue = 0.0
    traced = macs = 0
    for span in spans:
        if span.phase != phase:
            continue
        root = root_of(span)
        if root.name not in ROOTS or root.phase != phase:
            continue
        traced += 1
        if span is root:
            root_time += span.duration
        dur[span.name] += span.duration
        self_s[span.name] += span.self_s
        count[span.name] += 1
        if span.name not in ATTRIBUTED:
            glue += span.self_s
        if span.parent is not None and span.parent.name == "train.step":
            train[span.name] += span.duration
        if span.name == "conv.lut_gemm":
            shape = span.attrs
            macs += shape["P"] * shape["K"] * shape["F"]
            buckets[gemm_bucket(shape["K"], shape["F"])] += span.duration

    forwards = count["graph.forward"]
    gemm = dur["conv.lut_gemm"]
    metrics = {
        "conv.lut_gemm_s": gemm / ops,
        "conv.lut_gemm_frac": _share(gemm, root_time),
        "conv.lut_gemm.calls": count["conv.lut_gemm"] / max(forwards, 1),
        "conv.lut_gemm.macs": macs / max(images, 1),
        "conv.lut_gemm.macs_per_s": _share(macs, gemm),
        "conv.im2col_s": dur["conv.im2col"] / ops,
        "conv.dequant_s": dur["conv.dequant"] / ops,
        "conv.col2im_frac": _share(dur["conv.col2im"], root_time),
        "graph.self_s": (self_s["graph.forward"]
                         + self_s["graph.backward"]) / ops,
        "backends.prepare_s": self_s["backends.prepare"] / ops,
        "quantization.filter_bank_frac": _share(
            dur["quantization.filter_bank"], root_time),
        "train.forward_frac": _share(train["graph.forward"], root_time),
        "train.backward_frac": _share(train["graph.backward"], root_time),
        "train.update_frac": _share(train["train.update"], root_time),
        "trace.overhead_frac": _share(traced * span_cost_s, root_time),
        "trace.unattributed_frac": _share(glue, root_time),
        "trace.spans_per_op": traced / ops,
    }
    for name in BUCKETS:
        metrics[f"conv.lut_gemm_share.{name}"] = _share(buckets[name], gemm)
    return metrics, forwards


def setup_metrics(spans, *, reps: int) -> dict:
    """Per-set-up LUT builds and filter-bank quantisation."""
    builds = build_s = bank_s = 0.0
    for span in spans:
        if span.phase != "setup":
            continue
        if span.name == "lut.build":
            builds += 1
            build_s += span.duration
        elif span.name == "quantization.filter_bank":
            bank_s += span.duration
    return {
        "lut.builds": builds / reps,
        "lut.build_s": build_s / reps,
        "quantization.filter_bank_s": bank_s / reps,
    }


def cache_metrics(before, after, *, forwards: int) -> dict:
    """Filter-bank cache traffic of a window, per forward pass."""
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return {
        "backends.filter_cache.hits": hits / max(forwards, 1),
        "backends.filter_cache.misses": misses / max(forwards, 1),
        "backends.filter_cache.hit_ratio": _share(hits, hits + misses),
    }


def traced_metrics(tracer, *, ops: int, images: int, setup_reps: int,
                   lut_misses: float, cache_before, cache_after,
                   span_cost_s: float) -> tuple[dict, dict]:
    """Every per-layer metric of one traced run; serve ones read 0 here."""
    metrics, forwards = window_metrics(
        tracer.spans, phase="window", ops=ops, images=images,
        span_cost_s=span_cost_s)
    metrics.update(setup_metrics(tracer.spans, reps=setup_reps))
    metrics.update(cache_metrics(cache_before, cache_after, forwards=forwards))
    metrics["backends.lut_cache.misses"] = lut_misses
    metrics.update({
        "serve.session_run_frac": 0.0,
        "serve.queue_wait_frac": 0.0,
        "serve.generator_late_frac": 0.0,
        "serve.batch_occupancy": 0.0,
        "serve.batches": 0.0,
    })
    counters = {name: metrics[name] for name in EXACT_COUNTERS}
    return metrics, counters
