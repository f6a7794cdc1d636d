"""Serving throughput and idle latency of the micro-batching service.

The serving layer's claim mirrors the paper's: throughput comes from
amortising per-batch overhead (graph traversal, per-run coefficient
resolution, report assembly) over large batches.  This module replays the
*same* synthetic single-sample request trace twice through otherwise
identical services —

* ``uncoalesced``: batch cap 1, every request executes alone (the
  one-request-one-call behaviour of the pre-serving APIs);
* ``coalesced``: batch cap 32, compatible queued requests merge into
  batches of up to the cap;

— and writes ``BENCH_serve.json`` with requests/s for both, the speedup,
the batch-occupancy means and the latency percentiles.  The acceptance gate
of the serving PR is that coalesced throughput strictly beats uncoalesced
on identical traffic.  The gate replays each side ``REPLAYS`` times,
alternating, and compares the replays of median requests/s, so a single
stall of a few tens of ms in one replay cannot decide it.

It also sends single-sample requests one at a time to a warmed, idle
one-worker service and records the median queue wait (a request's latency
minus its batch's session run time).  The batcher is work-conserving, so
an idle worker takes a lone request at once instead of holding it back for
traffic to coalesce with; the median wait must stay below
``IDLE_WAIT_BOUND_S``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_simple_cnn
from repro.serve import EmulationService, ServiceConfig, synthetic_trace

REQUESTS = 48
MULTIPLIERS = ("mul8s_exact", "mul8s_mitchell")
COALESCED_CAP = 32
IDLE_REQUESTS = 24
#: Alternating replays per side of the coalescing gate.
REPLAYS = 3
#: Bound on the idle median queue wait (about 0.1 ms measured on a 2-vCPU
#: host); any wait for a coalescing partner of a few ms would break it.
IDLE_WAIT_BOUND_S = 0.0025


@pytest.fixture(scope="module")
def trace():
    """Single-sample requests cycling over two multiplier configurations."""
    return synthetic_trace(
        "simple_cnn", requests=REQUESTS, samples=1,
        multipliers=MULTIPLIERS, seed=0)


def warmed_service(batch_cap: int) -> EmulationService:
    """Fresh one-worker service with every trace configuration warmed."""
    service = EmulationService(ServiceConfig(
        max_batch_samples=batch_cap, workers=1))
    service.register_model(
        "simple_cnn", lambda: build_simple_cnn(input_size=8, seed=0),
        calibration_samples=8)
    service.warmup("simple_cnn", list(MULTIPLIERS))
    return service


def replay_trace(trace, batch_cap: int):
    """Fresh warmed service, one offline replay, report returned."""
    service = warmed_service(batch_cap)
    report = service.replay(trace)
    service.stop()
    return report


def median_replay(reports):
    """The replay report of median requests/s."""
    return sorted(reports, key=lambda report: report.requests_per_s)[
        len(reports) // 2]


@pytest.fixture(scope="module")
def idle_queue_wait_s(trace):
    """Median queue wait of requests sent one at a time to an idle worker."""
    service = warmed_service(COALESCED_CAP)
    spec = service.spec("simple_cnn")
    latencies = {}
    with service:
        for request in trace[:IDLE_REQUESTS]:
            result = service.infer(
                request.model, request.materialize(spec.input_shape),
                request.multiplier, timeout=30.0)
            latencies[result.request_id] = result.latency_s
    waits = [latencies[request_id] - record.wall_time_s
             for record in service.batch_log()
             for request_id in record.request_ids]
    assert len(waits) == IDLE_REQUESTS
    return float(np.median(waits))


@pytest.mark.benchmark(group="serve")
def test_uncoalesced_replay(benchmark, trace):
    """Batch cap 1: the per-request execution baseline."""
    report = benchmark.pedantic(
        replay_trace, args=(trace, 1), iterations=1, rounds=1)
    assert report.requests == REQUESTS
    assert report.mean_occupancy == 1.0


@pytest.mark.benchmark(group="serve")
def test_coalesced_replay(benchmark, trace):
    """Batch cap 32: queued requests coalesce into micro-batches."""
    report = benchmark.pedantic(
        replay_trace, args=(trace, COALESCED_CAP), iterations=1, rounds=1)
    assert report.requests == REQUESTS
    assert report.mean_occupancy > 1.0


def test_idle_worker_takes_request_at_once(idle_queue_wait_s):
    """A lone request is not held back waiting for traffic to join it."""
    assert idle_queue_wait_s < IDLE_WAIT_BOUND_S


def test_coalescing_beats_uncoalesced(trace, bench_json, idle_queue_wait_s):
    """Acceptance gate: coalesced requests/s strictly beats batch-cap 1,
    each side the median of ``REPLAYS`` alternating replays."""
    replays = {1: [], COALESCED_CAP: []}
    for _ in range(REPLAYS):
        for batch_cap, reports in replays.items():
            reports.append(replay_trace(trace, batch_cap))
    uncoalesced = median_replay(replays[1])
    coalesced = median_replay(replays[COALESCED_CAP])

    payload = {
        "requests": REQUESTS,
        "replays_per_side": REPLAYS,
        "uncoalesced_requests_per_s": uncoalesced.requests_per_s,
        "coalesced_requests_per_s": coalesced.requests_per_s,
        "coalescing_speedup": (
            coalesced.requests_per_s / uncoalesced.requests_per_s),
        "uncoalesced_mean_occupancy": uncoalesced.mean_occupancy,
        "coalesced_mean_occupancy": coalesced.mean_occupancy,
        "uncoalesced_batches": uncoalesced.batches,
        "coalesced_batches": coalesced.batches,
        "uncoalesced_p50_latency_s": uncoalesced.latency.p50_s,
        "uncoalesced_p99_latency_s": uncoalesced.latency.p99_s,
        "coalesced_p50_latency_s": coalesced.latency.p50_s,
        "coalesced_p99_latency_s": coalesced.latency.p99_s,
        "batch_cap": COALESCED_CAP,
        "idle_queue_wait_p50_s": idle_queue_wait_s,
        "idle_requests": IDLE_REQUESTS,
    }
    print("\n" + "\n".join(
        f"{key}: {value:.3f}" if isinstance(value, float)
        else f"{key}: {value}"
        for key, value in sorted(payload.items())))
    bench_json("serve", payload)

    # Identical traffic, identical warmed caches: the only difference is
    # coalescing, and it must pay.
    assert coalesced.requests_per_s > uncoalesced.requests_per_s
    # The coalesced run actually batched (cap 32 over 24 same-config
    # requests: full batches except the remainders).
    assert coalesced.mean_occupancy > 4.0
    assert uncoalesced.batches == REQUESTS
