"""``serve_cnn16_open``: open-loop single-sample traffic into the service.

``simple_cnn`` at 16x16 behind a one-worker ``EmulationService``.  One
generator thread sends single-sample requests at Poisson arrival times of
a fixed offered rate, cycling over four multiplier configurations (three
uniform, one per-layer mix), so batches hold about one sample and per-call
overhead carries a large share of the latency.  Each request is timed from
when it was due, so a stalled generator shows up as latency.

Every response is checked against a direct ``ModelSession.run`` of the same
sample.  Sessions freeze their quantisation ranges, so outputs do not depend
on which batch a request shares.
"""

from __future__ import annotations

import time

import numpy as np

from . import layers
from .common import (Outcome, check_logits, median, normalize, peak_rss_mb,
                     percentile, set_phase, synthetic_images, time_setup)

NAME = "serve_cnn16_open"
MODEL = "simple_cnn16"
SIZE = 16
RATE = 60.0             # offered requests per second
POOL = 32
CALIBRATION_SEED = 1616
SETUP_REPS = 7
CONFIGS = (
    "mul8s_mitchell",
    "mul8s_exact",
    "mul8s_trunc2",
    {"conv1": "mul8s_trunc2", "conv2": "mul8s_exact",
     "conv3": "mul8s_mitchell"},
)


def build_model():
    from repro.models import build_simple_cnn
    return build_simple_cnn(input_size=SIZE, seed=0)


def run(seed: int, seconds: float, tracer, span_cost_s: float) -> Outcome:
    from repro.backends import (DEFAULT_FILTER_CACHE, DEFAULT_LUT_CACHE,
                                clear_caches)
    from repro.errors import TFApproxError
    from repro.graph import Executor
    from repro.serve import EmulationService, ServiceConfig

    out = Outcome()
    rng = np.random.default_rng(seed)
    samples = synthetic_images(rng, POOL, SIZE)
    calibration = synthetic_images(
        np.random.default_rng(CALIBRATION_SEED), 32, SIZE)
    services, lut_misses = [], []

    def setup():
        clear_caches()
        service = EmulationService(ServiceConfig(workers=1))
        services.append(service)
        service.register_model(MODEL, build_model, calibration=calibration)
        service.warmup(MODEL, list(CONFIGS))
        service.start()
        served = service.infer(MODEL, samples[:1], CONFIGS[0], timeout=60)
        direct, _ = service.session(MODEL, CONFIGS[0]).run(samples[:1])
        out.attempted += 1
        if not check_logits(served.outputs, direct):
            out.fail("first served response differs from a direct run")
        lut_misses.append(DEFAULT_LUT_CACHE.stats_snapshot().misses)
        return service

    try:
        set_phase(tracer, "setup")
        setup_s, setup_times, service = time_setup(setup, SETUP_REPS)
        for spare in services[:-1]:
            spare.stop()

        # Expected outputs: a direct session run of every pool sample under
        # every configuration, each timed against a float graph run of the
        # same sample right after it.
        set_phase(tracer, "reference")
        expected = np.empty((len(CONFIGS), POOL, 10))
        float_model = build_model()
        float_exec = Executor(float_model.graph)
        ratios = []
        for index, config in enumerate(CONFIGS):
            session = service.session(MODEL, config)
            for k in range(POOL):
                t0 = time.perf_counter()
                direct, _ = session.run(samples[k:k + 1])
                t1 = time.perf_counter()
                float_exec.run(float_model.logits, {
                    float_model.input_node: normalize(samples[k:k + 1])})
                ratios.append((t1 - t0) / (time.perf_counter() - t1))
                expected[index, k] = direct[0]

        set_phase(tracer, "window")
        before = service.telemetry()
        cache_before = DEFAULT_FILTER_CACHE.stats_snapshot()
        sent_log = []
        start = time.perf_counter() + 0.005
        end = start + seconds
        due, count = start, 0
        while due < end:
            k = int(rng.integers(POOL))
            config = count % len(CONFIGS)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            request_id = f"r{count:06d}"
            try:
                handle = service.submit(MODEL, samples[k:k + 1],
                                        CONFIGS[config],
                                        request_id=request_id)
            except TFApproxError as exc:
                handle = exc
            sent_log.append((request_id, due, sent, handle, k, config))
            count += 1
            due += rng.exponential(1.0 / RATE)

        latencies, late, completed = [], [], 0
        per_request = {}
        for request_id, due, sent, handle, k, config in sent_log:
            out.attempted += 1
            try:
                if isinstance(handle, Exception):
                    raise handle
                result = handle.result(timeout=120)
            except TFApproxError as exc:
                out.fail(f"request {request_id}: {exc}")
                continue
            if not check_logits(result.outputs, expected[config, k:k + 1]):
                out.fail(f"request {request_id} differs from a direct run")
                continue
            latency = sent - due + result.latency_s
            latencies.append(latency)
            late.append(sent - due)
            per_request[request_id] = (due, sent, latency)
            completed += sent + result.latency_s <= end
        after = service.telemetry()
        cache_after = DEFAULT_FILTER_CACHE.stats_snapshot()
    finally:
        for spare in services:
            spare.stop()

    macs = build_model().macs_per_image
    completed_per_s = completed / seconds
    batches = after.batches - before.batches
    out.metrics.update({
        "images_per_s": completed_per_s,
        "emulated_macs_per_s": completed_per_s * macs,
        "slowdown_vs_float": median(ratios),
        "latency_p50_ms": median(latencies) * 1e3,
        "completed_per_s": completed_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    })
    out.info = {
        "setup_s": setup_times, "offered_per_s": RATE, "sent": len(sent_log),
        "latency_samples": len(latencies),
        "latency_p99_ms": percentile(latencies, 99) * 1e3, "batches": batches,
        "generator_late_p50_ms": median(late) * 1e3,
        "generator_late_p99_ms": percentile(late, 99) * 1e3,
    }
    if tracer is not None:
        ops = len(latencies)
        metrics, counters = layers.traced_metrics(
            tracer, ops=ops, images=ops, setup_reps=SETUP_REPS,
            lut_misses=median(lut_misses), cache_before=cache_before,
            cache_after=cache_after, span_cost_s=span_cost_s)
        session_s = {}
        for span in tracer.spans:
            if (span.phase == "window" and span.name == "serve.session_run"
                    and span.requests):
                for request_id in span.requests:
                    session_s[request_id] = span.duration
        total = sum(latency for _, _, latency in per_request.values())
        waits = sum(tracer.pickups[request_id] - sent
                    for request_id, (_, sent, _) in per_request.items()
                    if request_id in tracer.pickups)
        metrics.update({
            "serve.session_run_frac": sum(
                session_s.get(request_id, 0.0)
                for request_id in per_request) / total,
            "serve.queue_wait_frac": waits / total,
            "serve.generator_late_frac": sum(late) / total,
            "serve.batch_occupancy": (after.completed - before.completed)
            / max(batches, 1),
            "serve.batches": float(batches),
        })
        out.metrics.update(metrics)
        out.counters.update(counters)
        expected_counts = {
            "conv.lut_gemm.macs": macs,
            "conv.lut_gemm.calls": len(float_model.conv_workloads)}
        for key, value in expected_counts.items():
            if counters[key] != value:
                out.fail(f"{key} is {counters[key]}, "
                         f"the model implies {value}")
    return out
