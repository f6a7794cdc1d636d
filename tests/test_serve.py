"""Concurrency/property suite of the micro-batching emulation service.

The properties the service promises:

* **Determinism** — replaying the same trace yields bit-identical
  per-request outputs at any worker count (sessions freeze quantisation
  ranges; offline replay makes the batch sequence a pure function of the
  trace).
* **Admission** — requests with different multiplier configurations never
  share a batch (they would need different transformed graphs).
* **No starvation** — the batcher is work-conserving: an idle worker takes
  the oldest queued request at once, so a trickle load that never fills a
  batch completes without waiting, and no configuration starves another.
* **Fault isolation** — a failing batch fails only its own requests, with
  a typed error, and the telemetry still adds up.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np
import pytest

from repro.backends.cache import cache_stats, clear_caches
from repro.errors import (ExecutionError, QuantizationError, ServeError,
                          TFApproxError)
from repro.models import build_simple_cnn
from repro.serve import (
    Batcher,
    EmulationService,
    ServiceConfig,
    TraceRequest,
    admission_key,
    load_trace,
    save_trace,
    synthetic_trace,
)

MULTIPLIERS = ("mul8s_exact", "mul8s_mitchell")


def small_builder():
    return build_simple_cnn(input_size=8, seed=0)


def make_service(*, workers=1, cap=8):
    service = EmulationService(ServiceConfig(
        max_batch_samples=cap, workers=workers))
    service.register_model(
        "simple_cnn", small_builder, calibration_samples=8)
    return service


# ---------------------------------------------------------------------------
# Batcher unit behaviour
# ---------------------------------------------------------------------------

class TestBatcher:
    def test_full_cap_flushes_immediately(self):
        batcher = Batcher(max_batch_samples=4)
        for index in range(4):
            batcher.submit("key", index)
        batch = batcher.next_batch(timeout=0.5)
        assert batch is not None
        assert [entry.item for entry in batch.entries] == [0, 1, 2, 3]
        assert batch.samples == 4

    def test_idle_consumer_takes_lone_request_at_once(self):
        """A partial batch is handed out without waiting for more traffic."""
        batcher = Batcher(max_batch_samples=1000)
        batcher.submit("key", "lonely")
        batch = batcher.next_batch(timeout=0)
        assert batch is not None and batch.requests == 1

    def test_oldest_head_first_so_no_key_starves(self):
        """A key kept at the cap cannot starve an older request of another.

        The clock never moves, so an order by enqueue time would tie
        everywhere; the order must come from submission itself.
        """
        batcher = Batcher(max_batch_samples=2, clock=lambda: 0.0)
        refill = itertools.count()
        for _ in range(3):
            batcher.submit("a", f"a{next(refill)}")
        batcher.submit("b", "b0")
        served = []
        for _ in range(6):
            batch = batcher.next_batch(timeout=0)
            served.append(
                (batch.key, [entry.item for entry in batch.entries]))
            for _ in range(2):
                batcher.submit("a", f"a{next(refill)}")
        assert served[:4] == [
            ("a", ["a0", "a1"]), ("a", ["a2", "a3"]), ("b", ["b0"]),
            ("a", ["a4", "a5"])]
        assert [key for key, _ in served[4:]] == ["a", "a"]

    def test_keys_never_mix(self):
        batcher = Batcher(max_batch_samples=4)
        for index in range(4):
            batcher.submit("a" if index % 2 else "b", index)
        seen = {}
        for _ in range(2):
            batch = batcher.next_batch(timeout=1.0)
            seen[batch.key] = [entry.item for entry in batch.entries]
        assert seen == {"b": [0, 2], "a": [1, 3]}

    def test_cap_splits_queue_fifo(self):
        batcher = Batcher(max_batch_samples=3)
        for index in range(8):
            batcher.submit("key", index)
        sizes, items = [], []
        for _ in range(3):
            batch = batcher.next_batch(timeout=1.0)
            sizes.append(batch.samples)
            items.extend(entry.item for entry in batch.entries)
        assert sizes == [3, 3, 2]
        assert items == list(range(8))

    def test_oversized_request_forms_own_batch(self):
        batcher = Batcher(max_batch_samples=4)
        batcher.submit("key", "big", samples=9)
        batch = batcher.next_batch(timeout=0.5)
        assert batch.requests == 1 and batch.samples == 9

    def test_close_drains_then_signals_shutdown(self):
        batcher = Batcher(max_batch_samples=100)
        batcher.submit("key", "pending")
        batcher.close()
        batch = batcher.next_batch(timeout=0.5)
        assert batch is not None and batch.requests == 1
        assert batcher.next_batch(timeout=0.1) is None
        with pytest.raises(ServeError):
            batcher.submit("key", "late")

    def test_timeout_returns_none(self):
        batcher = Batcher(max_batch_samples=4)
        start = time.monotonic()
        assert batcher.next_batch(timeout=0.05) is None
        assert time.monotonic() - start < 2.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServeError):
            Batcher(max_batch_samples=0)
        batcher = Batcher()
        with pytest.raises(ServeError):
            batcher.submit("key", "x", samples=0)


# ---------------------------------------------------------------------------
# Service properties
# ---------------------------------------------------------------------------

def replay_outputs(trace, *, workers, cap=8):
    """Replay ``trace`` on a fresh service; returns {request_id: logits}."""
    service = make_service(workers=workers, cap=cap)
    spec = service.spec("simple_cnn")
    handles = [
        service.submit(request.model, request.materialize(spec.input_shape),
                       request.multiplier, request_id=request.request_id)
        for request in trace
    ]
    service.start()
    outputs = {h.request_id: h.result(60.0) for h in handles}
    service.stop()
    return service, outputs


class TestServiceDeterminism:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace(
            "simple_cnn", requests=24, samples=1,
            multipliers=MULTIPLIERS, seed=3)

    @pytest.fixture(scope="class")
    def reference(self, trace):
        _, outputs = replay_outputs(trace, workers=1)
        return outputs

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_outputs_identical_across_worker_counts(self, trace, reference,
                                                    workers):
        _, outputs = replay_outputs(trace, workers=workers)
        assert outputs.keys() == reference.keys()
        for request_id, result in outputs.items():
            assert np.array_equal(
                result.outputs, reference[request_id].outputs), request_id

    def test_demux_matches_direct_session_run(self, trace):
        """Each request gets exactly its own rows of the coalesced batch."""
        uniform = [r for r in trace if r.multiplier == MULTIPLIERS[0]]
        service, outputs = replay_outputs(uniform, workers=1, cap=1024)
        spec = service.spec("simple_cnn")
        session = service.session("simple_cnn", MULTIPLIERS[0])
        stacked = np.concatenate(
            [r.materialize(spec.input_shape) for r in uniform], axis=0)
        direct, _ = session.run(stacked)
        offset = 0
        for request in uniform:
            rows = request.samples
            assert np.array_equal(
                outputs[request.request_id].outputs,
                direct[offset:offset + rows])
            offset += rows

    def test_per_request_reports_are_sliced(self, trace):
        _, outputs = replay_outputs(trace, workers=2)
        for result in outputs.values():
            assert result.batch_samples >= result.samples
            assert result.latency_s > 0


class TestSessionAccounting:
    """One session run's report totals every approximated layer."""

    @staticmethod
    def builder():
        return build_simple_cnn(input_size=16, seed=0)

    @pytest.fixture(scope="class")
    def session(self):
        service = EmulationService(ServiceConfig(workers=1))
        service.register_model(
            "simple_cnn16", self.builder, calibration_samples=8)
        return service.session("simple_cnn16", "mul8s_mitchell")

    @pytest.mark.parametrize("samples", [1, 3])
    def test_report_counts_every_layer(self, session, samples):
        _, report = session.run(session.spec.calibration[:samples])
        assert report.batch == samples
        assert report.stats.macs == self.builder().macs_per_image * samples
        assert report.stats.chunks == len(session.spec.conv_layers)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_raise_through_frozen_ranges(self, session,
                                                           bad):
        inputs = session.spec.calibration[:2].copy()
        inputs[1, 0, 0, 0] = bad
        with pytest.raises(ExecutionError) as info:
            session.run(inputs)
        assert isinstance(info.value.__cause__, QuantizationError)


class TestAdmission:
    def test_different_configs_never_share_a_batch(self):
        trace = synthetic_trace(
            "simple_cnn", requests=16, samples=1,
            multipliers=MULTIPLIERS, seed=1)
        service, _ = replay_outputs(trace, workers=4, cap=4)
        by_id = {request.request_id: request for request in trace}
        log = service.batch_log()
        assert log, "the service must record executed batches"
        spec = service.spec("simple_cnn")
        for record in log:
            keys = {
                admission_key("simple_cnn", {
                    layer: by_id[rid].multiplier
                    for layer in spec.conv_layers})
                for rid in record.request_ids
            }
            assert len(keys) == 1
            assert record.key in keys
            assert record.wall_time_s > 0

    def test_layerwise_and_uniform_configs_are_distinct(self):
        service = make_service()
        spec = service.spec("simple_cnn")
        uniform = service.session("simple_cnn", "mul8s_exact")
        layered = service.session(
            "simple_cnn", {spec.conv_layers[0]: "mul8s_exact"})
        assert uniform.key != layered.key
        # ...but an explicit full assignment equals its uniform spelling.
        explicit = service.session(
            "simple_cnn", {layer: "mul8s_exact" for layer in spec.conv_layers})
        assert explicit is uniform


class TestDeadline:
    """Sparse traffic meets its callers' deadlines without filling a batch."""

    def test_trickle_load_never_starves(self):
        """Sparse traffic completes without ever filling a batch."""
        service = make_service(workers=1, cap=1000)
        spec = service.spec("simple_cnn")
        service.session("simple_cnn", "mul8s_exact")  # build outside timing
        with service:
            for index in range(3):
                inputs = np.random.default_rng(index).random(
                    size=(1, *spec.input_shape))
                result = service.infer(
                    "simple_cnn", inputs, "mul8s_exact", timeout=10.0)
                assert result.samples == 1
                assert result.batch_samples == 1
        snapshot = service.telemetry()
        assert snapshot.completed == 3
        assert snapshot.occupancy == {1: 3}

    def test_concurrent_trickle_from_many_threads(self):
        service = make_service(workers=2, cap=1000)
        spec = service.spec("simple_cnn")
        service.session("simple_cnn", "mul8s_exact")
        errors = []

        def client(seed):
            try:
                inputs = np.random.default_rng(seed).random(
                    size=(1, *spec.input_shape))
                service.infer("simple_cnn", inputs, "mul8s_exact",
                              timeout=10.0)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        with service:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert service.telemetry().completed == 6


class TestFaults:
    """A failing batch fails only its own requests, with a typed error."""

    def test_session_fault_mid_traffic_fails_only_its_batch(self):
        service = make_service(workers=1, cap=8)
        spec = service.spec("simple_cnn")
        faulty_multiplier, healthy_multiplier = MULTIPLIERS[1], MULTIPLIERS[0]
        service.session("simple_cnn", healthy_multiplier)
        faulty = service.session("simple_cnn", faulty_multiplier)
        calls = itertools.count()
        run = faulty.run

        def run_failing_once(inputs):
            if next(calls) == 1:
                raise RuntimeError("injected session fault")
            return run(inputs)

        faulty.run = run_failing_once
        rng = np.random.default_rng(0)
        sent = []
        with service:
            for index in range(12):
                multiplier = MULTIPLIERS[index % 2]
                inputs = rng.random(size=(1, *spec.input_shape))
                sent.append((multiplier, service.submit(
                    "simple_cnn", inputs, multiplier)))
                if index == 1:  # the faulty key's first run succeeds
                    sent[index][1].result(timeout=30.0)
                time.sleep(0.002)
            errors = {}
            for multiplier, handle in sent:
                try:
                    handle.result(timeout=30.0)
                except TFApproxError as exc:
                    errors[handle.request_id] = (multiplier, exc)
            # The worker survives the fault and serves the key again.
            recovered = service.infer(
                "simple_cnn", inputs, faulty_multiplier, timeout=30.0)
        assert recovered.samples == 1
        assert all(handle.done() for _, handle in sent)
        assert errors, "the injected fault must fail its batch"
        assert {m for m, _ in errors.values()} == {faulty_multiplier}
        failures = {id(exc): exc for _, exc in errors.values()}
        assert len(failures) == 1  # one failed batch, one shared error
        error = next(iter(failures.values()))
        assert isinstance(error, ServeError)
        assert isinstance(error.__cause__, RuntimeError)
        snapshot = service.telemetry()
        assert snapshot.failed == len(errors)
        assert snapshot.completed == len(sent) - len(errors) + 1
        assert snapshot.submitted == (snapshot.completed + snapshot.failed
                                      + snapshot.queue_depth)

    def test_typed_session_errors_pass_through_unchanged(self):
        service = make_service(workers=1)
        spec = service.spec("simple_cnn")
        inputs = np.zeros((1, *spec.input_shape))
        inputs[0, 0, 0, 0] = np.nan
        handle = service.submit("simple_cnn", inputs, "mul8s_mitchell")
        with service:
            with pytest.raises(ExecutionError) as info:
                handle.result(timeout=30.0)
        assert isinstance(info.value.__cause__, QuantizationError)
        assert service.telemetry().failed == 1


class TestWarmupAndTelemetry:
    def test_warmup_makes_replay_cache_silent(self):
        clear_caches()
        service = make_service(workers=1, cap=8)
        service.warmup("simple_cnn", list(MULTIPLIERS))
        before = cache_stats()
        assert before["filters"].misses > 0
        trace = synthetic_trace(
            "simple_cnn", requests=12, samples=1,
            multipliers=MULTIPLIERS, seed=9)
        report = service.replay(trace)
        service.stop()
        after = cache_stats()
        assert after["lut"].misses == before["lut"].misses
        assert after["filters"].misses == before["filters"].misses
        assert report.requests == 12
        assert report.telemetry["caches"]["filters"]["hits"] > 0

    def test_telemetry_snapshot_shape(self):
        service = make_service(workers=1, cap=4)
        trace = synthetic_trace("simple_cnn", requests=8, samples=1,
                                multipliers=("mul8s_exact",), seed=0)
        report = service.replay(trace)
        service.stop()
        snapshot = service.telemetry()
        assert snapshot.submitted == snapshot.completed == 8
        assert snapshot.failed == 0
        assert snapshot.queue_depth == 0
        assert sum(snapshot.occupancy.values()) == snapshot.batches
        assert snapshot.latency is not None
        assert snapshot.latency.p99_s >= snapshot.latency.p50_s
        assert snapshot.mean_occupancy == pytest.approx(4.0)
        assert report.requests_per_s > 0
        document = snapshot.to_json()
        assert document["batches"] == snapshot.batches


class TestErrorPaths:
    @pytest.mark.parametrize("field, value, match", [
        ("workers", 0, "workers"),
    ])
    def test_config_checks_its_own_fields(self, field, value, match):
        with pytest.raises(ServeError, match=match):
            ServiceConfig(**{field: value})

    def test_unknown_model_rejected_at_submit(self):
        service = make_service()
        with pytest.raises(ServeError, match="not registered"):
            service.submit("nope", np.zeros((1, 8, 8, 3)), "mul8s_exact")

    def test_bad_input_shape_rejected_at_submit(self):
        service = make_service()
        with pytest.raises(ServeError, match="do not match"):
            service.submit("simple_cnn", np.zeros((1, 4, 4, 3)), "mul8s_exact")

    def test_unknown_multiplier_rejected_at_submit(self):
        service = make_service()
        with pytest.raises(ServeError, match="cannot build session"):
            service.submit(
                "simple_cnn", np.zeros((1, 8, 8, 3)), "mul99_nope")

    def test_assignment_to_unknown_layer_rejected(self):
        service = make_service()
        with pytest.raises(ServeError, match="does not have"):
            service.submit(
                "simple_cnn", np.zeros((1, 8, 8, 3)), {"nope": "mul8s_exact"})

    def test_submit_after_stop_rejected(self):
        service = make_service()
        service.start()
        service.stop()
        with pytest.raises(ServeError, match="closed"):
            service.submit("simple_cnn", np.zeros((1, 8, 8, 3)),
                           "mul8s_exact")
        with pytest.raises(ServeError, match="cannot be restarted"):
            service.start()

    def test_duplicate_registration_rejected(self):
        service = make_service()
        with pytest.raises(ServeError, match="already registered"):
            service.register_model("simple_cnn", small_builder)

    def test_result_timeout(self):
        service = make_service()  # never started: nothing will resolve
        handle = service.submit(
            "simple_cnn", np.zeros((1, 8, 8, 3)), "mul8s_exact")
        with pytest.raises(ServeError, match="did not complete"):
            handle.result(timeout=0.05)


# ---------------------------------------------------------------------------
# CLI (end-to-end; the dry-run output is golden-tested separately)
# ---------------------------------------------------------------------------

class TestServeCli:
    def test_replay_of_recorded_trace_with_json_report(self, tmp_path,
                                                       capsys):
        from repro.serve.cli import main_serve

        trace_path = tmp_path / "trace.jsonl"
        save_trace(trace_path, synthetic_trace(
            "simple_cnn", requests=6, samples=1,
            multipliers=("mul8s_exact",), seed=2))
        report_path = tmp_path / "report.json"
        code = main_serve([
            "--model", "simple_cnn", "--input-size", "8",
            "--trace", str(trace_path), "--batch-cap", "4",
            "--json", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 6 request(s)" in out
        assert report_path.exists()
        import json
        document = json.loads(report_path.read_text())
        assert document["requests"] == 6
        assert document["requests_per_s"] > 0

    def test_synthetic_replay_without_warmup(self, capsys):
        from repro.serve.cli import main_serve

        code = main_serve([
            "--model", "simple_cnn", "--input-size", "8",
            "--requests", "4", "--multipliers", "mul8s_exact",
            "--batch-cap", "4", "--no-warmup",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "replayed 4 request(s)" in out

    def test_unknown_multiplier_in_trace_fails_cleanly(self, tmp_path,
                                                       capsys):
        from repro.serve.cli import main_serve

        trace_path = tmp_path / "trace.jsonl"
        trace_path.write_text(
            '{"model": "simple_cnn", "multiplier": "mul99_nope"}\n')
        code = main_serve([
            "--model", "simple_cnn", "--input-size", "8",
            "--trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "error:" in out


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TestTraces:
    def test_trace_round_trips_through_jsonl(self, tmp_path):
        trace = synthetic_trace(
            "simple_cnn", requests=5, samples=2,
            multipliers=MULTIPLIERS, seed=4)
        path = tmp_path / "trace.jsonl"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded == trace

    def test_materialize_is_deterministic(self):
        request = TraceRequest(model="m", samples=3, seed=11)
        first = request.materialize((8, 8, 3))
        second = request.materialize((8, 8, 3))
        assert first.shape == (3, 8, 8, 3)
        assert np.array_equal(first, second)

    def test_invalid_trace_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no_model": 1}\n')
        with pytest.raises(ServeError, match="'model' field"):
            load_trace(path)
        path.write_text("not json\n")
        with pytest.raises(ServeError, match="not valid JSON"):
            load_trace(path)
        path.write_text("")
        with pytest.raises(ServeError, match="no requests"):
            load_trace(path)
